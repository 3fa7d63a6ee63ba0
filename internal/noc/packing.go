package noc

// This file is the single point of truth for the flat-memory engine's
// packed arena layout (see the Network doc comment):
//
//	unit slot = node*unitSlots + slot   (slot NumPorts = NI side)
//	vc slot   = unit slot*TotalVCs + vc
//
// Every multiply-add offset into an arena routes through the helpers
// below; the packedidx analyzer (internal/lint) rejects packed
// arithmetic in index position anywhere else, so a layout change — a
// different stride, padding for cache alignment — happens in exactly
// one place instead of silently reading another unit's state at the
// call sites that were missed.

// unitIndex returns the unit-arena slot of (node, slot): router ports
// 0..NumPorts-1, the NI-side pseudo-port at slot NumPorts.
//
//nbtilint:packed
func unitIndex(node, slot int) int {
	return node*unitSlots + slot
}

// flatIndex returns the packed offset of element sub within group when
// each group is stride elements wide — the generic multiply-add every
// packed layout reduces to (e.g. flattened (port, vc) pairs:
// flatIndex(port, TotalVCs, vc)).
//
//nbtilint:packed
func flatIndex(group, stride, sub int) int {
	return group*stride + sub
}

// window carves the group-th stride-wide window out of a flat arena,
// capacity-clamped so the window cannot be grown into its neighbour.
//
//nbtilint:packed
func window[T any](arena []T, group, stride int) []T {
	lo, hi := group*stride, (group+1)*stride
	return arena[lo:hi:hi]
}

// take carves the next n elements off the front of a construction-time
// backing slice, capacity-clamped like window. Backing slices are sized
// for a whole network up front, so carving every unit's windows costs
// no allocation.
func take[T any](back *[]T, n int) []T {
	w := (*back)[:n:n]
	*back = (*back)[n:]
	return w
}
