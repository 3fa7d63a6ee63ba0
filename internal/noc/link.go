package noc

// pipeline is the state of one unidirectional link with a fixed latency
// in cycles: values sent during cycle t are received during cycle
// t+latency. The reader advances a pipeline once per cycle while values
// are in flight by calling Receive, so the link is a ring of per-cycle
// batches. The ring itself is a window of a network-owned pipeRing
// arena, found by the reading unit's slot index, so a pipeline is two
// counters and its unit record stays plain data.
type pipeline struct {
	// head is the ring position Receive delivers next.
	head int32
	// n is the number of in-flight values. While zero, Receive skips the
	// head advance entirely: slot indexing is purely relative, so an
	// all-empty ring needs no rotation to stay consistent.
	n int32
}

// InFlight returns the total number of values currently traversing the
// pipeline — used by invariant checks and drain detection.
func (p *pipeline) InFlight() int { return int(p.n) }

// pipeRing is the ring storage of one kind of pipeline (flit links or
// credit links) for every unit slot of a network: each pipeline owns lat
// ring positions, and each position holds up to width values — the most
// its writer sends in one cycle — plus its fill. The capacity is fixed
// at construction, so sending never appends.
type pipeRing[T any] struct {
	//nbtilint:arena
	vals []T
	//nbtilint:arena
	lens       []int32
	lat, width int
}

// newPipeRing returns the rings of units pipelines of latency lat
// (>= 1), each position holding up to width values, carving the
// position fills from lens.
func newPipeRing[T any](units, lat, width int, lens *[]int32) pipeRing[T] {
	if lat < 1 {
		panic("noc: pipeline latency must be >= 1")
	}
	return pipeRing[T]{
		vals: make([]T, units*lat*width),
		lens: take(lens, units*lat),
		lat:  lat, width: width,
	}
}

// pos returns the ring-position index of position i of unit u's ring.
//
//nbtilint:packed
func (r *pipeRing[T]) pos(u int, i int32) int {
	return u*r.lat + int(i)
}

// batch returns the values of ring position q.
//
//nbtilint:packed
func (r *pipeRing[T]) batch(q int) []T {
	lo := q * r.width
	return r.vals[lo : lo+int(r.lens[q])]
}

// send enqueues v on unit u's pipeline p for delivery latency cycles
// after the current one. It must be called after this cycle's receive.
func (r *pipeRing[T]) send(p *pipeline, u int, v T) {
	i := p.head + int32(r.lat) - 1
	if i >= int32(r.lat) {
		i -= int32(r.lat)
	}
	q := r.pos(u, i)
	k := int(r.lens[q])
	if nbtiDebug && k == r.width {
		panic("noc: link pipeline position over capacity (more sends per cycle than the config bounds)")
	}
	r.vals[flatIndex(q, r.width, k)] = v
	r.lens[q]++
	p.n++
}

// receive returns the batch arriving this cycle on unit u's pipeline p
// and advances it. The returned slice is ring storage: callers must
// consume it before the next send into the pipeline.
func (r *pipeRing[T]) receive(p *pipeline, u int) []T {
	if p.n == 0 {
		return nil
	}
	q := r.pos(u, p.head)
	out := r.batch(q)
	r.lens[q] = 0
	p.head++
	if p.head == int32(r.lat) {
		p.head = 0
	}
	p.n -= int32(len(out))
	return out
}

// powerLink is the Up_Down control channel of the paper: each cycle the
// upstream output unit publishes the desired power state of the
// downstream VCs, which takes effect downstream one cycle later.
//
// Physically the paper's link carries only log2(numVC) VC-ID lines plus
// an enable bit per port; the downstream reconstructs the full mask from
// its local VC states. The simulator transports the reconstructed mask
// directly (as a bitmask over the port's flattened VCs) — behaviourally
// identical, since the mask is a pure function of information available
// at both ends, while the area model still charges only the paper's
// log2(V)+1 wires.
type powerLink struct {
	cur, next uint64
}

// Send publishes the desired mask; bit v = 1 keeps flattened VC v on.
func (l *powerLink) Send(mask uint64) { l.next = mask }

// Tick advances the one-cycle delay and reports whether the in-effect
// mask changed — the reader uses this to mark its power state dirty.
func (l *powerLink) Tick() bool {
	changed := l.cur != l.next
	l.cur = l.next
	return changed
}

// Current returns the mask in effect at the downstream this cycle.
func (l *powerLink) Current() uint64 { return l.cur }

// settled reports whether ticking the link is a no-op — the condition
// for the reading unit to leave the active set.
func (l *powerLink) settled() bool { return l.cur == l.next }

// mdLink is the Down_Up control channel: the downstream comparators
// publish the most degraded VC per vnet (the paper's marker) plus the
// least degraded VC (the wear-steering extension); values reach the
// upstream outVCstate one cycle later. A valid VC id is always present
// (the link needs no enable line, as the paper notes). The per-vnet
// values live in the reading output unit's outVNet records, which hold
// the comparator outputs between samples; the methods take that window.
type mdLink struct {
	// stale is set by Send whenever a pending value differs from the one
	// in effect and cleared by Tick; while clear, next == cur holds for
	// every vnet, so Tick and settled are O(1) instead of a window scan.
	stale bool
}

// Send publishes the most and least degraded VCs (indices within the
// vnet slice).
func (l *mdLink) Send(w []outVNet, vnet, md, ld int) {
	v := &w[vnet]
	v.nextMD, v.nextLD = int8(md), int8(ld)
	l.stale = l.stale || v.nextMD != v.curMD || v.nextLD != v.curLD
}

// Tick advances the one-cycle delay and reports whether any in-effect
// value changed — the reader uses this to invalidate a held policy
// decision.
func (l *mdLink) Tick(w []outVNet) bool {
	if !l.stale {
		return false
	}
	l.stale = false
	changed := false
	for i := range w {
		v := &w[i]
		if v.curMD != v.nextMD || v.curLD != v.nextLD {
			changed = true
			v.curMD, v.curLD = v.nextMD, v.nextLD
		}
	}
	return changed
}

// Current returns the most degraded VC for the vnet as seen upstream.
func (l *mdLink) Current(w []outVNet, vnet int) int { return int(w[vnet].curMD) }

// CurrentLD returns the least degraded VC for the vnet as seen upstream.
func (l *mdLink) CurrentLD(w []outVNet, vnet int) int { return int(w[vnet].curLD) }

// settled reports whether ticking the link is a no-op.
func (l *mdLink) settled() bool { return !l.stale }
