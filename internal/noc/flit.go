package noc

import "fmt"

// FlitType distinguishes the positions of a flit inside its packet.
type FlitType uint8

const (
	// HeadFlit opens a packet: it carries routing information and
	// triggers RC and VA.
	HeadFlit FlitType = iota
	// BodyFlit is a payload flit between head and tail.
	BodyFlit
	// TailFlit closes a packet and releases its virtual channel.
	TailFlit
	// HeadTailFlit is a single-flit packet (head and tail at once).
	HeadTailFlit
)

func (t FlitType) String() string {
	switch t {
	case HeadFlit:
		return "head"
	case BodyFlit:
		return "body"
	case TailFlit:
		return "tail"
	case HeadTailFlit:
		return "head-tail"
	default:
		return fmt.Sprintf("FlitType(%d)", uint8(t))
	}
}

// IsHead reports whether the flit opens a packet.
func (t FlitType) IsHead() bool { return t == HeadFlit || t == HeadTailFlit }

// IsTail reports whether the flit closes a packet.
func (t FlitType) IsTail() bool { return t == TailFlit || t == HeadTailFlit }

// Flit is the unit of flow control. Flits are passed by value; the hot
// simulation loop never allocates them on the heap.
type Flit struct {
	// PacketID identifies the packet the flit belongs to (unique per
	// network run).
	PacketID uint64
	// Src and Dst are the injecting and receiving node ids.
	Src, Dst NodeID
	// VNet is the virtual network the packet travels on.
	VNet int32
	// VC is the virtual channel at the *current* downstream input port;
	// it is rewritten at every hop when the flit is sent.
	VC int32
	// Seq is the flit's index within the packet (0 = head).
	Seq int32
	// Len is the packet length in flits.
	Len int32
	// Type marks the flit's position in its packet. (Kept after the
	// 32-bit fields so the struct packs into a single 64-byte cache
	// line — flits are copied by value through every pipeline hop.)
	Type FlitType
	// InjectCycle is the cycle the packet entered its NI source queue.
	InjectCycle uint64
	// NetInjectCycle is the cycle the head flit left the NI into the
	// network (after source queueing).
	NetInjectCycle uint64
	// Arrive is the cycle the flit was written into the current input
	// buffer (maintained by the input units; models the BW stage).
	Arrive uint64
}

// Packet describes a packet to be injected by a network interface.
type Packet struct {
	ID          uint64
	Src, Dst    NodeID
	VNet        int
	Len         int
	InjectCycle uint64
}

// Flits expands the packet into its flit sequence.
func (p Packet) Flits() []Flit {
	out := make([]Flit, p.Len)
	for i := range out {
		out[i] = Flit{
			PacketID:    p.ID,
			Src:         p.Src,
			Dst:         p.Dst,
			VNet:        int32(p.VNet),
			Type:        flitType(i, p.Len),
			Seq:         int32(i),
			Len:         int32(p.Len),
			InjectCycle: p.InjectCycle,
		}
	}
	return out
}

// flitType returns the position type of flit seq in a packet of n flits.
func flitType(seq, n int) FlitType {
	switch {
	case n == 1:
		return HeadTailFlit
	case seq == 0:
		return HeadFlit
	case seq == n-1:
		return TailFlit
	}
	return BodyFlit
}
