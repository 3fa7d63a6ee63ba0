package noc

import (
	"fmt"
	"math"
)

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

// Flit is the exported view of one flit, as the tracer and the delivery
// hook receive it: the flit's own fields plus its packet's header.
// Inside the network a flit is the 8-byte flit handle, and the header
// lives once per packet in the network's packet table; a Flit is built
// from the two only for an observer.
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
	// Type marks the flit's position in its packet.
	Type FlitType
	// InjectCycle is the cycle the packet entered its NI source queue.
	InjectCycle uint64
	// NetInjectCycle is the cycle the head flit left the NI into the
	// network (after source queueing).
	NetInjectCycle uint64
}

// MaxPacketLen is the longest packet, in flits, the network accepts: a
// flit numbers its position within the packet in 16 bits.
const MaxPacketLen = math.MaxUint16

// flit is the unit of flow control inside the network, as VC FIFOs and
// link pipelines hold it: a handle on its packet's slot in the packet
// table plus the only per-flit fields the pipeline reads. It is copied
// by value, 8 bytes per hop; RC reads the destination from the table
// once per head per hop, and ejection reads the rest at the tail.
type flit struct {
	// pkt is the packet's slot in the network's packet table.
	pkt uint32
	// seq is the flit's index within the packet (0 = head).
	seq uint16
	// vc is the virtual channel at the *current* downstream input port;
	// sendFlit rewrites it at every hop.
	vc  uint8
	typ FlitType
}

// packet is one packet-table slot: the header every flit of a packet
// shares, stored once. A slot is taken when the NI grants the packet
// its first VC (NI-VA) and freed when its tail is ejected.
type packet struct {
	id, inject, netInject uint64
	src, dst              NodeID
	vnet, len             uint16
	// nextFree links a free slot to the next one on the free list, as
	// packetTable.free does.
	nextFree uint32
}

// packetTable holds the header of every packet between NI-VA and tail
// ejection. Freed slots form a LIFO list threaded through nextFree, so
// the table grows only when more packets are live at once than ever
// before, and never shrinks. A live packet holds a distinct input VC
// (the one its tail occupies or is heading to, or its injection VC), so
// the table never outgrows the network's input VC count.
type packetTable struct {
	slots []packet
	// free is 1 + the first free slot, 0 while none is free, so the zero
	// table is empty and ready.
	free uint32
}

// take stores p in a free slot, growing the table if none is free, and
// returns the slot. Pointers into the table do not survive a take.
func (t *packetTable) take(p packet) uint32 {
	if t.free == 0 {
		t.slots = append(t.slots, p)
		return uint32(len(t.slots) - 1)
	}
	s := t.free - 1
	t.free = t.slots[s].nextFree
	t.slots[s] = p
	return s
}

// release frees slot s for the next take.
func (t *packetTable) release(s uint32) {
	t.slots[s] = packet{nextFree: t.free}
	t.free = s + 1
}

// export builds the exported view of f from its packet's slot.
func (t *packetTable) export(f flit) Flit {
	p := &t.slots[f.pkt]
	return Flit{
		PacketID:       p.id,
		Src:            p.src,
		Dst:            p.dst,
		VNet:           int32(p.vnet),
		VC:             int32(f.vc),
		Seq:            int32(f.seq),
		Len:            int32(p.len),
		Type:           f.typ,
		InjectCycle:    p.inject,
		NetInjectCycle: p.netInject,
	}
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
