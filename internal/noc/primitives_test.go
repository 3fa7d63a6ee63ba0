package noc

import (
	"testing"
	"testing/quick"
	"unsafe"
)

func TestPortOpposite(t *testing.T) {
	cases := map[Port]Port{North: South, South: North, East: West, West: East, Local: Local}
	for p, want := range cases {
		if got := p.Opposite(); got != want {
			t.Errorf("%v.Opposite() = %v, want %v", p, got, want)
		}
	}
}

func TestPortString(t *testing.T) {
	want := map[Port]string{Local: "L", North: "N", East: "E", South: "S", West: "W"}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(p), p.String(), s)
		}
	}
}

func TestCoordRoundTrip(t *testing.T) {
	const w = 4
	for n := NodeID(0); n < 16; n++ {
		c := CoordOf(n, w)
		if back := c.NodeOf(w); back != n {
			t.Errorf("node %d -> %+v -> %d", n, c, back)
		}
	}
	if c := CoordOf(5, 4); c.X != 1 || c.Y != 1 {
		t.Errorf("CoordOf(5,4) = %+v", c)
	}
}

func TestRoundRobinCycles(t *testing.T) {
	a := NewRoundRobin(4)
	req := []bool{true, true, true, true}
	order := []int{}
	for i := 0; i < 8; i++ {
		order = append(order, a.Grant(req))
	}
	want := []int{0, 1, 2, 3, 0, 1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("grant order %v, want %v", order, want)
		}
	}
}

func TestRoundRobinSkipsIdle(t *testing.T) {
	a := NewRoundRobin(4)
	req := []bool{false, true, false, true}
	if g := a.Grant(req); g != 1 {
		t.Fatalf("first grant = %d, want 1", g)
	}
	if g := a.Grant(req); g != 3 {
		t.Fatalf("second grant = %d, want 3", g)
	}
	if g := a.Grant(req); g != 1 {
		t.Fatalf("third grant = %d, want 1", g)
	}
}

func TestRoundRobinNoRequests(t *testing.T) {
	a := NewRoundRobin(3)
	if g := a.Grant([]bool{false, false, false}); g != -1 {
		t.Fatalf("grant with no requests = %d", g)
	}
}

func TestRoundRobinPeekDoesNotAdvance(t *testing.T) {
	a := NewRoundRobin(3)
	req := []bool{true, true, true}
	if p := a.Peek(req); p != 0 {
		t.Fatalf("peek = %d", p)
	}
	if p := a.Peek(req); p != 0 {
		t.Fatalf("second peek = %d (advanced)", p)
	}
	if g := a.Grant(req); g != 0 {
		t.Fatalf("grant after peek = %d", g)
	}
}

func TestRoundRobinPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on size mismatch")
		}
	}()
	NewRoundRobin(2).Grant([]bool{true})
}

func TestQuickRoundRobinFairness(t *testing.T) {
	// Property: with all requesters always active, each is granted
	// exactly every n-th round.
	f := func(sz uint8) bool {
		n := int(sz%8) + 1
		a := NewRoundRobin(n)
		req := make([]bool, n)
		for i := range req {
			req[i] = true
		}
		counts := make([]int, n)
		for i := 0; i < 5*n; i++ {
			counts[a.Grant(req)]++
		}
		for _, c := range counts {
			if c != 5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPipelineLatency1(t *testing.T) {
	p := NewPipeline[int](1)
	if got := p.Receive(); len(got) != 0 {
		t.Fatalf("initial receive = %v", got)
	}
	p.Send(7)
	if got := p.Receive(); len(got) != 1 || got[0] != 7 {
		t.Fatalf("receive after 1 cycle = %v", got)
	}
	if got := p.Receive(); len(got) != 0 {
		t.Fatalf("value delivered twice: %v", got)
	}
}

func TestPipelineLatency3(t *testing.T) {
	p := NewPipeline[int](3)
	p.Send(42)
	for i := 0; i < 2; i++ {
		if got := p.Receive(); len(got) != 0 {
			t.Fatalf("early delivery at cycle %d: %v", i+1, got)
		}
		if p.InFlight() != 1 {
			t.Fatalf("in-flight = %d at cycle %d", p.InFlight(), i+1)
		}
	}
	if got := p.Receive(); len(got) != 1 || got[0] != 42 {
		t.Fatalf("delivery at cycle 3 = %v", got)
	}
	if p.InFlight() != 0 {
		t.Fatalf("in-flight after delivery = %d", p.InFlight())
	}
}

func TestPipelineBatching(t *testing.T) {
	p := NewPipeline[int](2)
	p.Send(1)
	p.Send(2)
	p.Receive()
	p.Send(3)
	got := p.Receive()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("batch 1 = %v", got)
	}
	got = p.Receive()
	if len(got) != 1 || got[0] != 3 {
		t.Fatalf("batch 2 = %v", got)
	}
}

func TestPipelinePanicsOnZeroLatency(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewPipeline[int](0)
}

func TestPowerLinkDelay(t *testing.T) {
	l := newPowerLink()
	if l.Current() != ^uint64(0) {
		t.Fatal("power link must start all-on")
	}
	l.Send(0b1010)
	if l.Current() != ^uint64(0) {
		t.Fatal("mask applied without delay")
	}
	l.Tick()
	if l.Current() != 0b1010 {
		t.Fatalf("mask after tick = %b", l.Current())
	}
	l.Tick()
	if l.Current() != 0b1010 {
		t.Fatal("mask must hold without new Send")
	}
}

func TestMDLinkDelay(t *testing.T) {
	l := newMDLink(2)
	if l.Current(0) != 0 || l.Current(1) != 0 {
		t.Fatal("md link must start at VC 0")
	}
	l.Send(0, 3, 1)
	l.Send(1, 1, 0)
	if l.Current(0) != 0 || l.CurrentLD(0) != 0 {
		t.Fatal("md applied without delay")
	}
	l.Tick()
	if l.Current(0) != 3 || l.Current(1) != 1 {
		t.Fatalf("md after tick = %d/%d", l.Current(0), l.Current(1))
	}
	if l.CurrentLD(0) != 1 || l.CurrentLD(1) != 0 {
		t.Fatalf("ld after tick = %d/%d", l.CurrentLD(0), l.CurrentLD(1))
	}
}

func TestFlitExpansion(t *testing.T) {
	p := Packet{ID: 9, Src: 1, Dst: 2, VNet: 0, Len: 4, InjectCycle: 100}
	flits := p.Flits()
	if len(flits) != 4 {
		t.Fatalf("len = %d", len(flits))
	}
	wantTypes := []FlitType{HeadFlit, BodyFlit, BodyFlit, TailFlit}
	for i, f := range flits {
		if f.Type != wantTypes[i] {
			t.Errorf("flit %d type = %v, want %v", i, f.Type, wantTypes[i])
		}
		if int(f.Seq) != i || f.Len != 4 || f.PacketID != 9 || f.InjectCycle != 100 {
			t.Errorf("flit %d metadata wrong: %+v", i, f)
		}
	}
}

// TestFlitSize pins the flit handle VC FIFOs and link pipelines hold:
// per-packet fields live in the packet table, so a flit stays within
// 16 bytes (8 today).
func TestFlitSize(t *testing.T) {
	if size := unsafe.Sizeof(flit{}); size > 16 {
		t.Fatalf("flit handle is %d bytes, want at most 16", size)
	}
}

func TestSingleFlitPacket(t *testing.T) {
	flits := Packet{Len: 1}.Flits()
	if len(flits) != 1 || flits[0].Type != HeadTailFlit {
		t.Fatalf("single-flit expansion = %+v", flits)
	}
	if !flits[0].Type.IsHead() || !flits[0].Type.IsTail() {
		t.Fatal("head-tail flit must be both head and tail")
	}
}

func TestRoutingXY(t *testing.T) {
	cases := []struct {
		cur, dst Coord
		want     Port
	}{
		{Coord{0, 0}, Coord{0, 0}, Local},
		{Coord{0, 0}, Coord{2, 0}, East},
		{Coord{2, 0}, Coord{0, 0}, West},
		{Coord{0, 0}, Coord{0, 2}, South},
		{Coord{0, 2}, Coord{0, 0}, North},
		{Coord{0, 0}, Coord{2, 2}, East}, // X first
		{Coord{2, 0}, Coord{2, 2}, South},
	}
	for _, c := range cases {
		if got := RouteXY.Route(c.cur, c.dst); got != c.want {
			t.Errorf("XY %v->%v = %v, want %v", c.cur, c.dst, got, c.want)
		}
	}
}

func TestRoutingYX(t *testing.T) {
	if got := RouteYX.Route(Coord{0, 0}, Coord{2, 2}); got != South {
		t.Errorf("YX routes %v first, want South", got)
	}
	if got := RouteYX.Route(Coord{0, 2}, Coord{2, 2}); got != East {
		t.Errorf("YX same-row = %v, want East", got)
	}
}

func TestRoutingWestFirst(t *testing.T) {
	if got := RouteWestFirst.Route(Coord{2, 0}, Coord{0, 2}); got != West {
		t.Errorf("west-first must go West first, got %v", got)
	}
	if got := RouteWestFirst.Route(Coord{0, 0}, Coord{2, 2}); got != East {
		t.Errorf("west-first with no west hops = %v, want East", got)
	}
}

func TestParseRouting(t *testing.T) {
	for _, name := range []string{"xy", "yx", "west-first"} {
		a, err := ParseRouting(name)
		if err != nil {
			t.Fatalf("ParseRouting(%q): %v", name, err)
		}
		if a.String() != name {
			t.Errorf("round trip %q -> %q", name, a.String())
		}
	}
	if _, err := ParseRouting("zigzag"); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

// Property: every XY route converges — following Route from any source
// reaches the destination in at most X-distance + Y-distance hops.
func TestQuickXYConverges(t *testing.T) {
	f := func(sx, sy, dx, dy uint8) bool {
		const w, h = 8, 8
		cur := Coord{int(sx % w), int(sy % h)}
		dst := Coord{int(dx % w), int(dy % h)}
		budget := abs(cur.X-dst.X) + abs(cur.Y-dst.Y)
		for i := 0; i <= budget; i++ {
			p := RouteXY.Route(cur, dst)
			if p == Local {
				return cur == dst
			}
			switch p {
			case North:
				cur.Y--
			case South:
				cur.Y++
			case East:
				cur.X++
			case West:
				cur.X--
			}
		}
		return cur == dst
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Property: a pipeline of any latency delivers every value exactly once,
// in FIFO order, exactly latency receives after its send.
func TestQuickPipelineDelivery(t *testing.T) {
	f := func(latRaw uint8, sends []uint8) bool {
		lat := int(latRaw%5) + 1
		p := NewPipeline[int](lat)
		type sent struct{ value, cycle int }
		var pending []sent
		var delivered []sent
		cycle := 0
		step := func(doSend bool, v int) {
			for _, got := range p.Receive() {
				delivered = append(delivered, sent{got, cycle})
			}
			if doSend {
				pending = append(pending, sent{v, cycle})
				p.Send(v)
			}
			cycle++
		}
		for i, s := range sends {
			step(s%2 == 0, i)
		}
		for i := 0; i < lat+1; i++ {
			step(false, 0)
		}
		if len(delivered) != len(pending) {
			return false
		}
		for i := range pending {
			if delivered[i].value != pending[i].value {
				return false
			}
			if delivered[i].cycle != pending[i].cycle+lat {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
