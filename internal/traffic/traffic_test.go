package traffic

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"nbtinoc/internal/noc"
)

func collect(g Generator, cycles int) []Event {
	var out []Event
	for c := 0; c < cycles; c++ {
		g.Tick(uint64(c), func(src, dst noc.NodeID, vnet, length int) {
			out = append(out, Event{Cycle: uint64(c), Src: src, Dst: dst, VNet: vnet, Len: length})
		})
	}
	return out
}

func TestSyntheticValidate(t *testing.T) {
	ok := SyntheticConfig{Pattern: Uniform, Width: 4, Height: 4, Rate: 0.1, PacketLen: 4}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []SyntheticConfig{
		{Pattern: Uniform, Width: 0, Height: 4, Rate: 0.1, PacketLen: 4},
		{Pattern: Uniform, Width: 1, Height: 1, Rate: 0.1, PacketLen: 4},
		{Pattern: Uniform, Width: 4, Height: 4, Rate: -0.1, PacketLen: 4},
		{Pattern: Uniform, Width: 4, Height: 4, Rate: 1.5, PacketLen: 4},
		{Pattern: Uniform, Width: 4, Height: 4, Rate: 0.1, PacketLen: 0},
		{Pattern: Transpose, Width: 4, Height: 2, Rate: 0.1, PacketLen: 4},
		{Pattern: BitComplement, Width: 3, Height: 2, Rate: 0.1, PacketLen: 4},
		{Pattern: Hotspot, Width: 4, Height: 4, Rate: 0.1, PacketLen: 4, HotspotFraction: 2},
		{Pattern: Hotspot, Width: 4, Height: 4, Rate: 0.1, PacketLen: 4, HotspotNode: 99},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestSyntheticRate(t *testing.T) {
	g, err := NewSynthetic(SyntheticConfig{
		Pattern: Uniform, Width: 4, Height: 4, Rate: 0.2, PacketLen: 4, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	const cycles = 50000
	events := collect(g, cycles)
	flits := 0
	for _, e := range events {
		flits += e.Len
	}
	got := float64(flits) / float64(cycles) / 16
	// Self-addressed draws are dropped (1/16 of uniform draws never
	// happen since dst != src by construction), so expect ~0.2.
	if math.Abs(got-0.2) > 0.02 {
		t.Errorf("offered load = %.3f flits/cycle/node, want ≈0.2", got)
	}
}

func TestSyntheticDeterminism(t *testing.T) {
	mk := func() []Event {
		g, err := NewSynthetic(SyntheticConfig{
			Pattern: Uniform, Width: 2, Height: 2, Rate: 0.3, PacketLen: 4, Seed: 9,
		})
		if err != nil {
			t.Fatal(err)
		}
		return collect(g, 2000)
	}
	a, b := mk(), mk()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs", i)
		}
	}
}

func TestPatternDestinations(t *testing.T) {
	mk := func(p Pattern) *Synthetic {
		g, err := NewSynthetic(SyntheticConfig{
			Pattern: p, Width: 4, Height: 4, Rate: 1, PacketLen: 1, Seed: 3,
			HotspotNode: 5, HotspotFraction: 1,
		})
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		return g
	}
	dest := func(p Pattern, src noc.NodeID) noc.NodeID {
		g := mk(p)
		return g.destination(src, 0, &g.nodes[int(src)].src)
	}
	// Transpose: node (1,0)=1 -> (0,1)=4.
	if d := dest(Transpose, 1); d != 4 {
		t.Errorf("transpose(1) = %d, want 4", d)
	}
	// Bit complement on 16 nodes: 0b0001 -> 0b1110.
	if d := dest(BitComplement, 1); d != 14 {
		t.Errorf("bit-complement(1) = %d, want 14", d)
	}
	// Bit reverse: 0b0001 -> 0b1000.
	if d := dest(BitReverse, 1); d != 8 {
		t.Errorf("bit-reverse(1) = %d, want 8", d)
	}
	// Shuffle: rotate left: 0b1001 -> 0b0011.
	if d := dest(Shuffle, 9); d != 3 {
		t.Errorf("shuffle(9) = %d, want 3", d)
	}
	// Tornado on width 4: x -> x+1 mod 4.
	if d := dest(Tornado, 0); d != 1 {
		t.Errorf("tornado(0) = %d, want 1", d)
	}
	// Neighbor: (0,0) -> (1,0).
	if d := dest(Neighbor, 0); d != 1 {
		t.Errorf("neighbor(0) = %d, want 1", d)
	}
	// Hotspot with fraction 1 always hits the hotspot.
	if d := dest(Hotspot, 0); d != 5 {
		t.Errorf("hotspot(0) = %d, want 5", d)
	}
}

func TestUniformNeverSelfAddresses(t *testing.T) {
	g, err := NewSynthetic(SyntheticConfig{
		Pattern: Uniform, Width: 2, Height: 2, Rate: 1, PacketLen: 1, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range collect(g, 500) {
		if e.Src == e.Dst {
			t.Fatalf("self-addressed packet: %+v", e)
		}
	}
}

func TestParsePatternRoundTrip(t *testing.T) {
	for p, name := range patternNames {
		got, err := ParsePattern(name)
		if err != nil || got != p {
			t.Errorf("ParsePattern(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParsePattern("spiral"); err == nil {
		t.Error("unknown pattern accepted")
	}
}

func TestProfileLookup(t *testing.T) {
	names := ProfileNames()
	if len(names) < 10 {
		t.Fatalf("only %d profiles", len(names))
	}
	for _, n := range names {
		p, err := ProfileByName(n)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Phases) == 0 || p.DataLen < 1 {
			t.Errorf("profile %q malformed", n)
		}
		for _, ph := range p.Phases {
			if ph.Cycles == 0 || ph.Rate < 0 || ph.Rate > 1 ||
				ph.ShortFrac < 0 || ph.ShortFrac > 1 {
				t.Errorf("profile %q has bad phase %+v", n, ph)
			}
		}
	}
	if _, err := ProfileByName("doom"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestAppMixAssignment(t *testing.T) {
	bench := []string{"fft", "lu", "radix", "ocean"}
	m, err := NewAppMix(2, 2, bench, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := m.Benchmarks()
	for i := range bench {
		if got[i] != bench[i] {
			t.Errorf("core %d runs %q, want %q", i, got[i], bench[i])
		}
	}
	if _, err := NewAppMix(2, 2, []string{"fft"}, 0, 1); err == nil {
		t.Error("mismatched benchmark count accepted")
	}
	if _, err := NewAppMix(2, 2, []string{"fft", "x", "lu", "lu"}, 0, 1); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestAppMixEmitsTraffic(t *testing.T) {
	m, err := NewRandomAppMix(4, 4, 0, 11)
	if err != nil {
		t.Fatal(err)
	}
	events := collect(m, 30000)
	if len(events) == 0 {
		t.Fatal("app mix emitted nothing in 30k cycles")
	}
	short, long := 0, 0
	for _, e := range events {
		if e.Src == e.Dst {
			t.Fatalf("self-addressed app packet: %+v", e)
		}
		if int(e.Src) < 0 || int(e.Src) >= 16 || int(e.Dst) < 0 || int(e.Dst) >= 16 {
			t.Fatalf("out-of-mesh endpoint: %+v", e)
		}
		switch e.Len {
		case 1:
			short++
		case 5:
			long++
		default:
			t.Fatalf("unexpected packet length %d", e.Len)
		}
	}
	if short == 0 || long == 0 {
		t.Errorf("packet mix degenerate: %d short, %d long", short, long)
	}
}

func TestAppMixRunToRunVariance(t *testing.T) {
	// Different seeds must give different mixes/timings — the source of
	// Table IV's across-iteration standard deviation.
	a, err := NewRandomAppMix(2, 2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRandomAppMix(2, 2, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	ea, eb := collect(a, 20000), collect(b, 20000)
	if len(ea) == len(eb) {
		same := true
		for i := range ea {
			if ea[i] != eb[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical event streams")
		}
	}
}

func TestTraceRoundTrip(t *testing.T) {
	events := []Event{
		{Cycle: 0, Src: 1, Dst: 2, VNet: 0, Len: 4},
		{Cycle: 5, Src: 0, Dst: 3, VNet: 1, Len: 1},
		{Cycle: 5, Src: 2, Dst: 1, VNet: 0, Len: 5},
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("read %d events, want %d", len(got), len(events))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Errorf("event %d = %+v, want %+v", i, got[i], events[i])
		}
	}
}

func TestWriteTraceRejectsUnordered(t *testing.T) {
	events := []Event{{Cycle: 5}, {Cycle: 2}}
	if err := WriteTrace(&bytes.Buffer{}, events); err == nil {
		t.Fatal("unordered trace accepted")
	}
}

func TestReadTraceRejectsGarbage(t *testing.T) {
	for _, s := range []string{
		"1 2 3", // too few fields
		"a b c d e",
		"1 0 1 0 0",     // zero length
		"1 0 1 0 65536", // beyond noc.MaxPacketLen
	} {
		if _, err := ReadTrace(strings.NewReader(s)); err == nil {
			t.Errorf("garbage %q accepted", s)
		}
	}
}

func TestReadTraceAcceptsMaxPacketLen(t *testing.T) {
	got, err := ReadTrace(strings.NewReader("1 0 1 0 65535\n"))
	if err != nil || len(got) != 1 || got[0].Len != 65535 {
		t.Fatalf("65535-flit trace line: got %+v, %v", got, err)
	}
}

func TestReadTraceSkipsComments(t *testing.T) {
	in := "# header\n\n3 0 1 0 4\n"
	got, err := ReadTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Cycle != 3 {
		t.Fatalf("got %+v", got)
	}
}

func TestReplayer(t *testing.T) {
	events := []Event{
		{Cycle: 1, Src: 0, Dst: 1, Len: 4},
		{Cycle: 1, Src: 2, Dst: 3, Len: 4},
		{Cycle: 4, Src: 1, Dst: 0, Len: 1},
	}
	r := NewReplayer(events)
	var emitted []Event
	for c := uint64(0); c < 6; c++ {
		r.Tick(c, func(src, dst noc.NodeID, vnet, length int) {
			emitted = append(emitted, Event{Cycle: c, Src: src, Dst: dst, VNet: vnet, Len: length})
		})
	}
	if !r.Done() || r.Remaining() != 0 {
		t.Fatalf("replayer not done: %d remaining", r.Remaining())
	}
	if len(emitted) != 3 {
		t.Fatalf("emitted %d events", len(emitted))
	}
	if emitted[0].Cycle != 1 || emitted[2].Cycle != 4 {
		t.Errorf("timing wrong: %+v", emitted)
	}
}

func TestRecorderCapturesAll(t *testing.T) {
	g, err := NewSynthetic(SyntheticConfig{
		Pattern: Uniform, Width: 2, Height: 2, Rate: 0.5, PacketLen: 2, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(g)
	passed := collect(rec, 1000)
	if len(rec.Events()) != len(passed) {
		t.Fatalf("recorder captured %d, passed through %d", len(rec.Events()), len(passed))
	}
	// Record -> write -> read -> replay reproduces the same stream.
	var buf bytes.Buffer
	if err := WriteTrace(&buf, rec.Events()); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rep := NewReplayer(back)
	replayed := collect(rep, 1000)
	if len(replayed) != len(passed) {
		t.Fatalf("replay produced %d events, want %d", len(replayed), len(passed))
	}
	for i := range passed {
		if replayed[i] != passed[i] {
			t.Fatalf("replayed event %d differs", i)
		}
	}
}

// Property: every synthetic pattern keeps destinations inside the mesh.
func TestQuickPatternsInMesh(t *testing.T) {
	f := func(seed uint64, pat uint8) bool {
		p := Pattern(int(pat) % 8)
		cfg := SyntheticConfig{
			Pattern: p, Width: 4, Height: 4, Rate: 1, PacketLen: 1,
			Seed: seed, HotspotNode: 3, HotspotFraction: 0.5,
		}
		g, err := NewSynthetic(cfg)
		if err != nil {
			return false
		}
		for src := 0; src < 16; src++ {
			d := g.destination(noc.NodeID(src), 0, &g.nodes[src].src)
			if int(d) < 0 || int(d) >= 16 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
