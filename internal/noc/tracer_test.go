package noc

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// captureTracer records events for assertions.
type captureTracer struct {
	events []struct {
		cycle uint64
		kind  EventKind
		node  NodeID
		pkt   uint64
	}
}

func (c *captureTracer) Event(cycle uint64, kind EventKind, node NodeID, port Port, vc int, f Flit) {
	c.events = append(c.events, struct {
		cycle uint64
		kind  EventKind
		node  NodeID
		pkt   uint64
	}{cycle, kind, node, f.PacketID})
}

func TestTracerEventSequence(t *testing.T) {
	cfg := testConfig(2, 1, 2)
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := &captureTracer{}
	n.SetTracer(tr)
	if err := n.Inject(0, 1, 0, 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40 && n.TotalEjectedPackets() == 0; i++ {
		n.Step()
	}
	// Expected per-packet lifecycle for one hop:
	// INJECT, NI-VA, BW(router 0), VA(router 0), ST(router 0),
	// BW would be at router 1... wait: single-flit packet 0->1: BW at
	// router 0 local, VA at router 0 (to router 1 West), ST at router 0,
	// BW at router 1, VA at router 1 (to ejection), ST at router 1,
	// EJECT.
	var kinds []string
	for _, e := range tr.events {
		if e.pkt != 0 {
			continue
		}
		kinds = append(kinds, e.kind.String())
	}
	want := []string{"INJECT", "NI-VA", "BW", "VA", "ST", "BW", "VA", "ST", "EJECT"}
	if strings.Join(kinds, " ") != strings.Join(want, " ") {
		t.Fatalf("event sequence = %v, want %v", kinds, want)
	}
	// Cycles must be non-decreasing.
	for i := 1; i < len(tr.events); i++ {
		if tr.events[i].cycle < tr.events[i-1].cycle {
			t.Fatal("event cycles went backwards")
		}
	}
}

func TestWriterTracerFormat(t *testing.T) {
	cfg := testConfig(2, 1, 2)
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n.SetTracer(&WriterTracer{W: &buf})
	if err := n.Inject(0, 1, 0, 2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40 && n.TotalEjectedPackets() == 0; i++ {
		n.Step()
	}
	out := buf.String()
	for _, want := range []string{"ev=INJECT", "ev=BW", "ev=VA", "ev=ST", "ev=EJECT",
		"pkt=0", "src=0 dst=1", "type=head", "type=tail"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q:\n%s", want, out)
		}
	}
	// Clearing the tracer stops emission.
	n.SetTracer(nil)
	mark := buf.Len()
	_ = n.Inject(1, 0, 0, 1)
	for i := 0; i < 30; i++ {
		n.Step()
	}
	if buf.Len() != mark {
		t.Error("cleared tracer still emitted events")
	}
}

func TestEventKindStrings(t *testing.T) {
	for k := EvInject; k <= EvEject; k++ {
		if s := k.String(); s == "" || strings.HasPrefix(s, "EventKind") {
			t.Errorf("kind %d has no name", k)
		}
	}
	if !strings.HasPrefix(EventKind(99).String(), "EventKind") {
		t.Error("unknown kind not flagged")
	}
}

// updateTrace rewrites the tracer pins from the current engine:
//
//	go test ./internal/noc -run TestTracePinned -update-trace
var updateTrace = flag.Bool("update-trace", false, "rewrite testdata/trace_4x4*.txt")

// flitFieldTracer writes every field of the exported Flit of each event,
// so a pin covers what WriterTracer does not print (VC, VNet and the
// inject cycles).
type flitFieldTracer struct{ w io.Writer }

func (t flitFieldTracer) Event(cycle uint64, kind EventKind, node NodeID, port Port, vc int, f Flit) {
	fmt.Fprintf(t.w, "cycle=%d ev=%s node=%d port=%v vc=%d %s\n", cycle, kind, node, port, vc, flitFields(f))
}

func flitFields(f Flit) string {
	return fmt.Sprintf("pkt=%d src=%d dst=%d vnet=%d fvc=%d seq=%d/%d type=%s inject=%d netinject=%d",
		f.PacketID, f.Src, f.Dst, f.VNet, f.VC, f.Seq, f.Len, f.Type, f.InjectCycle, f.NetInjectCycle)
}

// teeTracer forwards each event to every tracer in order.
type teeTracer []Tracer

func (t teeTracer) Event(cycle uint64, kind EventKind, node NodeID, port Port, vc int, f Flit) {
	for _, tr := range t {
		tr.Event(cycle, kind, node, port, vc, f)
	}
}

// TestTracePinned pins the complete WriterTracer text, and every field
// of each traced and delivered Flit, of a fixed multi-packet run on a
// 4×4 mesh with two vnets: multi-hop packets of one to six flits, some
// sharing links and ejection ports, so every event kind and flit type
// appears and flits of different packets interleave.
func TestTracePinned(t *testing.T) {
	cfg := testConfig(4, 4, 2)
	cfg.VNets = 2
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var text, fields bytes.Buffer
	n.SetTracer(teeTracer{&WriterTracer{W: &text}, flitFieldTracer{&fields}})
	n.SetDeliveryHook(func(f Flit, cycle uint64) {
		fmt.Fprintf(&fields, "cycle=%d deliver %s\n", cycle, flitFields(f))
	})
	injects := []struct {
		at           uint64
		src, dst     NodeID
		vnet, length int
	}{
		{0, 0, 15, 0, 5}, {0, 3, 12, 1, 3}, {1, 5, 15, 0, 1}, {2, 0, 15, 0, 4},
		{2, 12, 3, 1, 6}, {4, 10, 0, 0, 2}, {5, 15, 0, 1, 5}, {5, 6, 9, 0, 1},
		{7, 1, 15, 0, 3}, {9, 4, 7, 1, 4}, {12, 0, 15, 1, 2}, {12, 14, 1, 0, 6},
	}
	for _, in := range injects {
		n.RunUntil(in.at)
		if err := n.Inject(in.src, in.dst, in.vnet, in.length); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 500 && !n.Quiescent(); i++ {
		n.Step()
	}
	if got := n.TotalEjectedPackets(); got != uint64(len(injects)) {
		t.Fatalf("%d of %d packets delivered", got, len(injects))
	}
	for name, got := range map[string][]byte{"trace_4x4.txt": text.Bytes(), "trace_4x4_fields.txt": fields.Bytes()} {
		path := filepath.Join("testdata", name)
		if *updateTrace {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from the pinned trace:\n%s", name, firstDiff(got, want))
		}
	}
}

// firstDiff describes the first line where got and want differ.
func firstDiff(got, want []byte) string {
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got %s\nwant %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(g), len(w))
}
