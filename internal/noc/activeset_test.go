package noc_test

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"

	"nbtinoc/internal/core"
	"nbtinoc/internal/noc"
	"nbtinoc/internal/rng"
)

// boundaryInjection is one packet of a word-boundary traffic script.
type boundaryInjection struct {
	cycle    uint64
	src, dst noc.NodeID
}

// boundaryScript returns packets spaced far enough apart that the mesh
// drains between most of them, so RunUntil fast-forwards the gaps. The
// sources and destinations sit on both sides of every 64-node word
// boundary the mesh has and of the 4096-node summary-word boundary when
// the mesh crosses it, plus a few random pairs.
func boundaryScript(nodes int) []boundaryInjection {
	var ids []noc.NodeID
	for w := 64; w < nodes; w += 64 * 16 {
		ids = append(ids, noc.NodeID(w-1), noc.NodeID(w))
	}
	if nodes > 4096 {
		ids = append(ids, 4095, 4096)
	}
	ids = append(ids, 0, noc.NodeID(nodes-1))
	src := rng.New(uint64(nodes))
	var script []boundaryInjection
	cycle := uint64(50)
	for i, a := range ids {
		b := ids[(i+1)%len(ids)]
		if a == b {
			b = noc.NodeID(src.Intn(nodes))
		}
		if a != b {
			script = append(script, boundaryInjection{cycle, a, b}, boundaryInjection{cycle + 3, b, a})
		}
		r1, r2 := noc.NodeID(src.Intn(nodes)), noc.NodeID(src.Intn(nodes))
		if r1 != r2 {
			script = append(script, boundaryInjection{cycle + 7, r1, r2})
		}
		cycle += 400
	}
	return script
}

// boundaryFingerprint is everything a reader can observe of a run: clock,
// event counters, traffic totals, the latency histogram and a digest of
// the full aging snapshot.
func boundaryFingerprint(t *testing.T, n *noc.Network) string {
	t.Helper()
	aging, err := json.Marshal(n.AgingSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	lat := n.LatencyHistogramAll()
	return fmt.Sprintf("cycle=%d events=%+v inj=%d ej=%d lat=%s aging=%x",
		n.Cycle(), n.Events(), n.TotalInjectedPackets(), n.TotalEjectedPackets(),
		lat.String(), sha256.Sum256(aging))
}

// runBoundaryScript drives a fresh network through script, either by
// stepping every cycle or by fast-forwarding with RunUntil, and returns
// its fingerprint and fast-forwarded cycle count.
func runBoundaryScript(t *testing.T, cfg noc.Config, script []boundaryInjection, stepped bool) (string, uint64) {
	t.Helper()
	n, err := noc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	advance := func(target uint64) {
		if !stepped {
			n.RunUntil(target)
			return
		}
		for n.Cycle() < target {
			n.Step()
		}
	}
	for _, in := range script {
		advance(in.cycle)
		if err := n.Inject(in.src, in.dst, 0, 4); err != nil {
			t.Fatal(err)
		}
	}
	advance(script[len(script)-1].cycle + 600)
	if !n.Quiescent() {
		t.Fatal("script did not drain")
	}
	if n.TotalEjectedPackets() != uint64(len(script)) {
		t.Fatalf("ejected %d of %d packets", n.TotalEjectedPackets(), len(script))
	}
	return boundaryFingerprint(t, n), n.FastForwardedCycles()
}

// Fast-forwarding must stay exact on meshes whose active sets cross word
// boundaries: 9×9 spans two words of per-node bits, 64×64 exactly 64
// words (one full summary word), and 65×64 spills into a second summary
// word. Under -tags nbtidebug every Step of both runs also checks that
// each skipped unit is quiescent.
func TestFastForwardAcrossSummaryWords(t *testing.T) {
	for _, tc := range []struct {
		w, h, summary int
	}{
		{9, 9, 1},
		{64, 64, 1},
		{65, 64, 2},
	} {
		t.Run(fmt.Sprintf("%dx%d", tc.w, tc.h), func(t *testing.T) {
			// Two shallow VCs keep the two big meshes small.
			cfg := noc.DefaultConfig()
			cfg.Width, cfg.Height = tc.w, tc.h
			cfg.VCsPerVNet, cfg.BufferDepth, cfg.EjectBufferDepth = 2, 2, 2
			cfg.Policy = core.NewSensorWise
			n, err := noc.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := noc.SummaryWords(n); got != tc.summary {
				t.Fatalf("summary has %d words, want %d", got, tc.summary)
			}
			script := boundaryScript(tc.w * tc.h)
			stepped, _ := runBoundaryScript(t, cfg, script, true)
			fast, ff := runBoundaryScript(t, cfg, script, false)
			if ff == 0 {
				t.Error("RunUntil never fast-forwarded")
			}
			if stepped != fast {
				t.Errorf("fast-forwarded run differs from stepped:\n stepped: %s\n fast:    %s", stepped, fast)
			}
		})
	}
}
