package noc

import "testing"

// mkChannel builds a two-node network and returns its 0→1 channel:
// node 0's East output unit and node 1's West input unit, for white-box
// protocol tests that tick the channel by hand.
func mkChannel(t *testing.T, cfg Config, factory PolicyFactory) (*OutputUnit, *InputUnit, *Network) {
	t.Helper()
	cfg.Policy = factory
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n.Output(0, East), n.Input(1, West), n
}

// tick advances the channel's control links and delivers flits/credits,
// mimicking the relevant phases of Network.Step for a single channel.
func (n *Network) tickChannel(t *testing.T, ou *OutputUnit, iu *InputUnit, cycle uint64) []flit {
	t.Helper()
	if iu.power.Tick() {
		iu.pwrDirty = true
	}
	if ou.mdIn.Tick(ou.vnets(n)) {
		ou.polDirty = true
	}
	ou.creditTick(n)
	arrived := append([]flit(nil), n.flits.receive(&iu.flitIn, iu.unit())...)
	for _, f := range arrived {
		iu.bufferWrite(n, f, cycle, Local)
	}
	iu.applyPower(n, cycle)
	return arrived
}

func unitConfig() Config {
	cfg := DefaultConfig()
	cfg.Width, cfg.Height = 2, 1
	cfg.VCsPerVNet = 4
	return cfg
}

func TestOutVCStateLifecycle(t *testing.T) {
	cfg := unitConfig()
	ou, iu, n := mkChannel(t, cfg, nil)
	cycle := uint64(1)
	n.tickChannel(t, ou, iu, cycle)

	vc := ou.allocVC(n, 0)
	if vc < 0 {
		t.Fatal("allocation failed on empty channel")
	}
	if ou.StateOf(vc) != VCActive {
		t.Fatal("allocated VC not active in outVCstate")
	}
	// Send a 2-flit packet.
	head := flit{typ: HeadFlit, vc: uint8(vc)}
	tail := flit{typ: TailFlit, seq: 1, vc: uint8(vc)}
	ou.sendFlit(n, head, vc, cycle)
	cycle++
	n.tickChannel(t, ou, iu, cycle)
	ou.sendFlit(n, tail, vc, cycle)
	if ou.Credits(n, vc) != cfg.BufferDepth-2 {
		t.Fatalf("credits = %d, want %d", ou.Credits(n, vc), cfg.BufferDepth-2)
	}
	cycle++
	n.tickChannel(t, ou, iu, cycle)
	if iu.Occupancy(n, vc) != 2 {
		t.Fatalf("downstream occupancy = %d, want 2", iu.Occupancy(n, vc))
	}
	if iu.VCStateOf(n, vc) != VCActive {
		t.Fatal("downstream VC not active after head arrival")
	}
	// VC stays active upstream until the tail drains and credits return.
	if ou.StateOf(vc) != VCActive {
		t.Fatal("outVCstate retired before drain")
	}
	// A router input port drains one flit per cycle (switch allocation
	// grants it at most once), which bounds its credit link to one
	// credit per cycle.
	iu.popFlit(n, vc, cycle)
	cycle++
	n.tickChannel(t, ou, iu, cycle)
	iu.popFlit(n, vc, cycle)
	if iu.VCStateOf(n, vc) != VCIdle {
		t.Fatal("downstream VC not idle after tail pop")
	}
	// Credits flow back over the pipeline; after both arrive the
	// upstream VC returns to idle.
	cycle++
	n.tickChannel(t, ou, iu, cycle)
	if ou.StateOf(vc) != VCIdle {
		t.Fatalf("outVCstate = %v after full drain, want idle", ou.StateOf(vc))
	}
	if ou.Credits(n, vc) != cfg.BufferDepth {
		t.Fatalf("credits = %d after drain, want %d", ou.Credits(n, vc), cfg.BufferDepth)
	}
}

func TestAllocRotates(t *testing.T) {
	cfg := unitConfig()
	ou, _, n := mkChannel(t, cfg, nil)
	a := ou.allocVC(n, 0)
	b := ou.allocVC(n, 0)
	c := ou.allocVC(n, 0)
	d := ou.allocVC(n, 0)
	if a == b || b == c || c == d {
		t.Fatalf("allocation did not rotate: %d %d %d %d", a, b, c, d)
	}
	if e := ou.allocVC(n, 0); e != -1 {
		t.Fatalf("5th allocation on 4 VCs succeeded: %d", e)
	}
}

func TestSendWithoutCreditPanics(t *testing.T) {
	cfg := unitConfig()
	cfg.BufferDepth = 1
	ou, _, n := mkChannel(t, cfg, nil)
	vc := ou.allocVC(n, 0)
	ou.sendFlit(n, flit{typ: HeadFlit}, vc, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("send without credit did not panic")
		}
	}()
	ou.sendFlit(n, flit{typ: BodyFlit}, vc, 2)
}

func TestSendOnUnallocatedVCPanics(t *testing.T) {
	ou, _, n := mkChannel(t, unitConfig(), nil)
	defer func() {
		if recover() == nil {
			t.Fatal("send on idle VC did not panic")
		}
	}()
	ou.sendFlit(n, flit{typ: HeadFlit}, 0, 1)
}

func TestHeadIntoBusyVCPanics(t *testing.T) {
	cfg := unitConfig()
	_, iu, n := mkChannel(t, cfg, nil)
	iu.bufferWrite(n, flit{typ: HeadFlit}, 1, Local)
	defer func() {
		if recover() == nil {
			t.Fatal("packet mixing did not panic")
		}
	}()
	iu.bufferWrite(n, flit{typ: HeadFlit}, 2, Local)
}

func TestBodyIntoIdleVCPanics(t *testing.T) {
	_, iu, n := mkChannel(t, unitConfig(), nil)
	defer func() {
		if recover() == nil {
			t.Fatal("body flit into idle VC did not panic")
		}
	}()
	iu.bufferWrite(n, flit{typ: BodyFlit}, 1, Local)
}

func TestBufferOverflowPanics(t *testing.T) {
	cfg := unitConfig()
	cfg.BufferDepth = 2
	_, iu, n := mkChannel(t, cfg, nil)
	iu.bufferWrite(n, flit{typ: HeadFlit}, 1, Local)
	iu.bufferWrite(n, flit{typ: BodyFlit}, 2, Local)
	defer func() {
		if recover() == nil {
			t.Fatal("buffer overflow did not panic")
		}
	}()
	iu.bufferWrite(n, flit{typ: BodyFlit}, 3, Local)
}

func TestCreditOverflowPanics(t *testing.T) {
	cfg := unitConfig()
	ou, iu, n := mkChannel(t, cfg, nil)
	// Returning a credit the upstream never spent must trip the check.
	n.credits.send(&ou.creditIn, ou.unit(), 0)
	defer func() {
		if recover() == nil {
			t.Fatal("credit overflow did not panic")
		}
	}()
	n.tickChannel(t, ou, iu, 1)
}

// gateAll is a test policy gating every idle VC unconditionally.
type gateAll struct{}

func (gateAll) Name() string                    { return "test-gate-all" }
func (gateAll) DesiredPower(PolicyInput) uint64 { return 0 }

func TestPowerMaskPropagationDelay(t *testing.T) {
	cfg := unitConfig()
	ou, iu, n := mkChannel(t, cfg, func() Policy { return gateAll{} })
	cycle := uint64(1)
	n.tickChannel(t, ou, iu, cycle)
	if !iu.Powered(0) {
		t.Fatal("VCs must start powered")
	}
	// The policy gates everything; the command reaches the downstream
	// one cycle later.
	ou.runPolicy(n, 0, cycle)
	if !iu.Powered(0) {
		t.Fatal("mask applied without link delay")
	}
	cycle++
	n.tickChannel(t, ou, iu, cycle)
	for vc := 0; vc < cfg.TotalVCs(); vc++ {
		if iu.Powered(vc) {
			t.Fatalf("VC %d still powered after gate command", vc)
		}
	}
	// Span accounting sees one powered cycle (closed by the power
	// transition) and one gated cycle once flushed.
	iu.flushNBTI(n, cycle)
	if got := iu.devs(n)[0].Tracker.StressCycles(); got != 1 {
		t.Fatalf("stress cycles = %d, want 1", got)
	}
	if got := iu.devs(n)[0].Tracker.RecoveryCycles(); got != 1 {
		t.Fatalf("recovery cycles = %d, want 1", got)
	}
}

func TestPolicyCannotGateActiveVC(t *testing.T) {
	cfg := unitConfig()
	ou, iu, n := mkChannel(t, cfg, func() Policy { return gateAll{} })
	cycle := uint64(1)
	n.tickChannel(t, ou, iu, cycle)
	vc := ou.allocVC(n, 0)
	ou.runPolicy(n, 0, cycle) // gate-all policy, but vc is active
	cycle++
	n.tickChannel(t, ou, iu, cycle)
	if !iu.Powered(vc) {
		t.Fatal("active VC was gated")
	}
	if !ou.PoweredMirror(vc) {
		t.Fatal("upstream mirror lost the active VC's power state")
	}
}

func TestMDLinkPropagation(t *testing.T) {
	cfg := unitConfig()
	cfg.Sensor.SamplePeriod = 1
	ou, iu, n := mkChannel(t, cfg, nil)
	// Force distinct Vth0 values so the comparator has a clear winner.
	iu.devs(n)[2].Vth0 = 0.25
	cycle := uint64(1)
	n.tickChannel(t, ou, iu, cycle)
	iu.publishMostDegraded(n)
	// The upstream still sees the initial value (one-cycle delay).
	if got := ou.mdIn.Current(ou.vnets(n), 0); got != 0 {
		t.Fatalf("md visible upstream without delay: %d", got)
	}
	cycle++
	n.tickChannel(t, ou, iu, cycle)
	if got := ou.mdIn.Current(ou.vnets(n), 0); got != 2 {
		t.Fatalf("md upstream = %d, want 2", got)
	}
}

func TestWakeupCountdownInMirror(t *testing.T) {
	cfg := unitConfig()
	cfg.WakeupLatency = 2
	ou, iu, n := mkChannel(t, cfg, func() Policy { return gateAll{} })
	cycle := uint64(1)
	n.tickChannel(t, ou, iu, cycle)
	// Gate everything.
	ou.runPolicy(n, 0, cycle)
	cycle++
	n.tickChannel(t, ou, iu, cycle)
	if ou.hasFreeVC(&n.cfg, 0) {
		t.Fatal("gated VCs reported free")
	}
	// Wake VC 0 via a keep-one policy decision: emulate by sending an
	// all-on mask through a baseline policy run.
	n.pol = newPolicyDomain(NewBaseline)
	ou.runPolicy(n, 1, cycle)
	// Mirror: powered but ramping (wakeLeft = 2) — not yet allocatable.
	if ou.hasFreeVC(&n.cfg, 0) {
		t.Fatal("waking VC allocatable immediately")
	}
	cycle++
	n.tickChannel(t, ou, iu, cycle)
	ou.runPolicy(n, 1, cycle) // wakeLeft 2 -> 1
	if ou.hasFreeVC(&n.cfg, 0) {
		t.Fatal("waking VC allocatable after 1 of 2 ramp cycles")
	}
	cycle++
	n.tickChannel(t, ou, iu, cycle)
	ou.runPolicy(n, 1, cycle) // wakeLeft 1 -> 0
	if !ou.hasFreeVC(&n.cfg, 0) {
		t.Fatal("VC not allocatable after ramp completed")
	}
}
