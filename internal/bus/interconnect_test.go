package bus

import (
	"strings"
	"testing"

	"tssim/internal/mem"
	"tssim/internal/stats"
)

// attachPorts registers n fakePorts on any backend.
func attachPorts(ic Interconnect, n int) []*fakePort {
	ports := make([]*fakePort, n)
	for i := range ports {
		ports[i] = &fakePort{grantOK: true}
		ports[i].id = ic.Attach(ports[i])
	}
	return ports
}

func testSplit(nports int, cfg Config) (*SplitBus, []*fakePort, *mem.Memory) {
	m := mem.New()
	sb := NewSplit(cfg, m, stats.NewCounters(), nil)
	return sb, attachPorts(sb, nports), m
}

func testDir(nports int, cfg Config) (*Directory, []*fakePort, *mem.Memory) {
	m := mem.New()
	d := NewDirectory(cfg, m, stats.NewCounters(), nil)
	return d, attachPorts(d, nports), m
}

func runIC(ic Interconnect, from, to uint64) {
	for now := from; now <= to; now++ {
		ic.Tick(now)
	}
}

func TestInterconnectFactory(t *testing.T) {
	for _, kind := range append([]string{""}, Kinds()...) {
		ic, err := NewInterconnect(kind, fastCfg(), mem.New(), nil, nil)
		if err != nil {
			t.Fatalf("kind %q: %v", kind, err)
		}
		if ic == nil {
			t.Fatalf("kind %q: nil backend", kind)
		}
		if !ValidKind(kind) {
			t.Fatalf("ValidKind(%q) = false", kind)
		}
	}
	if _, err := NewInterconnect("hypercube", fastCfg(), mem.New(), nil, nil); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if ValidKind("hypercube") {
		t.Fatal("ValidKind accepted unknown kind")
	}
}

// CheckNodes accepts 1..64 nodes on every backend and more only off
// the directory, whose sharer masks are one uint64.
func TestCheckNodes(t *testing.T) {
	for _, kind := range append([]string{""}, Kinds()...) {
		for _, n := range []int{-3, 0, 1, 4, 64, 65} {
			wantOK := n >= 1 && (n <= 64 || kind != KindDirectory)
			if err := CheckNodes(kind, n); (err == nil) != wantOK {
				t.Errorf("CheckNodes(%q, %d) = %v, want ok=%v", kind, n, err, wantOK)
			}
		}
	}
}

// The split bus arbitrates the data network at payload-ready time: a
// lone read pays grant + source latency, then occupies the data bus.
func TestSplitBusSingleReadLatency(t *testing.T) {
	sb, ports, _ := testSplit(2, fastCfg())
	sb.Request(&Txn{Type: TxnRead, Addr: 0x1000, Src: 0})
	runIC(sb, 0, 30)
	if len(ports[0].completed) != 1 {
		t.Fatalf("completions = %d", len(ports[0].completed))
	}
	// grant@0, payload ready at 0+10, transfer ends 10+3.
	if got := ports[0].completed[0].doneAt; got != 13 {
		t.Fatalf("doneAt = %d, want 13", got)
	}
}

// Back-to-back reads pipeline: the second address phase overlaps the
// first transfer, and the second transfer queues behind the first on
// the data network.
func TestSplitBusDataPipelines(t *testing.T) {
	sb, ports, _ := testSplit(2, fastCfg())
	sb.Request(&Txn{Type: TxnRead, Addr: 0x1000, Src: 0})
	sb.Request(&Txn{Type: TxnRead, Addr: 0x2000, Src: 0})
	runIC(sb, 0, 40)
	if len(ports[0].completed) != 2 {
		t.Fatalf("completions = %d", len(ports[0].completed))
	}
	d0, d1 := ports[0].completed[0].doneAt, ports[0].completed[1].doneAt
	// First: grant@0, ready 10, done 13. Second: grant@2, ready 12,
	// data bus free at 13, done 16.
	if d0 != 13 || d1 != 16 {
		t.Fatalf("doneAt = %d,%d; want 13,16", d0, d1)
	}
}

// MaxOutstanding bounds in-flight transactions: address grants stall
// at capacity and resume as deliveries free slots; nothing is lost.
func TestSplitBusBoundedOutstanding(t *testing.T) {
	cfg := fastCfg()
	cfg.MaxOutstanding = 2
	sb, ports, _ := testSplit(8, cfg)
	for i := 0; i < 8; i++ {
		sb.Request(&Txn{Type: TxnRead, Addr: uint64(0x1000 * (i + 1)), Src: i})
	}
	maxInflight := 0
	for now := uint64(0); now <= 300; now++ {
		sb.Tick(now)
		if n := len(sb.inflight); n > maxInflight {
			maxInflight = n
		}
	}
	if maxInflight != 2 {
		t.Fatalf("max in-flight = %d, want exactly the bound 2", maxInflight)
	}
	for i, p := range ports {
		if len(p.completed) != 1 {
			t.Fatalf("node %d: %d completions, want 1", i, len(p.completed))
		}
	}
	if !sb.Idle() {
		t.Fatal("split bus not idle after drain")
	}
}

// At capacity the fast-forward horizon must not claim a grant can
// happen now: the next observable event is the oldest delivery.
func TestSplitBusNextEventAtCapacity(t *testing.T) {
	cfg := fastCfg()
	cfg.MaxOutstanding = 1
	sb, _, _ := testSplit(2, cfg)
	sb.Request(&Txn{Type: TxnRead, Addr: 0x1000, Src: 0})
	sb.Tick(0) // granted; done at 13
	sb.Request(&Txn{Type: TxnRead, Addr: 0x2000, Src: 1})
	if got := sb.NextEvent(1); got != 13 {
		t.Fatalf("NextEvent at capacity = %d, want 13 (the delivery)", got)
	}
}

func TestSplitBusDefaultBound(t *testing.T) {
	sb, _, _ := testSplit(2, fastCfg())
	if sb.MaxOutstanding() != DefaultMaxOutstanding {
		t.Fatalf("default bound = %d, want %d", sb.MaxOutstanding(), DefaultMaxOutstanding)
	}
}

// dirCfg is fastCfg with a distinctive per-target ack latency.
func dirCfg() Config {
	cfg := fastCfg()
	cfg.AckPerTarget = 5
	return cfg
}

// snoops returns each port's snoop count (probe-set assertions).
func snoops(ports []*fakePort) []int {
	out := make([]int, len(ports))
	for i, p := range ports {
		out[i] = len(p.snooped)
	}
	return out
}

// A read of an uncached line probes nobody (broadcast would snoop
// N-1), and a subsequent read probes exactly the exclusive installer —
// the silent E->M window that forces owner tracking on clean-exclusive
// installs.
func TestDirectoryReadProbesOnlyOwner(t *testing.T) {
	d, ports, _ := testDir(8, dirCfg())
	d.Request(&Txn{Type: TxnRead, Addr: 0x1000, Src: 0})
	runIC(d, 0, 30)
	for i, n := range snoops(ports) {
		if n != 0 {
			t.Fatalf("uncached read probed node %d", i)
		}
	}
	if ports[0].completed[0].Shared {
		t.Fatal("first read must install exclusive (not shared)")
	}

	// Node 0 installed E and may have stored silently: simulate the M
	// supply on probe.
	var dirty mem.Line
	dirty.SetWord(0, 777)
	ports[0].snoopResp = SnoopReply{Shared: true, Data: &dirty}
	d.Request(&Txn{Type: TxnRead, Addr: 0x1000, Src: 1})
	runIC(d, 31, 60)
	got := snoops(ports)
	if got[0] != 1 {
		t.Fatalf("owner not probed: %v", got)
	}
	for i := 2; i < 8; i++ {
		if got[i] != 0 {
			t.Fatalf("bystander %d probed: %v", i, got)
		}
	}
	c := ports[1].completed[0]
	if !c.Owned || c.Data.Word(0) != 777 {
		t.Fatalf("dirty data not delivered: owned=%v word0=%d", c.Owned, c.Data.Word(0))
	}
	// Supplier stays owner of record (M->O): a third read probes it
	// again.
	d.Request(&Txn{Type: TxnRead, Addr: 0x1000, Src: 2})
	runIC(d, 61, 90)
	if n := len(ports[0].snooped); n != 2 {
		t.Fatalf("owner probed %d times, want 2", n)
	}
}

// An invalidating request probes every sharer and T-set member, pays
// AckPerTarget per probe, and moves the probed set to the T-set so
// later validates reach them.
func TestDirectoryInvalidationProbeSetAndAckTiming(t *testing.T) {
	d, ports, _ := testDir(8, dirCfg())
	now := uint64(0)
	phase := func(tx *Txn) uint64 {
		grant := now
		d.Request(tx)
		runIC(d, now, now+60)
		now += 61
		return grant
	}
	for i := 1; i <= 3; i++ {
		phase(&Txn{Type: TxnRead, Addr: 0x2000, Src: i})
	}
	before := snoops(ports)

	g := phase(&Txn{Type: TxnReadX, Addr: 0x2000, Src: 0})
	after := snoops(ports)
	for i := 1; i <= 3; i++ {
		if after[i] != before[i]+1 {
			t.Fatalf("sharer %d not probed: %v -> %v", i, before, after)
		}
	}
	for i := 4; i < 8; i++ {
		if after[i] != 0 {
			t.Fatalf("bystander %d probed", i)
		}
	}
	// Ack fan-in outlasts the memory transfer: doneAt = grant + addr
	// latency + 3 targets * 5 ack > grant + 10 mem latency.
	rx := ports[0].completed[len(ports[0].completed)-1]
	if want := g + 4 + 15; rx.doneAt != want {
		t.Fatalf("readx doneAt = %d, want %d (ack floor)", rx.doneAt, want)
	}
	e := d.line(0x2000)
	if e.owner != 0 || e.sharers != 1 || e.tset != 0b1110 {
		t.Fatalf("post-readx entry owner=%d sharers=%#x tset=%#x", e.owner, e.sharers, e.tset)
	}

	// Validate multicasts to the T-set only, same per-target ack cost.
	g = phase(&Txn{Type: TxnValidate, Addr: 0x2000, Src: 0})
	val := ports[0].completed[len(ports[0].completed)-1]
	if val.Type != TxnValidate {
		t.Fatalf("last completion %s, want validate", val.Type)
	}
	if want := g + 4 + 15; val.doneAt != want {
		t.Fatalf("validate doneAt = %d, want %d", val.doneAt, want)
	}
	if e.sharers != 0b1111 || e.tset != 0 {
		t.Fatalf("post-validate entry sharers=%#x tset=%#x", e.sharers, e.tset)
	}

	// A second validate has nobody left to reach: address latency only.
	g = phase(&Txn{Type: TxnValidate, Addr: 0x2000, Src: 0})
	val2 := ports[0].completed[len(ports[0].completed)-1]
	if want := g + 4; val2.doneAt != want {
		t.Fatalf("empty validate doneAt = %d, want %d", val2.doneAt, want)
	}
}

// A writeback moves the evictor to the T-set instead of forgetting it:
// it may still hold an LL reservation, so a later invalidating request
// must still probe (and kill) it.
func TestDirectoryWritebackKeepsEvictorProbeable(t *testing.T) {
	d, ports, m := testDir(8, dirCfg())
	d.Request(&Txn{Type: TxnRead, Addr: 0x3000, Src: 0})
	runIC(d, 0, 30)
	wb := &Txn{Type: TxnWriteback, Addr: 0x3000, Src: 0}
	wb.WData.SetWord(1, 42)
	d.Request(wb)
	runIC(d, 31, 60)
	if m.ReadWord(0x3008) != 42 {
		t.Fatal("writeback did not reach memory")
	}
	e := d.line(0x3000)
	if e.owner != -1 || e.sharers != 0 || e.tset != 1 {
		t.Fatalf("post-writeback entry owner=%d sharers=%#x tset=%#x", e.owner, e.sharers, e.tset)
	}
	d.Request(&Txn{Type: TxnReadX, Addr: 0x3000, Src: 1})
	runIC(d, 61, 90)
	if n := len(ports[0].snooped); n != 1 {
		t.Fatalf("evictor probed %d times, want 1 (reservation-kill window)", n)
	}
}

// The useful-snoop-response bit (E-MESTI's predictor training signal)
// must combine from probe replies only — a stale sharer mask must not
// synthesize it, or VS holders' withheld responses would be overridden
// and the validate predictor would train on fiction.
func TestDirectoryUsefulResponseFromRepliesOnly(t *testing.T) {
	d, ports, _ := testDir(8, dirCfg())
	now := uint64(0)
	phase := func(tx *Txn) {
		d.Request(tx)
		runIC(d, now, now+60)
		now += 61
	}
	phase(&Txn{Type: TxnRead, Addr: 0x4000, Src: 0})
	phase(&Txn{Type: TxnRead, Addr: 0x4000, Src: 1})

	// Node 1 is in the sharer mask but withholds the response (VS
	// semantics): the upgrade must observe Shared=false.
	phase(&Txn{Type: TxnUpgrade, Addr: 0x4000, Src: 0})
	up := ports[0].completed[len(ports[0].completed)-1]
	if up.Type != TxnUpgrade || up.Shared {
		t.Fatalf("upgrade %s shared=%v, want silent (reply-combined)", up.Type, up.Shared)
	}
	if n := len(ports[1].snooped); n != 1 {
		t.Fatalf("sharer probed %d times, want 1", n)
	}

	// Same shape with an asserting sharer: the bit passes through.
	phase(&Txn{Type: TxnRead, Addr: 0x5000, Src: 0})
	phase(&Txn{Type: TxnRead, Addr: 0x5000, Src: 1})
	ports[1].snoopResp = SnoopReply{Shared: true}
	phase(&Txn{Type: TxnUpgrade, Addr: 0x5000, Src: 0})
	up = ports[0].completed[len(ports[0].completed)-1]
	if !up.Shared {
		t.Fatal("asserting sharer's response lost")
	}
}

// Two probe replies supplying data is the same protocol violation on
// the directory as on the bus: latch, don't panic.
func TestDirectoryTwoOwnersLatchesError(t *testing.T) {
	d, ports, _ := testDir(4, dirCfg())
	now := uint64(0)
	phase := func(tx *Txn) {
		d.Request(tx)
		runIC(d, now, now+60)
		now += 61
	}
	phase(&Txn{Type: TxnRead, Addr: 0x6000, Src: 1})
	phase(&Txn{Type: TxnRead, Addr: 0x6000, Src: 2})
	var l mem.Line
	ports[1].snoopResp = SnoopReply{Data: &l}
	ports[2].snoopResp = SnoopReply{Data: &l}
	phase(&Txn{Type: TxnReadX, Addr: 0x6000, Src: 0})
	if err := d.Err(); err == nil || !strings.Contains(err.Error(), "two owners") {
		t.Fatalf("Err = %v, want two-owner latch", err)
	}
}

func TestDirectoryAttachBounded(t *testing.T) {
	d, _, _ := testDir(dirMaxNodes, dirCfg())
	defer func() {
		if recover() == nil {
			t.Fatalf("node %d accepted beyond the sharer-vector width", dirMaxNodes)
		}
	}()
	d.Attach(&fakePort{grantOK: true})
}

// Arbitration fairness beyond 4 ports: ArbStart picks the first
// contended winner mod N and rotation continues from there — the
// enumeration grid's arbitration knob must stay exact at 8 nodes.
func TestArbStartRotatesEightPorts(t *testing.T) {
	const n = 8
	for arb := 0; arb < n+2; arb++ {
		cfg := fastCfg()
		cfg.ArbStart = arb
		b, ports, _, _ := testBus(n, cfg)
		for i := 0; i < n; i++ {
			b.Request(&Txn{Type: TxnUpgrade, Addr: uint64(0x1000 * (i + 1)), Src: i})
		}
		run(b, 0, 2*n) // grants every AddrOccupancy=2 cycles
		first := arb % n
		for k := 0; k < n; k++ {
			node := (first + k) % n
			if len(ports[node].granted) != 1 {
				t.Fatalf("arb=%d: node %d granted %d times", arb, node, len(ports[node].granted))
			}
			want := uint64(2*k) + uint64(cfg.AddrLatency)
			if got := ports[node].granted[0].doneAt; got != want {
				t.Fatalf("arb=%d: node %d doneAt = %d, want %d", arb, node, got, want)
			}
		}
	}
}

// Broadcast snoop combining at 16 ports: all 15 remote sharers are
// snooped exactly once and one asserted Shared is enough; with every
// holder withholding (the all-VS abort case), the combined response
// stays silent.
func TestSnoopCombineFifteenSharers(t *testing.T) {
	b, ports, _, _ := testBus(16, fastCfg())
	for i := 1; i < 16; i++ {
		ports[i].snoopResp = SnoopReply{Shared: true}
	}
	b.Request(&Txn{Type: TxnReadX, Addr: 0x1000, Src: 0})
	run(b, 0, 30)
	for i := 1; i < 16; i++ {
		if len(ports[i].snooped) != 1 {
			t.Fatalf("port %d snooped %d times", i, len(ports[i].snooped))
		}
	}
	if !ports[0].completed[0].Shared {
		t.Fatal("15-sharer assertion lost in combining")
	}

	// All-VS: every holder withholds the useful response.
	b2, ports2, _, _ := testBus(8, fastCfg())
	b2.Request(&Txn{Type: TxnUpgrade, Addr: 0x2000, Src: 0})
	run(b2, 0, 30)
	if ports2[0].completed[0].Shared {
		t.Fatal("silent snoop round must combine to not-shared")
	}
	for i := 1; i < 8; i++ {
		if len(ports2[i].snooped) != 1 {
			t.Fatalf("port %d snooped %d times", i, len(ports2[i].snooped))
		}
	}
}
