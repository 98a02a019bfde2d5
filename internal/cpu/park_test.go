package cpu

import (
	"fmt"
	"strings"
	"testing"

	"tssim/internal/bus"
	"tssim/internal/core"
	"tssim/internal/isa"
	"tssim/internal/mem"
	"tssim/internal/stats"
)

// parkCore builds a checked core running one load of addr, on a memory
// system whose loads of addr find the MSHR file exhausted.
func parkCore(t *testing.T, addr uint64) (*Core, *fakeMem) {
	t.Helper()
	b := isa.NewBuilder("park")
	b.Li(isa.R1, int64(addr))
	b.Ld(isa.R2, isa.R1, 0)
	b.Halt()
	c, f, _ := newTestCore(t, b.Build(), false)
	f.full[addr] = true
	f.ver, f.retryVer = 1, 1
	return c, f
}

// tickUntilLoadCalls ticks c from *now until f has seen n Load calls.
func tickUntilLoadCalls(t *testing.T, c *Core, f *fakeMem, now *uint64, n int) {
	t.Helper()
	for i := 0; i < 100 && f.loadCalls < n; i++ {
		c.Tick(*now)
		*now++
	}
	if f.loadCalls != n {
		t.Fatalf("Load called %d times, want %d", f.loadCalls, n)
	}
}

// retryCounts returns the three counters a counted retry bumps.
func retryCounts(f *fakeMem) [3]uint64 {
	return [3]uint64{f.ctrs.Get("l1/miss"), f.ctrs.Get("l2/miss"), f.ctrs.Get("l2/mshr_full")}
}

// A load that got LoadRetryFull is parked on the retry version: while
// it holds, neither the tick nor the horizon probe calls Load or
// PeekLoad for it, even though the state version moves every cycle,
// yet every cycle bumps l1/miss, l2/miss and l2/mshr_full exactly as
// the real retry would. Each retry-version change makes it probe once
// more, and it issues as soon as the memory system can take it.
func TestParkedLoadSkipsLoadWhileVersionHolds(t *testing.T) {
	const addr = 0x2000
	c, f := parkCore(t, addr)
	c.checker = false // the checker's cross-check probes on purpose
	var now uint64
	tickUntilLoadCalls(t, c, f, &now, 1)
	if got := retryCounts(f); got != [3]uint64{1, 1, 1} {
		t.Fatalf("counters after the first retry = %v, want 1 each", got)
	}

	const walked = 10
	peeks := f.peekCalls
	for i := 0; i < walked; i++ {
		f.ver++
		c.NextEvent(now)
		c.Tick(now)
		now++
	}
	if f.loadCalls != 1 || f.peekCalls != peeks {
		t.Fatalf("parked load called Load %d and PeekLoad %d more times", f.loadCalls-1, f.peekCalls-peeks)
	}
	if got, want := retryCounts(f), uint64(1+walked); got != [3]uint64{want, want, want} {
		t.Fatalf("counters after %d parked cycles = %v, want %d each", walked, got, want)
	}

	// Each retry-version change costs exactly one more Load call, which
	// parks the load again at the new version.
	for k := 2; k <= 4; k++ {
		f.retryVer++
		tickUntilLoadCalls(t, c, f, &now, k)
		c.Tick(now)
		now++
		if f.loadCalls != k {
			t.Fatalf("retry version %d: Load called %d times, want %d", f.retryVer, f.loadCalls, k)
		}
	}

	// The MSHR file frees up: the next version change lets it issue.
	delete(f.full, addr)
	f.mem.WriteWord(addr, 42)
	f.retryVer++
	run(t, c, int(now)+100)
	if got := c.Reg(isa.R2); got != 42 {
		t.Fatalf("r2 = %d, want 42", got)
	}
}

// quiesce counts a parked load as one counted retry per cycle without
// probing the memory system.
func TestQuiesceCountsParkedLoadWithoutPeek(t *testing.T) {
	const addr = 0x2000
	c, f := parkCore(t, addr)
	var now uint64
	tickUntilLoadCalls(t, c, f, &now, 1)
	for i := 0; i < 5; i++ { // let the older Li retire
		c.Tick(now)
		now++
	}
	c.checker = false

	peeks := f.peekCalls
	next, spin := c.quiesce(now)
	if next == now {
		t.Fatal("a core whose only load is parked must be quiescent")
	}
	if spin.loadRetries != 1 {
		t.Fatalf("spin.loadRetries = %d, want 1", spin.loadRetries)
	}
	if f.peekCalls != peeks {
		t.Fatalf("quiesce probed a parked load %d times", f.peekCalls-peeks)
	}

	// After a retry-version change the load is woken: quiesce must
	// probe it again.
	f.retryVer++
	if _, spin := c.quiesce(now); spin.loadRetries != 1 || f.peekCalls != peeks+1 {
		t.Fatalf("after a version change: loadRetries %d, peeks %d, want 1 and %d",
			spin.loadRetries, f.peekCalls-peeks, 1)
	}
	if len(c.parkQ) != 0 {
		t.Fatalf("%d loads still parked after the version moved", len(c.parkQ))
	}
}

// Under the commit checker a parked load whose probe no longer agrees
// with its park key stops the run: the version failed to move on an
// event that changed what Load would do.
func TestParkedLoadCrossCheckPanics(t *testing.T) {
	const addr = 0x2000
	c, f := parkCore(t, addr)
	var now uint64
	tickUntilLoadCalls(t, c, f, &now, 1)
	delete(f.full, addr) // the load would now issue, but the version stays put
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("stale park key went unnoticed")
		}
		if msg, _ := r.(string); !strings.Contains(msg, "parked load") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	c.Tick(now)
}

// cannedWindow fills a checked core's window by hand with the given
// entries in seq order (1, 2, ...): 'P' a load to a word whose loads
// find the MSHR file exhausted, 'H' a load that hits, 'A' an ALU op.
// Only the 'P' loads are ready; the rest wait on one operand until
// wakeRest. It returns the core, its memory and the entries.
func cannedWindow(t *testing.T, shape string) (*Core, *fakeMem, []*entry) {
	t.Helper()
	c, f := scanCore(t)
	f.ver, f.retryVer = 1, 1
	var es []*entry
	for i, k := range shape {
		seq := uint64(i + 1)
		var e *entry
		switch k {
		case 'P', 'H':
			addr := 0x1000 + seq*mem.LineSize
			if k == 'P' {
				f.full[addr] = true
			}
			e = addScanLoad(c, seq, addr)
			c.lsqUsed++
			if k == 'H' {
				e.srcReady[0], e.pendingSrcs = false, 1
			}
		case 'A':
			e = &entry{seq: seq, ins: isa.Instr{Op: isa.OpAddi, Rd: isa.R3}, nSrc: 1, pendingSrcs: 1}
			c.ruu = append(c.ruu, e)
		default:
			t.Fatalf("bad shape letter %q", k)
		}
		es = append(es, e)
		if e.pendingSrcs == 0 {
			c.enqueueReady(e)
		}
	}
	c.nextSeq = uint64(len(shape))
	return c, f, es
}

// wakeRest readies every waiting entry of a canned window at once.
func wakeRest(c *Core, es []*entry) {
	for _, e := range es {
		if e.pendingSrcs != 0 {
			e.pendingSrcs = 0
			e.srcReady[0] = true
			c.enqueueReady(e)
		}
	}
}

// When IssueWidth or MemPorts runs out mid-window, the walk reaches
// only the parked loads older than the entry that used it up: exactly
// those are counted, once each, in all three counters.
func TestParkedLoadsCountedUpToTheCut(t *testing.T) {
	for _, tc := range []struct {
		name      string
		shape     string
		width     int
		ports     int
		wantCount uint64 // parked loads the second walk reaches
	}{
		// The fourth ALU op (seq 7) uses up the width: P1, P3, P6 are
		// reached, P8 is not.
		{"issue-width", "PAPAAPAPA", 4, 4, 3},
		// The second hit (seq 5) uses up both memory ports: P1 and P3
		// are reached, P6 and P8 are not, though ALU ops still issue.
		{"mem-ports", "PHPAHPAPA", 8, 2, 2},
		// Nothing runs out: every parked load is reached.
		{"room", "PAPAAPAPA", 8, 4, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, f, es := cannedWindow(t, tc.shape)
			c.cfg.IssueWidth, c.cfg.MemPorts = tc.width, tc.ports
			nParked := uint64(strings.Count(tc.shape, "P"))

			// First walk: only the 'P' loads are ready; they probe and park.
			c.issue()
			if uint64(f.loadCalls) != nParked {
				t.Fatalf("first walk made %d Load calls, want %d", f.loadCalls, nParked)
			}
			if got := retryCounts(f); got != [3]uint64{nParked, nParked, nParked} {
				t.Fatalf("after the first walk: counters %v, want %d each", got, nParked)
			}
			if uint64(len(c.parkQ)) != nParked {
				t.Fatalf("%d loads parked, want %d", len(c.parkQ), nParked)
			}

			// Second walk: the ALU ops and the hits compete for width
			// and ports; only the hits call Load.
			wakeRest(c, es)
			calls := f.loadCalls
			c.issue()
			if got, want := f.loadCalls-calls, strings.Count(tc.shape, "H"); got != want {
				t.Fatalf("second walk called Load %d times, want %d", got, want)
			}
			want := nParked + tc.wantCount
			if got := retryCounts(f); got != [3]uint64{want, want, want} {
				t.Fatalf("after the second walk: counters %v, want %d each", got, want)
			}
		})
	}
}

// A squash kills the parked loads younger than the squash point and
// trims them from the parked set, so the count stays exact and the
// checker's liveness check holds.
func TestSquashTrimsParkedLoads(t *testing.T) {
	c, f, _ := cannedWindow(t, "PAPAAPAP")
	c.issue()
	if len(c.parkQ) != 4 {
		t.Fatalf("%d loads parked, want 4", len(c.parkQ))
	}
	c.squashAfter(4, 0) // kills seqs 5..8: P6 and P8
	c.fetchStop = true  // keep quiesce from reporting a fetch
	if len(c.parkQ) != 2 || c.parkQ[0].seq != 1 || c.parkQ[1].seq != 3 {
		t.Fatalf("parked set after the squash = %v, want seqs 1 and 3", c.parkQ)
	}
	before := retryCounts(f)
	c.issue() // the checker panics on a dead parked entry
	if got := retryCounts(f); got[2]-before[2] != 2 {
		t.Fatalf("walk after the squash counted %d retries, want 2", got[2]-before[2])
	}
	if _, spin := c.quiesce(c.now); spin.loadRetries != 2 {
		t.Fatalf("quiesce counted %d retries, want 2", spin.loadRetries)
	}
}

// BenchmarkIssueParked times one core tick with 32 and with 128 ready
// loads parked behind an exhausted MSHR file of a real controller: the
// parked set makes the cost independent of their number. reprobe-128
// moves the retry version on every read, so every load calls Load each
// cycle, the cost parking removes.
func BenchmarkIssueParked(b *testing.B) {
	for _, bc := range []struct {
		parked int
		unpark bool
	}{{32, false}, {128, false}, {128, true}} {
		name := fmt.Sprintf("parked-%d", bc.parked)
		if bc.unpark {
			name = fmt.Sprintf("reprobe-%d", bc.parked)
		}
		b.Run(name, func(b *testing.B) {
			c := fullLSQCore(b, bc.parked, bc.unpark)
			if !bc.unpark && len(c.parkQ) != bc.parked {
				b.Fatalf("%d loads parked, want %d", len(c.parkQ), bc.parked)
			}
			now := c.now + 1
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Tick(now)
				now++
			}
		})
	}
}

// movingVersion is a controller whose RetryVersion never repeats, so
// no load ever stays parked.
type movingVersion struct {
	*core.Controller
	v uint64
}

func (m *movingVersion) RetryVersion() uint64 { m.v++; return m.v }

// fullLSQCore builds a core whose LSQ is full of ready loads to
// distinct lines, over a controller whose bus never ticks: the first
// loads occupy every MSHR with misses that never complete, and the
// other parked loads retry on the exhausted file.
func fullLSQCore(b *testing.B, parked int, unpark bool) *Core {
	b.Helper()
	ctrs := stats.NewCounters()
	ic := bus.New(bus.DefaultConfig(), mem.New(), ctrs, nil)
	ccfg := core.DefaultConfig()
	cfg := DefaultConfig()
	cfg.LSQSize = ccfg.MSHRs + parked
	bld := isa.NewBuilder("full-lsq")
	bld.Li(isa.R1, 0x100000)
	for i := 0; i < cfg.LSQSize+16; i++ {
		bld.Ld(isa.R2, isa.R1, int64(i*mem.LineSize))
	}
	bld.Halt()
	c := New(cfg, 0, bld.Build(), nil, ctrs)
	ctrl := core.NewController(ccfg, ic, c, ctrs)
	var ms MemSystem = ctrl
	if unpark {
		ms = &movingVersion{Controller: ctrl}
	}
	c.SetMemSystem(ms)
	for now := uint64(0); now < 200; now++ {
		c.Tick(now)
	}
	return c
}
