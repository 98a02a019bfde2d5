package cpu

import (
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
	f.ver = 1
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

// A load that got LoadRetryFull is parked on the state version: while
// it holds, the load never reaches Load again, yet every walked cycle
// bumps l1/miss, l2/miss and l2/mshr_full exactly as the real retry
// would. Each version change makes it probe once more, and it issues
// as soon as the memory system can take it.
func TestParkedLoadSkipsLoadWhileVersionHolds(t *testing.T) {
	const addr = 0x2000
	c, f := parkCore(t, addr)
	var now uint64
	tickUntilLoadCalls(t, c, f, &now, 1)
	if got := retryCounts(f); got != [3]uint64{1, 1, 1} {
		t.Fatalf("counters after the first retry = %v, want 1 each", got)
	}

	const walked = 10
	for i := 0; i < walked; i++ {
		c.Tick(now)
		now++
	}
	if f.loadCalls != 1 {
		t.Fatalf("parked load called Load %d more times", f.loadCalls-1)
	}
	if got, want := retryCounts(f), uint64(1+walked); got != [3]uint64{want, want, want} {
		t.Fatalf("counters after %d parked cycles = %v, want %d each", walked, got, want)
	}

	// Each invalidating event costs exactly one more Load call, which
	// re-parks the load at the new version.
	for k := 2; k <= 4; k++ {
		f.ver++
		tickUntilLoadCalls(t, c, f, &now, k)
		c.Tick(now)
		now++
		if f.loadCalls != k {
			t.Fatalf("version %d: Load called %d times, want %d", f.ver, f.loadCalls, k)
		}
	}

	// The MSHR file frees up: the next version change lets it issue.
	delete(f.full, addr)
	f.mem.WriteWord(addr, 42)
	f.ver++
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
	c.checker = false // the checker's cross-check probes on purpose

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

	// After a version change the load is no longer known to be parked:
	// quiesce must probe it again.
	f.ver++
	if _, spin := c.quiesce(now); spin.loadRetries != 1 || f.peekCalls != peeks+1 {
		t.Fatalf("after a version change: loadRetries %d, peeks %d, want 1 and %d",
			spin.loadRetries, f.peekCalls-peeks, 1)
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
	delete(f.full, addr) // the load would now issue, but ver stays put
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

// BenchmarkIssueParked times one core tick with a full 128-entry LSQ of
// ready loads against a real controller whose MSHR file is exhausted,
// with parking (the loads skip Load while the state version holds) and
// without it (a version that moves on every read forces the Load call
// each cycle, the cost parking removes).
func BenchmarkIssueParked(b *testing.B) {
	for _, bc := range []struct {
		name   string
		unpark bool
	}{{"parked", false}, {"reprobe", true}} {
		b.Run(bc.name, func(b *testing.B) {
			c, lsq := fullLSQCore(b, bc.unpark)
			if c.lsqUsed != lsq {
				b.Fatalf("LSQ holds %d entries, want %d", c.lsqUsed, lsq)
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

// movingVersion is a controller whose StateVersion never repeats, so
// no load ever stays parked.
type movingVersion struct {
	*core.Controller
	v uint64
}

func (m *movingVersion) StateVersion() uint64 { m.v++; return m.v }

// fullLSQCore builds a core whose LSQ is full of ready loads to
// distinct lines, over a controller whose bus never ticks: the first
// loads occupy every MSHR with misses that never complete, and the
// rest retry on the exhausted file every cycle. It returns the core
// and the LSQ capacity.
func fullLSQCore(b *testing.B, unpark bool) (*Core, int) {
	b.Helper()
	ctrs := stats.NewCounters()
	ic := bus.New(bus.DefaultConfig(), mem.New(), ctrs, nil)
	cfg := DefaultConfig()
	bld := isa.NewBuilder("full-lsq")
	bld.Li(isa.R1, 0x100000)
	for i := 0; i < cfg.LSQSize+16; i++ {
		bld.Ld(isa.R2, isa.R1, int64(i*mem.LineSize))
	}
	bld.Halt()
	c := New(cfg, 0, bld.Build(), nil, ctrs)
	ctrl := core.NewController(core.DefaultConfig(), ic, c, ctrs)
	var ms MemSystem = ctrl
	if unpark {
		ms = &movingVersion{Controller: ctrl}
	}
	c.SetMemSystem(ms)
	for now := uint64(0); now < 200; now++ {
		c.Tick(now)
	}
	return c, cfg.LSQSize
}
