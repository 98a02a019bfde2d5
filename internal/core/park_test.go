package core

import (
	"testing"

	"tssim/internal/bus"
	"tssim/internal/mem"
	"tssim/internal/stats"
)

// A load that finds the MSHR file exhausted answers LoadRetryFull
// after bumping exactly l1/miss, l2/miss and l2/mshr_full, changes no
// state version, and PeekLoad agrees it is a counted retry.
func TestLoadRetryFullOnExhaustedMSHRs(t *testing.T) {
	h := newHarness(t, 1, nil)
	n := h.nodes[0]
	for i := 0; i < n.mshrs.Cap(); i++ {
		if r := n.Load(h.seq(), uint64(0x10000+i*0x1000), false); r.Status != LoadMiss {
			t.Fatalf("load %d status = %v, want miss", i, r.Status)
		}
	}
	const la = 0x80000 // a line outside the outstanding misses
	names := []string{"l1/miss", "l2/miss", "l2/mshr_full"}
	before := make([]uint64, len(names))
	for i, k := range names {
		before[i] = h.ctrs.Get(k)
	}
	ver := n.StateVersion()
	if r := n.Load(h.seq(), la, false); r.Status != LoadRetryFull {
		t.Fatalf("status = %v, want LoadRetryFull", r.Status)
	}
	for i, k := range names {
		if got := h.ctrs.Get(k) - before[i]; got != 1 {
			t.Errorf("%s moved by %d, want 1", k, got)
		}
	}
	if n.StateVersion() != ver {
		t.Fatal("a counted retry moved the state version")
	}
	if p := n.PeekLoad(la); p != LoadProbeRetryCounted {
		t.Fatalf("PeekLoad = %v, want LoadProbeRetryCounted", p)
	}
}

// The state version starts non-zero and moves on every event a Load
// could observe that arrives without a Client callback to the core:
// store-buffer pushes, snooped remote transactions, an allocating SLE
// prefetch and an SLE commit. A refused prefetch or commit changes
// nothing and leaves it alone.
func TestStateVersionMovesOnLoadVisibleEvents(t *testing.T) {
	h := newHarness(t, 2, nil)
	n := h.nodes[0]
	if n.StateVersion() == 0 {
		t.Fatal("state version starts at zero")
	}
	moves := func(what string, want bool, fn func()) {
		t.Helper()
		v := n.StateVersion()
		fn()
		if got := n.StateVersion() != v; got != want {
			t.Errorf("%s: version moved = %v, want %v", what, got, want)
		}
	}
	moves("StoreCommit", true, func() { n.StoreCommit(h.seq(), 0, 0x1000, 1) })
	h.drain()
	moves("SCExecute", true, func() { n.SCExecute(h.seq(), 0, 0x1000, 2) })
	h.drain()
	moves("remote snoop", true, func() {
		h.nodes[1].Load(h.seq(), 0x3000, false)
		for i := 0; i < 100 && !h.bus.Idle(); i++ {
			h.bus.Tick(h.now)
			h.now++
		}
	})
	moves("SLE commit refused", false, func() { n.SLECommitStores([]SpecStore{{Addr: 0x5000, Value: 1}}) })
	moves("SLE prefetch", true, func() { n.PrefetchExclusive(0x5000) })
	h.drain()
	moves("SLE prefetch of a writable line", false, func() { n.PrefetchExclusive(0x5000) })
	moves("SLE commit", true, func() { n.SLECommitStores([]SpecStore{{Addr: 0x5000, Value: 3}}) })
}

// The retry version starts at 1 and moves only on the events that can
// change a LoadRetryFull answer for a load with no older-store
// conflict: an MSHR free, a T line revalidated to S (MESTI) or VS
// (E-MESTI), an allocating SLE prefetch and a performing SLE commit.
// Store-buffer pushes and pops and a plain remote read snoop leave it
// alone. Every move is also a state-version move, which the core's
// cached horizon relies on.
func TestRetryVersionMovesOnRetryVisibleEvents(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   func(int, *Config)
		state State // the revalidated remote copy
		train bool  // the cold E-MESTI predictor suppresses the first validate
	}{{"mesti", mestiCfg, StateS, false}, {"emesti", emestiCfg, StateVS, true}} {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t, 2, tc.cfg)
			if v := h.nodes[0].RetryVersion(); v != 1 {
				t.Fatalf("retry version starts at %d, want 1", v)
			}
			moves := func(node int, what string, want bool, fn func()) {
				t.Helper()
				n := h.nodes[node]
				rv, sv := n.RetryVersion(), n.StateVersion()
				fn()
				moved := n.RetryVersion() != rv
				if moved != want {
					t.Errorf("%s: retry version moved = %v, want %v", what, moved, want)
				}
				if moved && n.StateVersion() == sv {
					t.Errorf("%s: retry version moved without the state version", what)
				}
			}
			n := h.nodes[0]
			moves(0, "MSHR free", true, func() {
				if r := n.Load(h.seq(), 0x1000, false); r.Status != LoadMiss {
					t.Fatalf("cold load status %v, want miss", r.Status)
				}
				h.drain()
			})
			h.store(0, 0x1000, 1) // node 0 now holds 0x1000 in M
			moves(0, "StoreCommit", false, func() { n.StoreCommit(h.seq(), 0, 0x1000, 2) })
			moves(0, "popStore", false, func() { h.tick(1) })
			if !n.StoreBufEmpty() {
				t.Fatal("the store to an M line did not drain in one tick")
			}
			moves(0, "remote read snoop", false, func() {
				h.nodes[1].Load(h.seq(), 0x1000, false)
				h.drain()
			})

			setupLockSharing(h, 0x5000) // node 1's copy goes to T
			if tc.train {
				h.store(0, 0x5000, 0) // suppressed
				h.loadValue(1, 0x5000)
				h.store(0, 0x5000, 1) // confident now; node 1 back in T
			}
			if s := h.nodes[1].LineState(0x5000); s != StateT {
				t.Fatalf("remote state = %s, want T", StateName(s))
			}
			moves(1, "revalidating validate snoop", true, func() { h.store(0, 0x5000, 0) })
			if s := h.nodes[1].LineState(0x5000); s != tc.state {
				t.Fatalf("revalidated state = %s, want %s", StateName(s), StateName(tc.state))
			}

			moves(0, "SLE prefetch", true, func() { n.PrefetchExclusive(0x7000) })
			h.drain()
			moves(0, "SLE commit", true, func() { n.SLECommitStores([]SpecStore{{Addr: 0x7000, Value: 3}}) })
		})
	}
}

// sinkBus is an interconnect that drops every request, so a benchmark
// can repeat a miss without the bus queue growing.
type sinkBus struct {
	bus.Interconnect
	txn bus.Txn
}

func (s *sinkBus) NewTxn() *bus.Txn { s.txn = bus.Txn{}; return &s.txn }
func (s *sinkBus) Request(*bus.Txn) {}

// BenchmarkControllerLoad times Controller.Load on the default node
// configuration in its four regimes: an L1 hit; an L2 miss that
// allocates an MSHR and issues a request (the benchmark frees the entry
// again each iteration); a merge onto an outstanding miss (the waiter
// list is reset each iteration); and a miss that finds the MSHR file
// exhausted, the retry a parked load skips.
func BenchmarkControllerLoad(b *testing.B) {
	newNode := func() *Controller {
		ctrs := stats.NewCounters()
		sb := &sinkBus{Interconnect: bus.New(bus.DefaultConfig(), mem.New(), ctrs, nil)}
		return NewController(DefaultConfig(), sb, newTestClient(), ctrs)
	}
	const base = 0x100000
	b.Run("hit", func(b *testing.B) {
		c := newNode()
		c.installL2(base, mem.Line{}, StateE)
		c.fillL1(base)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if r := c.Load(uint64(i), base, false); r.Status != LoadHit {
				b.Fatalf("status %v, want hit", r.Status)
			}
		}
	})
	b.Run("miss", func(b *testing.B) {
		c := newNode()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			la := uint64(base + (i%1024)*mem.LineSize)
			if r := c.Load(uint64(i), la, false); r.Status != LoadMiss {
				b.Fatalf("status %v, want miss", r.Status)
			}
			c.mshrs.Free(c.mshrs.Lookup(la))
		}
	})
	b.Run("merge", func(b *testing.B) {
		c := newNode()
		c.Load(0, base, false)
		m := c.mshrs.Lookup(base)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if r := c.Load(uint64(i), base+8, false); r.Status != LoadMiss {
				b.Fatalf("status %v, want miss", r.Status)
			}
			m.Waiters = m.Waiters[:0]
		}
	})
	b.Run("mshr-full", func(b *testing.B) {
		c := newNode()
		for i := 0; i < c.mshrs.Cap(); i++ {
			c.Load(uint64(i), uint64(base+i*mem.LineSize), false)
		}
		la := uint64(base + c.mshrs.Cap()*mem.LineSize)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if r := c.Load(uint64(i), la, false); r.Status != LoadRetryFull {
				b.Fatalf("status %v, want LoadRetryFull", r.Status)
			}
		}
	})
}
