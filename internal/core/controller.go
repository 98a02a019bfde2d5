package core

import (
	"fmt"

	"tssim/internal/bus"
	"tssim/internal/cache"
	"tssim/internal/mem"
	"tssim/internal/predictor"
	"tssim/internal/stale"
	"tssim/internal/stats"
	"tssim/internal/trace"
)

// storeEntry is one retired store waiting in the post-retirement store
// buffer for permission to perform.
type storeEntry struct {
	seq     uint64
	pc      uint64
	addr    uint64 // word-aligned
	val     uint64
	isSC    bool
	waiting bool // a bus transaction for permission is outstanding
}

// ctrlCounters holds the controller's pre-resolved counter handles,
// interned once at construction so steady-state events are single
// pointer bumps (see stats.Counter).
type ctrlCounters struct {
	l1StoreForward      stats.Counter
	l1Hit               stats.Counter
	l1Miss              stats.Counter
	l2Hit               stats.Counter
	l2Miss              stats.Counter
	l2MSHRFull          stats.Counter
	l2MSHROrphanFill    stats.Counter
	l2LLExclusiveFetch  stats.Counter
	l2EvictDirty        stats.Counter
	l2EvictClean        stats.Counter
	lvpSpecDeliver      stats.Counter
	lvpVerifyFail       stats.Counter
	lvpVerifyOK         stats.Counter
	storeBufferFull     stats.Counter
	storeSCFail         stats.Counter
	storeSCSuccess      stats.Counter
	storeUSDetected     stats.Counter
	storeUSSquash       stats.Counter
	storePerformed      stats.Counter
	storePerformAtGrant stats.Counter
	missComm            stats.Counter
	missMem             stats.Counter
	cohUpgradeConverted stats.Counter
	cohUpgradeStolen    stats.Counter
	cohWBBufferSupply   stats.Counter
	mestiTSDetect       stats.Counter
	mestiValRequested   stats.Counter
	mestiValSuppressed  stats.Counter
	mestiValCancelled   stats.Counter
	mestiValMismatch    stats.Counter
	mestiRevalidate     stats.Counter
	mestiEnterT         stats.Counter
	mestiTReinvalidated stats.Counter
	emestiVSUse         stats.Counter
	emestiVSSilentSnoop stats.Counter
	slePrefetchUpgrade  stats.Counter
	slePrefetchReadX    stats.Counter
	sleStoreCommitted   stats.Counter
}

func resolveCtrlCounters(cs *stats.Counters) ctrlCounters {
	return ctrlCounters{
		l1StoreForward:      cs.Counter("l1/store_forward"),
		l1Hit:               cs.Counter("l1/hit"),
		l1Miss:              cs.Counter("l1/miss"),
		l2Hit:               cs.Counter("l2/hit"),
		l2Miss:              cs.Counter("l2/miss"),
		l2MSHRFull:          cs.Counter("l2/mshr_full"),
		l2MSHROrphanFill:    cs.Counter("l2/mshr_orphan_fill"),
		l2LLExclusiveFetch:  cs.Counter("l2/ll_exclusive_fetch"),
		l2EvictDirty:        cs.Counter("l2/evict_dirty"),
		l2EvictClean:        cs.Counter("l2/evict_clean"),
		lvpSpecDeliver:      cs.Counter("lvp/spec_deliver"),
		lvpVerifyFail:       cs.Counter("lvp/verify_fail"),
		lvpVerifyOK:         cs.Counter("lvp/verify_ok"),
		storeBufferFull:     cs.Counter("store/buffer_full"),
		storeSCFail:         cs.Counter("store/sc_fail"),
		storeSCSuccess:      cs.Counter("store/sc_success"),
		storeUSDetected:     cs.Counter("store/us_detected"),
		storeUSSquash:       cs.Counter("store/us_squash"),
		storePerformed:      cs.Counter("store/performed"),
		storePerformAtGrant: cs.Counter("store/perform_at_grant"),
		missComm:            cs.Counter("miss/comm"),
		missMem:             cs.Counter("miss/mem"),
		cohUpgradeConverted: cs.Counter("coherence/upgrade_converted"),
		cohUpgradeStolen:    cs.Counter("coherence/upgrade_stolen_refetch"),
		cohWBBufferSupply:   cs.Counter("coherence/wb_buffer_supply"),
		mestiTSDetect:       cs.Counter("mesti/ts_detect"),
		mestiValRequested:   cs.Counter("mesti/validate_requested"),
		mestiValSuppressed:  cs.Counter("mesti/validate_suppressed"),
		mestiValCancelled:   cs.Counter("mesti/validate_cancelled"),
		mestiValMismatch:    cs.Counter("mesti/validate_mismatch"),
		mestiRevalidate:     cs.Counter("mesti/revalidate"),
		mestiEnterT:         cs.Counter("mesti/enter_t"),
		mestiTReinvalidated: cs.Counter("mesti/t_reinvalidated"),
		emestiVSUse:         cs.Counter("emesti/vs_use"),
		emestiVSSilentSnoop: cs.Counter("emesti/vs_silent_snoop"),
		slePrefetchUpgrade:  cs.Counter("sle/prefetch_upgrade"),
		slePrefetchReadX:    cs.Counter("sle/prefetch_readx"),
		sleStoreCommitted:   cs.Counter("sle/store_committed"),
	}
}

// Controller is one node's cache and coherence controller.
type Controller struct {
	cfg    Config
	id     int
	bus    bus.Interconnect
	client Client
	cnt    ctrlCounters
	tr     *trace.Tracer
	sink   CheckSink // coherence checker's store-visibility tap (nil when off)
	now    uint64    // last ticked cycle (latency accounting)

	// Scratch slices reused across serveMSHR calls (the client does
	// not retain them).
	scratchSpec     []uint64
	scratchVerified []uint64

	// Occupancy and reuse-distance histograms, shared via counters.
	hOccMSHR *stats.Hist
	hOccSB   *stats.Hist
	hVreuse  *stats.Hist

	// Occupancy sampling stride (cfg.OccSampleEvery with defaults
	// applied) and the countdown to the next observation.
	occEvery     uint64
	occCountdown uint64

	// validatedAt records, per line, the cycle a snooped validate
	// revalidated it (T -> S/VS); the first local use observes the
	// validate-to-reuse distance and clears the entry. Invalidation
	// or eviction before reuse drops it (the validate went unused
	// here).
	validatedAt map[uint64]uint64

	l1    *cache.Cache // presence only; data lives in the L2
	l2    *cache.Cache
	mshrs *cache.MSHRFile

	detector stale.Detector               // temporal-silence candidates (MESTI)
	vpred    *predictor.ValidatePredictor // useful-validate predictor (E-MESTI)

	storeBuf []storeEntry

	// LL/SC reservation.
	resAddr  uint64
	resValid bool

	// tsSilent marks lines currently reverted to their previous
	// globally visible value (between TS detection and the next
	// intermediate-value store).
	tsSilent map[uint64]bool

	// Writeback buffer: evicted dirty lines awaiting their writeback
	// grant still supply snoops from here. Value is refcounted via
	// wbPending in case the same line is evicted twice in flight.
	wbBuf     map[uint64]mem.Line
	wbPending map[uint64]int

	// stateVer changes on every controller event whose effect Load,
	// PeekLoad or StoreBufFull could observe: store-buffer pushes
	// (StoreCommit, SCExecute) and pops, this node's own bus grants and
	// completions (MSHR frees, fills, evictions, validate state moves),
	// every snooped remote transaction, an SLE exclusive prefetch that
	// allocates, and an SLE atomic commit. The core keys its cached
	// fast-forward horizon to it.
	stateVer uint64

	// retryVer is the narrow key for MSHR-exhausted loads: it moves only
	// on the events that can change a LoadRetryFull answer for a load
	// the core holds back (see RetryVersion), and every move is also a
	// stateVer move. It starts at 1.
	retryVer uint64
}

// NewController builds a controller, attaches it to the interconnect,
// and returns it. All controllers in a system share counters.
func NewController(cfg Config, b bus.Interconnect, client Client, counters *stats.Counters) *Controller {
	if cfg.EMESTI && !cfg.MESTI {
		panic("core: EMESTI requires MESTI")
	}
	if cfg.MSHRs <= 0 {
		cfg.MSHRs = 8
	}
	if cfg.StoreBuf <= 0 {
		cfg.StoreBuf = 16
	}
	if cfg.OccSampleEvery <= 0 {
		cfg.OccSampleEvery = DefaultOccSampleEvery
	}
	if counters == nil {
		counters = stats.NewCounters()
	}
	c := &Controller{
		cfg:          cfg,
		bus:          b,
		client:       client,
		cnt:          resolveCtrlCounters(counters),
		l1:           cache.New(cfg.L1),
		l2:           cache.New(cfg.L2),
		mshrs:        cache.NewMSHRFile(cfg.MSHRs),
		tsSilent:     make(map[uint64]bool),
		wbBuf:        make(map[uint64]mem.Line),
		wbPending:    make(map[uint64]int),
		validatedAt:  make(map[uint64]uint64),
		hOccMSHR:     counters.Hist("occ/mshr"),
		hOccSB:       counters.Hist("occ/storebuf"),
		hVreuse:      counters.Hist("lat/validate_reuse"),
		occEvery:     uint64(cfg.OccSampleEvery),
		occCountdown: 1, // sample cycle 0 so short runs still populate
		stateVer:     1,
		retryVer:     1,
	}
	if cfg.MESTI {
		c.detector = cfg.Detector
		if c.detector == nil {
			c.detector = stale.NewPerfect()
		}
		if cfg.EMESTI {
			p := cfg.ValidateParams
			if p.SatMax == 0 {
				p = predictor.DefaultValidateParams()
			}
			c.vpred = predictor.NewValidatePredictor(p)
		}
	}
	// Never evict a line with an outstanding miss: the fill would
	// have nowhere to land.
	c.l2.Evictable = func(l *cache.Line) bool {
		return c.mshrs.Lookup(l.Addr) == nil
	}
	c.id = b.Attach(c)
	return c
}

// ID returns the node id on the bus.
func (c *Controller) ID() int { return c.id }

// SetTracer attaches the event tracer (nil disables tracing).
func (c *Controller) SetTracer(tr *trace.Tracer) { c.tr = tr }

// SetCheckSink attaches the coherence checker's store-visibility tap
// (nil disables it).
func (c *Controller) SetCheckSink(s CheckSink) { c.sink = s }

// traceState emits a protocol state-transition event.
func (c *Controller) traceState(la uint64, from, to State) {
	c.tr.Emit(trace.Event{Kind: trace.KState, Node: int32(c.id), Addr: la, A: from, B: to})
}

// noteReuse observes the validate-to-reuse distance on the first local
// access to a line a snooped validate revalidated. The len guard keeps
// the common case (no outstanding validated lines) to a single
// comparison on the load hit path.
func (c *Controller) noteReuse(la uint64) {
	if len(c.validatedAt) == 0 {
		return
	}
	if at, ok := c.validatedAt[la]; ok {
		c.hVreuse.Observe(c.now - at)
		delete(c.validatedAt, la)
	}
}

// Config returns the controller configuration.
func (c *Controller) Config() Config { return c.cfg }

// request enqueues a dataless transaction for la, drawing from the
// bus's transaction free list so the steady-state miss path does not
// allocate.
func (c *Controller) request(ty bus.TxnType, la uint64) {
	t := c.bus.NewTxn()
	t.Type, t.Addr, t.Src = ty, la, c.id
	c.bus.Request(t)
}

// ---------------------------------------------------------------------------
// CPU-facing request paths
// ---------------------------------------------------------------------------

// Load services a load (or load-locked) issued by the core's LSQ.
func (c *Controller) Load(seq uint64, addr uint64, isLL bool) LoadResult {
	addr = mem.AlignWord(addr)
	la := mem.LineAddr(addr)
	slot := mem.WordIndex(addr)

	// Forward from the post-retirement store buffer: buffered stores
	// are older than any issuing load. Scan youngest-first. Pending
	// SCs may still fail, so a matching SC blocks the load instead of
	// forwarding a value that might never be written.
	for i := len(c.storeBuf) - 1; i >= 0; i-- {
		e := &c.storeBuf[i]
		if e.addr != addr {
			continue
		}
		if e.isSC {
			return LoadResult{Status: LoadRetry}
		}
		c.cnt.l1StoreForward.Inc()
		if isLL {
			c.setReservation(la)
		}
		return LoadResult{Status: LoadHit, Value: e.val, Lat: c.cfg.L1Latency}
	}

	l2line := c.l2.Lookup(la)

	// L1 hit: presence implies the L2 holds the line readable.
	if l1line := c.l1.Lookup(la); l1line != nil {
		if l2line == nil || !Readable(l2line.State) {
			panic(fmt.Sprintf("core: L1 presence without readable L2 line at %#x", la))
		}
		c.l1.Touch(l1line)
		c.cnt.l1Hit.Inc()
		c.noteReuse(la)
		if l2line.State == StateVS {
			// unreachable by the inclusion invariant (VS lines are
			// never L1-resident) but kept as defense in depth
			l2line.State = StateS
		}
		if isLL {
			c.setReservation(la)
		}
		return LoadResult{Status: LoadHit, Value: l2line.Data.Word(slot), Lat: c.cfg.L1Latency}
	}
	c.cnt.l1Miss.Inc()

	// L2 hit with read permission.
	if l2line != nil && Readable(l2line.State) {
		if l2line.State == StateVS {
			// A local request transitions Validate_Shared to Shared
			// (§2.3) — the line has now been *used* since its
			// validate, so future useful snoop responses assert.
			l2line.State = StateS
			c.cnt.emestiVSUse.Inc()
		}
		c.l2.Touch(l2line)
		c.cnt.l2Hit.Inc()
		c.noteReuse(la)
		c.fillL1(la)
		if isLL {
			c.setReservation(la)
		}
		return LoadResult{Status: LoadHit, Value: l2line.Data.Word(slot), Lat: c.cfg.L1Latency + c.cfg.L2Latency}
	}
	c.cnt.l2Miss.Inc()

	// Miss: merge into an existing MSHR or allocate one. A
	// load-locked miss fetches the line *exclusively* (read with
	// intent to modify), as real LL/SC implementations do: the
	// store-conditional can then perform locally, shrinking the
	// window in which a remote write can kill the reservation from a
	// full bus round-trip to a handful of core cycles — without it, a
	// contended fetch-and-add can make no forward progress at these
	// interconnect latencies.
	m := c.mshrs.Lookup(la)
	if m == nil {
		m = c.mshrs.Alloc(la, isLL)
		if m == nil {
			c.cnt.l2MSHRFull.Inc()
			return LoadResult{Status: LoadRetryFull}
		}
		ty := bus.TxnRead
		if isLL {
			ty = bus.TxnReadX
			c.cnt.l2LLExclusiveFetch.Inc()
		}
		c.request(ty, la)
	}
	w := cache.Waiter{Seq: seq, WordIdx: slot, IsLoad: true, IsLL: isLL}

	// LVP: a tag-match invalid line (state I after an invalidation or
	// eviction of permission, or T under MESTI) supplies a value
	// prediction (§3.1-3.2).
	if c.cfg.LVP && l2line != nil {
		v := l2line.Data.Word(slot)
		m.RecordSpec(slot, seq, v)
		w.GotSpec = true
		m.Waiters = append(m.Waiters, w)
		c.cnt.lvpSpecDeliver.Inc()
		c.tr.Emit(trace.Event{Kind: trace.KLVPPredict, Node: int32(c.id), Addr: addr, Arg: v})
		return LoadResult{Status: LoadSpec, Value: v, Lat: c.cfg.L1Latency + c.cfg.L2Latency}
	}
	m.Waiters = append(m.Waiters, w)
	return LoadResult{Status: LoadMiss}
}

// PeekLoad classifies what Load would do for the word at addr right
// now, with no side effects. It mirrors Load's decision tree exactly:
// a buffered SC to the same word forces a silent retry, any other
// buffered store forwards, then L1/L2 readable hits, an MSHR waiter
// merge, and finally allocation — which either issues a request or,
// with the MSHR file exhausted, retries after bumping the miss and
// mshr_full counters. Any divergence from Load here breaks the
// fast-forward path's bit-identity.
func (c *Controller) PeekLoad(addr uint64) LoadProbe {
	addr = mem.AlignWord(addr)
	la := mem.LineAddr(addr)
	for i := len(c.storeBuf) - 1; i >= 0; i-- {
		e := &c.storeBuf[i]
		if e.addr != addr {
			continue
		}
		if e.isSC {
			return LoadProbeRetryPure
		}
		return LoadProbeActive // would forward
	}
	if c.l1.Lookup(la) != nil {
		return LoadProbeActive // L1 hit
	}
	if l2line := c.l2.Lookup(la); l2line != nil && Readable(l2line.State) {
		return LoadProbeActive // L2 hit
	}
	if c.mshrs.Lookup(la) != nil {
		return LoadProbeActive // would merge as a waiter
	}
	if c.mshrs.InUse() >= c.mshrs.Cap() {
		return LoadProbeRetryCounted
	}
	return LoadProbeActive // would allocate and request
}

// StoreCommit accepts a retired store into the store buffer. A false
// return means the buffer is full and the core must stall retirement.
func (c *Controller) StoreCommit(seq, pc, addr, val uint64) bool {
	if len(c.storeBuf) >= c.cfg.StoreBuf {
		c.cnt.storeBufferFull.Inc()
		return false
	}
	c.storeBuf = append(c.storeBuf, storeEntry{seq: seq, pc: pc, addr: mem.AlignWord(addr), val: val})
	c.stateVer++
	if c.sink != nil {
		c.sink.StoreBuffered(c.id, mem.AlignWord(addr), val, false)
	}
	return true
}

// SCExecute submits a store-conditional. The outcome arrives via
// Client.SCDone once the store reaches the coherence point; the core
// keeps the SC at the head of its window until then.
func (c *Controller) SCExecute(seq, pc, addr, val uint64) bool {
	if len(c.storeBuf) >= c.cfg.StoreBuf {
		return false
	}
	c.storeBuf = append(c.storeBuf, storeEntry{seq: seq, pc: pc, addr: mem.AlignWord(addr), val: val, isSC: true})
	c.stateVer++
	if c.sink != nil {
		c.sink.StoreBuffered(c.id, mem.AlignWord(addr), val, true)
	}
	return true
}

// StoreBufEmpty reports whether all retired stores have performed.
func (c *Controller) StoreBufEmpty() bool { return len(c.storeBuf) == 0 }

// StoreBufFull reports whether StoreCommit would refuse a retired
// store right now (side-effect-free; the core's fast-forward path uses
// it to classify a commit stall).
func (c *Controller) StoreBufFull() bool { return len(c.storeBuf) >= c.cfg.StoreBuf }

func (c *Controller) setReservation(lineAddr uint64) {
	c.resAddr = lineAddr
	c.resValid = true
}

// HasReservation reports whether the LL/SC reservation is live for the
// line (test hook).
func (c *Controller) HasReservation(lineAddr uint64) bool {
	return c.resValid && c.resAddr == mem.LineAddr(lineAddr)
}

// ---------------------------------------------------------------------------
// Tick: store buffer drain
// ---------------------------------------------------------------------------

// Tick advances the controller one cycle: it samples the occupancy
// histograms and tries to perform the store at the head of the store
// buffer.
func (c *Controller) Tick(now uint64) {
	c.now = now
	if c.occCountdown--; c.occCountdown == 0 {
		c.occCountdown = c.occEvery
		c.hOccMSHR.Observe(uint64(c.mshrs.InUse()))
		c.hOccSB.Observe(uint64(len(c.storeBuf)))
	}
	c.tickStore()
}

// NextEvent returns the earliest future cycle at which Tick could
// change observable state, now when the next tick acts immediately,
// or ^uint64(0) when the controller is idle until an external event
// (bus grant/completion) arrives. It mirrors tickStore exactly: the
// head store is active if tryPerformHead would consume it (SC
// reservation loss, update-silent squash, writable line), if a
// first-touch reuse observation or VS->S transition is pending, or if
// a permission request would be issued; it is a pure stall while a
// transaction is outstanding or the MSHR file blocks the request.
// Timed wakeups originate at the bus, but when the head store is
// blocked on a granted transaction the completion cycle is already
// known (MSHR.FillAt, recorded at grant via bus.Scheduler): those
// cases return the scheduled fill instead of "never", making the
// controller's horizon self-contained. Every FillAt equals a bus
// in-flight doneAt, so the returned value never undercuts the global
// minimum — underestimating (waking early) costs a few wasted ticks,
// overestimating would corrupt determinism.
func (c *Controller) NextEvent(now uint64) uint64 {
	const never = ^uint64(0)
	if len(c.storeBuf) == 0 {
		return never
	}
	e := &c.storeBuf[0]
	la := mem.LineAddr(e.addr)
	// tryPerformHead runs even for waiting heads, so its conditions
	// come before the e.waiting early-out.
	if e.isSC && !c.HasReservation(la) {
		return now
	}
	l := c.l2.Lookup(la)
	if l != nil {
		if c.cfg.SquashUpdateSilent && Readable(l.State) &&
			l.Data.Word(mem.WordIndex(e.addr)) == e.val {
			return now
		}
		if Writable(l.State) {
			return now
		}
	}
	if e.waiting {
		// The permission transaction is outstanding. Once granted, the
		// completion cycle is on the line's MSHR; before grant (or
		// after an at-grant perform already consumed the head) the
		// wake comes through arbitration, which the bus horizon owns.
		if m := c.mshrs.Lookup(la); m != nil && m.FillAt > now {
			return m.FillAt
		}
		return never
	}
	if len(c.validatedAt) > 0 {
		if _, ok := c.validatedAt[la]; ok {
			return now // noteReuse observes the histogram
		}
	}
	if l != nil && l.State == StateVS {
		return now // VS -> S transition plus counter
	}
	if m := c.mshrs.Lookup(la); m != nil {
		// A miss to the head store's line is in flight; the head
		// retries when it lands.
		if m.FillAt > now {
			return m.FillAt
		}
		return never
	}
	if c.mshrs.InUse() >= c.mshrs.Cap() {
		// The file is exhausted; the head retries when any entry
		// frees, bounded by the earliest scheduled fill.
		if at, ok := c.mshrs.EarliestFill(); ok && at > now {
			return at
		}
		return never
	}
	return now // a permission request would be issued this tick
}

// EarliestFill implements the cpu.MemSystem horizon hook: the earliest
// scheduled completion cycle among this node's granted outstanding
// misses, false when none is known. The attached core folds it into
// its quiescence horizon so a core idle behind its own in-flight loads
// reports the fill cycle rather than "unknown".
func (c *Controller) EarliestFill() (uint64, bool) { return c.mshrs.EarliestFill() }

// SkipCycles replays the side effects of ticking every cycle in
// [from, to) while the controller is quiescent: the occupancy
// histograms sample the (constant) occupancy at the same cycles the
// naive loop would, and the clock lands on to-1 — the value Tick(to-1)
// would have left, which bus-phase callbacks (SnoopTxn timestamping
// validatedAt) read before the controller's next Tick.
func (c *Controller) SkipCycles(from, to uint64) {
	k := to - from
	if c.occCountdown <= k {
		m := 1 + (k-c.occCountdown)/c.occEvery
		c.hOccMSHR.ObserveN(uint64(c.mshrs.InUse()), m)
		c.hOccSB.ObserveN(uint64(len(c.storeBuf)), m)
		c.occCountdown = c.occCountdown + m*c.occEvery - k
	} else {
		c.occCountdown -= k
	}
	c.now = to - 1
}

func (c *Controller) tickStore() {
	if c.tryPerformHead() {
		return
	}
	if len(c.storeBuf) == 0 {
		return
	}
	e := &c.storeBuf[0]
	la := mem.LineAddr(e.addr)

	if e.waiting {
		return // permission transaction outstanding
	}
	c.noteReuse(la) // a store is a use of a revalidated line too
	l2line := c.l2.Lookup(la)

	// Upgradable: dataless Upgrade.
	if l2line != nil && Upgradable(l2line.State) || (l2line != nil && l2line.State == StateVS) {
		if l2line.State == StateVS {
			l2line.State = StateS // local request moves VS to S
			c.cnt.emestiVSUse.Inc()
		}
		if c.mshrs.Lookup(la) != nil {
			return // line busy; retry when it clears
		}
		m := c.mshrs.Alloc(la, true)
		if m == nil {
			return
		}
		if c.tsSilent[la] && c.vpred != nil {
			// The intermediate-value store is being made visible;
			// the predictor moves to its upgrade-request state and
			// will consume the combined useful snoop response.
			c.vpred.OnIntermediateStoreVisible(la)
		}
		c.request(bus.TxnUpgrade, la)
		e.waiting = true
		return
	}

	// Invalid (I/T/absent): ReadX.
	if c.mshrs.Lookup(la) != nil {
		return // a read miss is in flight; wait for it to land
	}
	m := c.mshrs.Alloc(la, true)
	if m == nil {
		return
	}
	c.request(bus.TxnReadX, la)
	e.waiting = true
}

// tryPerformHead performs the store at the head of the store buffer
// if it can complete right now (writable line, update-silent squash,
// or SC failure). It returns true when the head was consumed. It is
// called every tick and — critically — at the grant instant of the
// head store's upgrade: the write is ordered at the bus serialization
// point, so a contender snooping the line a cycle later already sees
// the new value. Deferring the write to the upgrade *completion* would
// let contenders steal the line during the address-phase latency and
// the store would ping-pong without ever performing.
func (c *Controller) tryPerformHead() bool {
	if len(c.storeBuf) == 0 {
		return false
	}
	e := &c.storeBuf[0]
	la := mem.LineAddr(e.addr)
	slot := mem.WordIndex(e.addr)

	// SC: the reservation must still be live when the store reaches
	// the coherence point.
	if e.isSC && !c.HasReservation(la) {
		c.resValid = false
		c.cnt.storeSCFail.Inc()
		c.client.SCDone(e.seq, false)
		if c.sink != nil {
			c.sink.StoreDrained(c.id, e.addr, false)
		}
		c.popStore()
		return true
	}

	l2line := c.l2.Lookup(la)

	// Update-silent store squashing: a store whose value matches the
	// current content of a readable line has no architectural effect
	// and is dropped without acquiring write permission (§1, [21]).
	if c.cfg.SquashUpdateSilent && l2line != nil && Readable(l2line.State) &&
		l2line.Data.Word(slot) == e.val {
		c.cnt.storeUSDetected.Inc()
		c.cnt.storeUSSquash.Inc()
		if e.isSC {
			c.resValid = false
			c.cnt.storeSCSuccess.Inc()
			c.client.SCDone(e.seq, true)
		}
		if c.sink != nil {
			c.sink.StoreDrained(c.id, e.addr, false)
		}
		c.popStore()
		return true
	}

	// Permission held: perform.
	if l2line != nil && Writable(l2line.State) {
		c.performStore(l2line, e, slot)
		if c.sink != nil {
			c.sink.StoreDrained(c.id, e.addr, true)
		}
		c.popStore()
		return true
	}
	return false
}

func (c *Controller) popStore() {
	c.stateVer++
	n := copy(c.storeBuf, c.storeBuf[1:])
	c.storeBuf = c.storeBuf[:n]
}

// StateVersion implements the cpu.MemSystem invalidation hook: it
// changes on every event whose effect Load, PeekLoad or StoreBufFull
// could observe (see stateVer), and it is never zero.
func (c *Controller) StateVersion() uint64 { return c.stateVer }

// RetryVersion implements the cpu.MemSystem wake-up key for loads held
// back after LoadRetryFull. Such a load missed both levels, found no
// MSHR for its line and no store-buffer entry for its word, and the
// MSHR file full. Its answer can change only if the file frees an
// entry, its line becomes readable, an MSHR is allocated for its line,
// or a store to its word enters the buffer. The version moves on
//
//   - every MSHR free (freeMSHR): the only way the file stops being
//     full, hence also the only way any later allocation can succeed;
//   - a data fill with no live MSHR, which installs a readable line
//     without a free (never expected; see serveMSHR);
//   - a snooped validate that revalidates a T line to S or VS;
//   - an SLE exclusive prefetch that allocates, and an SLE commit that
//     performs.
//
// Store-buffer pushes are left out on purpose. The core holds a load
// back only when its older-store scan found no older in-window store
// or SC to its word with every older address resolved. Stores enter
// the buffer in program order as they retire, so every later push
// (StoreCommit, or SCExecute at the window head) comes from one of
// those older stores and cannot match the load's word. Pops, this
// node's own grants, and snoops other than a revalidating validate
// leave the MSHR file full and never make an unreadable line readable,
// so they are left out too.
func (c *Controller) RetryVersion() uint64 { return c.retryVer }

// freeMSHR releases m and moves the retry version: a load that found
// the file exhausted may now allocate.
func (c *Controller) freeMSHR(m *cache.MSHR) {
	c.mshrs.Free(m)
	c.retryVer++
}

// performStore writes one word into a line held in M or E and runs the
// MESTI temporal-silence machinery.
func (c *Controller) performStore(l *cache.Line, e *storeEntry, slot int) {
	la := l.Addr
	if l.State == StateE {
		// E -> M is a visibility boundary: the current (clean,
		// globally visible) contents become the reversion candidate
		// (the bold PrWr arcs of Figure 2).
		if c.detector != nil {
			c.detector.SaveStale(la, l.Data)
		}
		l.State = StateM
	}
	prevSilent := c.tsSilent[la]
	if l.Data.Word(slot) == e.val {
		// Update-silent store that was not squashed (squashing off,
		// or the line only became readable now): counted for the
		// Table 2 characterization.
		c.cnt.storeUSDetected.Inc()
	}
	l.SetWord(slot, e.val)
	c.l2.Touch(l)
	c.cnt.storePerformed.Inc()
	if c.sink != nil {
		c.sink.StorePerformed(c.id, e.addr, e.val)
	}
	if e.isSC {
		c.resValid = false
		c.cnt.storeSCSuccess.Inc()
		c.client.SCDone(e.seq, true)
	}

	if c.detector == nil {
		return
	}
	cand, ok := c.detector.Candidate(la)
	nowSilent := ok && l.Data.Equal(&cand)
	switch {
	case nowSilent && !prevSilent:
		// Temporal silence detected: the line has reverted to its
		// previous globally visible value.
		c.tsSilent[la] = true
		c.cnt.mestiTSDetect.Inc()
		c.tr.Emit(trace.Event{Kind: trace.KTSDetect, Node: int32(c.id), Addr: la})
		send := true
		if c.vpred != nil {
			send = c.vpred.OnTSDetect(la)
		}
		if send {
			t := c.bus.NewTxn()
			t.Type, t.Addr, t.Src, t.WData = bus.TxnValidate, la, c.id, l.Data
			c.bus.Request(t)
			c.cnt.mestiValRequested.Inc()
			c.tr.Emit(trace.Event{Kind: trace.KValIssue, Node: int32(c.id), Addr: la})
		} else {
			c.cnt.mestiValSuppressed.Inc()
			c.tr.Emit(trace.Event{Kind: trace.KValSuppress, Node: int32(c.id), Addr: la})
		}
	case !nowSilent && prevSilent:
		// The silent period ended with a store that needed no bus
		// transaction (the validate had been suppressed, or was
		// cancelled before grant). No useful snoop response exists.
		delete(c.tsSilent, la)
		if c.vpred != nil {
			c.vpred.OnIntermediateStoreSilentlyLocal(la)
		}
	}
}

// ---------------------------------------------------------------------------
// SLE support
// ---------------------------------------------------------------------------

// PrefetchExclusive requests write permission for a line the SLE
// engine has speculatively written, so the eventual atomic commit can
// perform instantly. Best effort: structural hazards are simply
// dropped and retried by the engine.
func (c *Controller) PrefetchExclusive(addr uint64) {
	la := mem.LineAddr(addr)
	l := c.l2.Lookup(la)
	if l != nil && Writable(l.State) {
		return
	}
	if c.mshrs.Lookup(la) != nil {
		return
	}
	m := c.mshrs.Alloc(la, true)
	if m == nil {
		return
	}
	c.stateVer++
	c.retryVer++
	if l != nil && (Upgradable(l.State) || l.State == StateVS) {
		if l.State == StateVS {
			l.State = StateS
			c.cnt.emestiVSUse.Inc()
		}
		c.request(bus.TxnUpgrade, la)
		c.cnt.slePrefetchUpgrade.Inc()
	} else {
		c.request(bus.TxnReadX, la)
		c.cnt.slePrefetchReadX.Inc()
	}
}

// HoldsWritable reports whether the line can be written with no bus
// transaction right now.
func (c *Controller) HoldsWritable(addr uint64) bool {
	l := c.l2.Lookup(mem.LineAddr(addr))
	return l != nil && Writable(l.State)
}

// SLECommitStores atomically performs a speculative critical section's
// stores. All target lines must be writable at this instant (between
// bus grants nothing can intervene); otherwise nothing is performed
// and false is returned so the engine keeps prefetching or aborts.
func (c *Controller) SLECommitStores(stores []SpecStore) bool {
	for i := range stores {
		if !c.HoldsWritable(stores[i].Addr) {
			return false
		}
	}
	c.stateVer++
	c.retryVer++
	for i := range stores {
		s := &stores[i]
		la := mem.LineAddr(s.Addr)
		l := c.l2.Lookup(la)
		e := storeEntry{addr: mem.AlignWord(s.Addr), val: s.Value}
		c.performStore(l, &e, mem.WordIndex(s.Addr))
		c.cnt.sleStoreCommitted.Inc()
	}
	return true
}

// ---------------------------------------------------------------------------
// Fills and evictions
// ---------------------------------------------------------------------------

func (c *Controller) fillL1(la uint64) {
	if c.l1.Lookup(la) != nil {
		return
	}
	f, ev := c.l1.Allocate(la)
	if ev.Allocated && c.detector != nil {
		c.detector.OnL1Evict(ev.Addr)
	}
	c.l1.Touch(f)
	if c.detector != nil {
		c.detector.OnL1Fill(la)
	}
}

// installL2 places arrived data into the L2, reusing a tag-match frame
// or allocating (with eviction handling), and returns the frame.
func (c *Controller) installL2(la uint64, data mem.Line, state State) *cache.Line {
	l := c.l2.Lookup(la)
	if l == nil {
		var ev cache.Line
		l, ev = c.l2.Allocate(la)
		if ev.Allocated {
			c.evictL2(&ev)
		}
	}
	l.Data = data
	l.State = state
	l.CleanAllWords()
	c.l2.Touch(l)
	return l
}

func (c *Controller) evictL2(victim *cache.Line) {
	la := victim.Addr
	if Dirty(victim.State) {
		c.wbBuf[la] = victim.Data
		c.wbPending[la]++
		t := c.bus.NewTxn()
		t.Type, t.Addr, t.Src, t.WData = bus.TxnWriteback, la, c.id, victim.Data
		c.bus.Request(t)
		c.cnt.l2EvictDirty.Inc()
	} else {
		c.cnt.l2EvictClean.Inc()
	}
	delete(c.tsSilent, la)
	if len(c.validatedAt) > 0 {
		delete(c.validatedAt, la)
	}
	if c.detector != nil {
		c.detector.Drop(la)
	}
	if c.vpred != nil {
		c.vpred.Evict(la)
	}
	c.l1.Drop(la) // inclusion
}

// dropFromL1 removes a line from the L1 presence array when the L2
// loses read permission.
func (c *Controller) dropFromL1(la uint64) {
	if c.l1.Drop(la) && c.detector != nil {
		c.detector.OnL1Evict(la)
	}
}

// ---------------------------------------------------------------------------
// Introspection for tests and invariant checks
// ---------------------------------------------------------------------------

// LineState returns the L2 state of the line containing addr (StateI
// when absent).
func (c *Controller) LineState(addr uint64) State {
	if l := c.l2.Lookup(mem.LineAddr(addr)); l != nil {
		return l.State
	}
	return StateI
}

// LineData returns the L2 data of the line containing addr.
func (c *Controller) LineData(addr uint64) (mem.Line, bool) {
	if l := c.l2.Lookup(mem.LineAddr(addr)); l != nil {
		return l.Data, true
	}
	return mem.Line{}, false
}

// Predictor exposes the useful-validate predictor (nil unless EMESTI).
func (c *Controller) Predictor() *predictor.ValidatePredictor { return c.vpred }

// Detector exposes the temporal-silence detector (nil unless MESTI).
func (c *Controller) Detector() stale.Detector { return c.detector }

// ForEachL2 visits every allocated L2 frame (invariant checks).
func (c *Controller) ForEachL2(fn func(l *cache.Line)) { c.l2.ForEach(fn) }

// L1Holds reports whether the L1 presence array holds the line
// containing addr (the inclusion invariant: L1 presence requires a
// readable L2 line).
func (c *Controller) L1Holds(addr uint64) bool {
	return c.l1.Lookup(mem.LineAddr(addr)) != nil
}

// WBInfo reports whether the writeback buffer holds the line and how
// many writeback transactions are pending for it (the two must agree:
// buffered iff pending > 0).
func (c *Controller) WBInfo(addr uint64) (buffered bool, pending int) {
	la := mem.LineAddr(addr)
	_, buffered = c.wbBuf[la]
	return buffered, c.wbPending[la]
}

// ForEachWB visits every line held in the writeback buffer.
func (c *Controller) ForEachWB(fn func(la uint64)) {
	for la := range c.wbBuf {
		fn(la)
	}
}

// MSHRsInUse returns the number of live MSHRs (leak detection at
// quiesce).
func (c *Controller) MSHRsInUse() int { return c.mshrs.InUse() }

// DebugMSHRs renders live MSHRs (diagnostics).
func (c *Controller) DebugMSHRs() string {
	out := ""
	c.mshrs.ForEach(func(m *cache.MSHR) {
		out += fmt.Sprintf("  mshr addr=%#x write=%v spec=%v waiters=%d oldest=%d\n",
			m.Addr, m.Write, m.SpecDelivered, len(m.Waiters), m.OldestSeq)
	})
	if len(c.storeBuf) > 0 {
		out += fmt.Sprintf("  storeBuf=%d head={addr=%#x sc=%v waiting=%v}\n",
			len(c.storeBuf), c.storeBuf[0].addr, c.storeBuf[0].isSC, c.storeBuf[0].waiting)
	}
	return out
}

// DebugStoreBuf renders every buffered store (post-mortem dumps).
func (c *Controller) DebugStoreBuf() string {
	if len(c.storeBuf) == 0 {
		return ""
	}
	out := fmt.Sprintf("  storeBuf (%d entries):\n", len(c.storeBuf))
	for i, e := range c.storeBuf {
		st := c.LineState(e.addr)
		out += fmt.Sprintf("    [%d] seq=%d pc=%d addr=%#x val=%d sc=%v waiting=%v line=%s\n",
			i, e.seq, e.pc, e.addr, e.val, e.isSC, e.waiting, StateName(st))
	}
	return out
}
