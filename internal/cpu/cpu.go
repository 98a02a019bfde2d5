// Package cpu models the out-of-order processor core: a unified
// RUU/LSQ window in the style of the paper's SimpleScalar-derived core
// (Table 1: 256-entry RUU, 128-entry LSQ, 8-wide pipeline, 6 stages),
// with tag-based wakeup, branch prediction, squash recovery, the
// consumer half of LVP (speculative loads that cannot retire until
// verified — the commit-pointer rule of §3.2), context-serializing
// isync handling, and the SLE engine of §4 (in-core speculation
// buffering bounded by a fraction of the RUU).
package cpu

import (
	"fmt"

	"tssim/internal/core"
	"tssim/internal/isa"
	"tssim/internal/mem"
	"tssim/internal/predictor"
	"tssim/internal/stats"
	"tssim/internal/trace"
)

// MemSystem is the memory-side interface the core drives; implemented
// by core.Controller and by fakes in tests.
type MemSystem interface {
	Load(seq uint64, addr uint64, isLL bool) core.LoadResult
	StoreCommit(seq, pc, addr, val uint64) bool
	SCExecute(seq, pc, addr, val uint64) bool
	HasReservation(lineAddr uint64) bool
	PrefetchExclusive(addr uint64)
	HoldsWritable(addr uint64) bool
	SLECommitStores(stores []core.SpecStore) bool
	StoreBufEmpty() bool

	// StoreBufFull reports whether StoreCommit would refuse a retired
	// store right now. It must be side-effect-free: the fast-forward
	// path uses it to classify a commit stall without performing the
	// failing StoreCommit call.
	StoreBufFull() bool

	// PeekLoad classifies, without side effects, what Load would do
	// for the word at addr right now (see core.LoadProbe). The
	// fast-forward path uses it to decide whether a ready load that
	// cannot issue pins the machine to the current cycle.
	PeekLoad(addr uint64) core.LoadProbe

	// StateVersion changes on every memory-system event whose effect
	// Load, PeekLoad or StoreBufFull could observe (store-buffer pushes
	// and drains, this node's bus grants and completions, snooped
	// remote transactions, SLE prefetches and commits). The core keys
	// its cached quiescence horizon to it. It moves whenever
	// RetryVersion does.
	StateVersion() uint64

	// RetryVersion is the wake-up key of the core's parked loads (see
	// Core.parkQ). While it holds, a load that got core.LoadRetryFull
	// would get it again, provided that load's older-store scan found
	// nothing (no older in-window store or SC to its word, every older
	// address resolved). That proviso is why store-buffer pushes need
	// not move it: later pushes come from those older stores. It moves
	// on MSHR frees, revalidating snooped validates, allocating SLE
	// prefetches and performing SLE commits (core.Controller.RetryVersion).
	RetryVersion() uint64

	// EarliestFill reports the earliest scheduled completion cycle
	// among this node's granted outstanding misses, false when none is
	// known. The fast-forward path folds it into the quiescence
	// horizon so a core waiting only on its own in-flight loads
	// reports the known fill cycle instead of "unknown". The value is
	// always one of the bus's in-flight completion times, so it can
	// never pull the global skip target below what the bus reports.
	EarliestFill() (uint64, bool)
}

// Config sizes the core. Zero values take the paper-flavored defaults
// of DefaultConfig, scaled like the rest of the system.
type Config struct {
	FetchWidth  int // instructions fetched/dispatched per cycle
	IssueWidth  int // instructions issued per cycle
	CommitWidth int // instructions retired per cycle
	PipeDepth   int // fetch-to-dispatch stages
	RUUSize     int // unified window capacity
	LSQSize     int // memory-op subwindow capacity
	MemPorts    int // loads/stores issued to memory per cycle

	SLE SLEConfig
}

// SLEConfig controls the speculative-lock-elision engine.
type SLEConfig struct {
	Enabled bool
	// ROBFrac bounds the speculative critical section to this
	// fraction of the RUU (the paper uses 0.5).
	ROBFrac float64
	// RestartLimit is the number of consecutive aborted attempts at
	// one PC before one non-elided execution is forced.
	RestartLimit int
	// Params tunes the elision-confidence predictor; zero value takes
	// predictor.DefaultElisionParams.
	Params predictor.ElisionParams
}

// DefaultConfig returns a core matching the paper's Table 1 shape
// (8-wide, 6-deep, 256/128 window) with 4 memory ports.
func DefaultConfig() Config {
	return Config{
		FetchWidth:  8,
		IssueWidth:  8,
		CommitWidth: 8,
		PipeDepth:   6,
		RUUSize:     256,
		LSQSize:     128,
		MemPorts:    4,
		SLE:         SLEConfig{ROBFrac: 0.5, RestartLimit: 2},
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.FetchWidth <= 0 {
		c.FetchWidth = d.FetchWidth
	}
	if c.IssueWidth <= 0 {
		c.IssueWidth = d.IssueWidth
	}
	if c.CommitWidth <= 0 {
		c.CommitWidth = d.CommitWidth
	}
	if c.PipeDepth <= 0 {
		c.PipeDepth = d.PipeDepth
	}
	if c.RUUSize <= 0 {
		c.RUUSize = d.RUUSize
	}
	if c.LSQSize <= 0 {
		c.LSQSize = d.LSQSize
	}
	if c.MemPorts <= 0 {
		c.MemPorts = d.MemPorts
	}
	if c.SLE.ROBFrac <= 0 {
		c.SLE.ROBFrac = 0.5
	}
	if c.SLE.RestartLimit <= 0 {
		c.SLE.RestartLimit = 2
	}
	return c
}

// entry is one RUU slot.
type entry struct {
	seq uint64
	pc  int
	ins isa.Instr

	// Operand tracking: two source slots whose meaning depends on
	// the op (base/value for stores, comparands for branches).
	src      [2]uint64
	srcReady [2]bool
	srcProd  [2]uint64 // producing seq when not ready

	issued    bool   // sent to a functional unit / memory
	done      bool   // result available (broadcast happened)
	doneAt    uint64 // cycle the result becomes available
	executing bool   // between issue and doneAt
	result    uint64

	// Precomputed classification and readiness bookkeeping, so the
	// per-cycle scheduler loops are O(1) per entry.
	isLoad      bool
	isStore     bool
	isBranch    bool
	needsAddr   bool // store whose address is not yet resolved
	nSrc        int8 // srcCount(), computed once at dispatch
	pendingSrcs int8 // count of not-yet-ready source operands

	// Memory state.
	effAddr   uint64
	addrKnown bool
	memSent   bool // request handed to the memory system
	specVal   bool // LVP: value is speculative, retire blocked

	// Branch state.
	predTaken bool
	predNext  int

	// SC state.
	scSent bool
	scDone bool

	// SLE: this entry was handled by an elided region commit.
	elided bool

	// dead marks an entry returned to the pool (retired or squashed).
	// The scheduler queues hold seq-tagged references that go stale on
	// squash; dead plus a seq mismatch is how they are detected lazily.
	dead bool

	// queued: this entry has been placed on the core's readyQ (a
	// parked load stays queued while it sits in parkQ). Set at
	// most once per entry lifetime — once issued/done/dead an entry
	// can never become actionable again — so it doubles as the
	// enqueue-dedup guard (slot-0 and slot-1 wakeups may both fire).
	queued bool

	// consHead is the wakeup list: consumers whose source slot waits
	// on this entry's result, registered at dispatch and drained by
	// broadcast. Chunks come from the core's free list (see
	// consChunk), so steady state allocates nothing.
	consHead *consChunk

	// Memoized olderStoreScan verdict, valid while scanVer matches the
	// core's lsqVer — quiesce reuses what issue just computed instead
	// of re-walking the window.
	scanVer   uint64
	scanStall bool
	scanFwd   *entry
}

// consRef is one wakeup registration: entry e (identified by seq, so a
// recycled slot is detected) waits on the producer in source slot slot.
type consRef struct {
	e    *entry
	seq  uint64
	slot int8
}

// consChunk is a fixed-size block of wakeup registrations. Producers
// hold a chain of chunks rather than per-entry slices: the core's
// total live registrations are bounded by two source slots per window
// entry, so the free list converges to a fixed size and the
// steady-state cycle loop stays exactly allocation-free — per-entry
// backing arrays would instead grow lazily forever as pool objects
// rotate through producer roles.
const consChunkCap = 7

type consChunk struct {
	refs [consChunkCap]consRef
	n    int8
	next *consChunk
}

// entryRef is a seq-tagged reference into the window used by the
// scheduler queues (execQ, pendQ). A squash leaves stale references
// behind; they are skipped when the slot is dead or was recycled under
// a new seq. Seqs strictly increase and are never reused, so the tag
// is unambiguous.
type entryRef struct {
	e   *entry
	seq uint64
}

func (e *entry) srcCount() int {
	switch e.ins.Op {
	case isa.OpNop, isa.OpJmp, isa.OpISync, isa.OpHalt:
		return 0
	case isa.OpAddi, isa.OpShli, isa.OpShri, isa.OpSlti, isa.OpMix, isa.OpLd, isa.OpLL:
		return 1
	default:
		return 2
	}
}

// operandRegs returns the architected registers feeding the two source
// slots: slot 0 is Ra; slot 1 is Rb for ALU/branch ops and Rd (the
// store value) for St/SC.
func operandRegs(ins isa.Instr) [2]uint8 {
	switch ins.Op {
	case isa.OpSt, isa.OpSC:
		return [2]uint8{ins.Ra, ins.Rd}
	default:
		return [2]uint8{ins.Ra, ins.Rb}
	}
}

func (e *entry) ready() bool { return e.pendingSrcs == 0 }

// fetchSlot is an instruction in the front-end pipeline.
type fetchSlot struct {
	pc      int
	ins     isa.Instr
	readyAt uint64
	// Branch prediction made at fetch.
	predTaken bool
	predNext  int
}

// cpuCounters holds the core's pre-resolved counter handles (see
// stats.Counter).
type cpuCounters struct {
	loads         stats.Counter
	stores        stats.Counter
	branchMispred stats.Counter
	squash        stats.Counter
	scIssued      stats.Counter
	lsqForward    stats.Counter
	loadSpec      stats.Counter
	ruuFull       stats.Counter
	lsqFull       stats.Counter
	lvpSquash     stats.Counter
	loadReplay    stats.Counter

	// storeBufFull, l1Miss, l2Miss and mshrFull are the controller's
	// handles (the counters object is shared machine-wide): SkipCycles
	// replays the bumps the refused StoreCommit and counted load
	// retries of each skipped stall cycle would have made, and issue
	// replays the counted retries of the parked loads it reaches (see
	// parkQ).
	storeBufFull stats.Counter
	l1Miss       stats.Counter
	l2Miss       stats.Counter
	mshrFull     stats.Counter
}

func resolveCPUCounters(cs *stats.Counters) cpuCounters {
	return cpuCounters{
		loads:         cs.Counter("cpu/loads"),
		stores:        cs.Counter("cpu/stores"),
		branchMispred: cs.Counter("cpu/branch_mispredict"),
		squash:        cs.Counter("cpu/squash"),
		scIssued:      cs.Counter("cpu/sc_issued"),
		lsqForward:    cs.Counter("cpu/lsq_forward"),
		loadSpec:      cs.Counter("cpu/load_spec"),
		ruuFull:       cs.Counter("cpu/ruu_full"),
		lsqFull:       cs.Counter("cpu/lsq_full"),
		lvpSquash:     cs.Counter("cpu/lvp_squash"),
		loadReplay:    cs.Counter("cpu/load_replay"),
		storeBufFull:  cs.Counter("store/buffer_full"),
		l1Miss:        cs.Counter("l1/miss"),
		l2Miss:        cs.Counter("l2/miss"),
		mshrFull:      cs.Counter("l2/mshr_full"),
	}
}

// Core is one simulated CPU.
type Core struct {
	cfg    Config
	id     int
	prog   *isa.Program
	memsys MemSystem
	cnt    cpuCounters
	tr     *trace.Tracer

	now     uint64
	nextSeq uint64

	regs    [isa.NumRegs]uint64 // committed architected state
	regProd [isa.NumRegs]*entry // latest in-flight producer per register

	ruu     []*entry // program order, oldest first
	ruuBuf  []*entry // backing storage: ruu slides forward as heads retire and is compacted back onto this buffer when the capacity is reached
	lsqUsed int

	// entryPool recycles retired/squashed RUU entries so dispatch does
	// not allocate in steady state. chunkFree is the consChunk free
	// list (intrusive, via next).
	entryPool []*entry
	chunkFree *consChunk

	// Scheduler fast-path bookkeeping.
	numExecuting   int // entries between issue and completion
	storesInFlight int // unretired stores in the window

	// execQ holds the executing entries sorted by seq, so complete
	// touches only in-flight work instead of walking the whole window.
	// readyQ holds the actionable unissued entries sorted by seq — the
	// issue loop's working set. An entry becomes actionable (and is
	// enqueued exactly once, see entry.queued) when its last operand
	// broadcast arrives, or, for a store, when its base register is
	// ready for address resolution; operand-blocked entries are never
	// visited. Both queues hold seq-tagged references pruned lazily
	// (see entryRef).
	execQ  []entryRef
	readyQ []entryRef

	// parkQ holds, sorted by seq, the loads whose last Load answered
	// core.LoadRetryFull, taken out of readyQ; parkKey is the
	// memsys.RetryVersion at which the first of them parked. While the
	// version holds, every one of them would retry again, so issue
	// visits none of them: it counts the ones its walk would have
	// reached and bumps l1/miss, l2/miss and l2/mshr_full by that count
	// (see countParked), and quiesce counts all of them as spin
	// retries. When the version moves, wakeParked merges them back into
	// readyQ and the next walk probes them again. A load parked after
	// the version moved past parkKey keeps the older key, which only
	// wakes the set early. Entries are live loads, so the LSQ bounds
	// the set; squashAfter trims its tail.
	parkQ   []entryRef
	parkKey uint64

	// LSQ disambiguation filter: an incrementally-maintained summary
	// of the window's stores. lsqUnresolved counts in-window stores
	// whose address is still unknown; lsqBucket counts resolved stores
	// per word-address hash bucket. A load whose bucket is empty while
	// every store address is resolved provably has no older-store
	// conflict, so olderStoreScan answers O(1) without walking the
	// window. lsqVer changes whenever any scan input changes (store
	// address resolves, store data arrives, SC completes or elides,
	// store retires or is squashed) and keys the per-entry memo.
	lsqUnresolved int
	lsqBucket     [64]uint16
	lsqVer        uint64

	fetchQ    []fetchSlot
	fetchBuf  []fetchSlot // backing storage for fetchQ, compacted like ruuBuf
	fetchPC   int
	fetchStop bool // halt fetched (or fetch redirected off the end)

	bpred *bpred

	// isync drain: dispatch stalls while a serializing instruction is
	// in flight (outside an SLE region).
	drainISync *entry

	// Last committed load-locked, for SLE idiom detection.
	lastLL struct {
		valid bool
		addr  uint64
		value uint64
	}

	sle *sleEngine

	halted  bool
	retired uint64

	// startAt gates the whole pipeline: the core performs no work
	// before this cycle (fetch, dispatch, everything). It is the
	// per-core start-offset schedule-perturbation knob the litmus
	// enumeration mode sweeps; 0 (the default) is the historical
	// behavior. The gate is fast-forward-exact: quiesce reports
	// startAt as the horizon and the pre-start ticks are pure no-ops,
	// so skipped and naive runs stay bit-identical.
	startAt uint64

	// Machine-wide aggregation hooks (see AttachMachine): bumped at
	// the retirement event itself so the system's run loop never has
	// to re-scan every core per cycle.
	machRetired *uint64
	machHalted  *int

	// checker, when enabled, re-executes every committed instruction
	// in order against the committed register file and panics on
	// divergence (the PHARMsim-vs-SimOS validation idea).
	checker bool

	// OnCommit, when non-nil, observes every retired instruction in
	// program order (tests and tracing).
	OnCommit func(pc int, ins isa.Instr)

	// OnCommitDebug additionally exposes captured operands and result.
	OnCommitDebug func(seq uint64, pc int, ins isa.Instr, src0, src1, result uint64)

	// Cached fast-forward horizon. A quiescent core's quiesce result
	// is invariant until something it read changes: every mutating
	// core entry point (LoadDone, LoadsVerified, SquashSpec, SCDone,
	// ExternalSnoop) drops the cache, and memory-system changes are
	// caught by revalidating memsys.StateVersion against the snapshot
	// taken at cache time. While the cache holds, a Tick is by
	// contract a pure spin and replays the cached spin set in O(1);
	// SkipCycles only advances counters and the clock, so it keeps
	// the cache alive across a skip.
	horizonValid  bool
	horizonNext   uint64
	horizonSpin   coreSpin
	horizonMemVer uint64
}

// New builds a core running prog against the given memory system. id
// is used only for diagnostics.
func New(cfg Config, id int, prog *isa.Program, m MemSystem, counters *stats.Counters) *Core {
	cfg = cfg.withDefaults()
	if counters == nil {
		counters = stats.NewCounters()
	}
	c := &Core{
		cfg:      cfg,
		id:       id,
		prog:     prog,
		memsys:   m,
		cnt:      resolveCPUCounters(counters),
		ruuBuf:   make([]*entry, cfg.RUUSize),
		fetchBuf: make([]fetchSlot, cfg.RUUSize),
		bpred:    newBpred(1024),
		lsqVer:   1, // nonzero so a recycled entry's zeroed scanVer never matches
	}
	c.ruu = c.ruuBuf[:0]
	c.fetchQ = c.fetchBuf[:0]
	// Preallocate the scheduler structures to their worst-case bounds
	// so the cycle loop never allocates: the queues hold at most the
	// window plus compaction slack in stale references, and the chunk
	// free list at most one partial chunk per producer plus the full
	// registration load (two source slots per window entry).
	c.execQ = make([]entryRef, 0, 2*cfg.RUUSize)
	c.readyQ = make([]entryRef, 0, 2*cfg.RUUSize)
	c.parkQ = make([]entryRef, 0, cfg.LSQSize)
	for i := 0; i < cfg.RUUSize+2*cfg.RUUSize/consChunkCap; i++ {
		c.putChunk(&consChunk{})
	}
	c.entryPool = make([]*entry, 0, cfg.RUUSize+1)
	for i := 0; i < cfg.RUUSize; i++ {
		c.entryPool = append(c.entryPool, &entry{})
	}
	if cfg.SLE.Enabled {
		c.sle = newSLEEngine(c, cfg.SLE, counters)
	}
	return c
}

// SetMemSystem binds the memory system after construction. The core
// and its controller reference each other (the controller's client is
// the core), so one side must be bound late; New accepts a nil m for
// this purpose. It must be called before the first Tick.
func (c *Core) SetMemSystem(m MemSystem) { c.memsys = m }

// EnableChecker turns on in-order commit checking (tests).
func (c *Core) EnableChecker() { c.checker = true }

// SetStartCycle delays the core's first cycle of work: no fetch,
// dispatch, or execution happens before cycle at. Must be called
// before the first Tick. A deterministic schedule-perturbation knob
// (sim.Config.StartOffsets): shifting one core's start re-times every
// one of its memory accesses relative to its rivals without touching
// any latency parameter.
func (c *Core) SetStartCycle(at uint64) { c.startAt = at }

// AttachMachine registers machine-wide aggregation targets: retired is
// incremented once per committed instruction and halted once when this
// core retires its Halt. The system run loop keeps its progress
// watchdog and termination check O(1) per cycle by reading these
// aggregates instead of scanning every core. Either pointer may be
// nil.
func (c *Core) AttachMachine(retired *uint64, halted *int) {
	c.machRetired = retired
	c.machHalted = halted
}

// SetTracer attaches the event tracer (nil disables tracing).
func (c *Core) SetTracer(tr *trace.Tracer) { c.tr = tr }

// Halted reports whether the program has fully retired its halt.
func (c *Core) Halted() bool { return c.halted }

// Retired returns the number of committed instructions.
func (c *Core) Retired() uint64 { return c.retired }

// Cycles returns the core's cycle count.
func (c *Core) Cycles() uint64 { return c.now }

// Reg returns a committed architected register (tests, results).
func (c *Core) Reg(r int) uint64 { return c.regs[r] }

// SLEStats exposes the elision engine (nil when disabled).
func (c *Core) SLEStats() *sleEngine { return c.sle }

// ElidedLockValue reports the lock word and speculative (never
// performed) acquire value of the currently active SLE region. The
// coherence checker's retired-load oracle consults it: a region load
// of the elided lock legitimately observes the acquire value even
// though no store ever becomes globally visible.
func (c *Core) ElidedLockValue() (addr, val uint64, ok bool) {
	if c.sle == nil || !c.sle.active {
		return 0, 0, false
	}
	return c.sle.lockAddr, c.sle.specVal, true
}

// freeEntry returns a dead RUU entry to the pool for reuse by
// dispatchOne. Callers must have dropped every strong reference to it
// first (regProd, drainISync, the SLE engine's region view); the lazy
// seq-tagged references in execQ/pendQ/cons see the dead flag.
func (c *Core) freeEntry(e *entry) {
	e.dead = true
	for ch := e.consHead; ch != nil; {
		next := ch.next
		c.putChunk(ch)
		ch = next
	}
	e.consHead = nil
	c.entryPool = append(c.entryPool, e)
}

func (c *Core) getChunk() *consChunk {
	if ch := c.chunkFree; ch != nil {
		c.chunkFree = ch.next
		ch.next = nil
		return ch
	}
	return &consChunk{}
}

func (c *Core) putChunk(ch *consChunk) {
	ch.n = 0
	ch.next = c.chunkFree
	c.chunkFree = ch
}

// addConsumer registers consumer w's source slot against producer p.
func (c *Core) addConsumer(p, w *entry, slot int8) {
	ch := p.consHead
	if ch == nil || ch.n == consChunkCap {
		nc := c.getChunk()
		nc.next = ch
		p.consHead = nc
		ch = nc
	}
	ch.refs[ch.n] = consRef{w, w.seq, slot}
	ch.n++
}

// entryBySeq resolves a sequence number to its window entry, or nil
// when the seq is not in flight. The window is sorted by seq but not
// contiguous — a squash kills a tail of seqs that are never reused,
// so a refetch resumes at a higher seq — hence binary search rather
// than head-relative indexing. Callbacks that need it (LoadDone,
// SCDone, LVP verification) fire per memory event, not per cycle.
func (c *Core) entryBySeq(seq uint64) *entry {
	lo, hi := 0, len(c.ruu)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c.ruu[mid].seq < seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(c.ruu) && c.ruu[lo].seq == seq {
		return c.ruu[lo]
	}
	return nil
}

// markExecuting moves an entry into the executing state and registers
// it with complete's queue, keeping execQ sorted by seq (insertion
// from the back: out-of-order wakeups such as a LoadDone for an old
// load land behind already-queued younger entries).
func (c *Core) markExecuting(e *entry) {
	e.executing = true
	c.numExecuting++
	q := append(c.execQ, entryRef{})
	i := len(q) - 1
	for i > 0 && q[i-1].seq > e.seq {
		q[i] = q[i-1]
		i--
	}
	q[i] = entryRef{e, e.seq}
	c.execQ = q
}

// enqueueReady registers an actionable unissued entry with the issue
// queue, keeping readyQ sorted by seq. Safe to call from a broadcast
// fired inside the issue walk (an elided SC waking its consumers):
// consumers are strictly younger than the broadcasting entry at the
// walk cursor, so the insertion lands beyond the cursor and is picked
// up by the same cycle's walk — exactly as the old full-window scan
// saw entries woken ahead of it.
func (c *Core) enqueueReady(e *entry) {
	if e.queued || e.issued || e.done || e.dead {
		return
	}
	e.queued = true
	q := append(c.readyQ, entryRef{})
	i := len(q) - 1
	for i > 0 && q[i-1].seq > e.seq {
		q[i] = q[i-1]
		i--
	}
	q[i] = entryRef{e, e.seq}
	c.readyQ = q
}

// Tick advances the core one cycle. When a cached quiescence horizon
// is still valid and strictly in the future, this tick is by the
// NextEvent contract a pure spin — nothing in the pipeline can move —
// so the full commit/issue/dispatch scan is replaced by an O(1)
// replay of the cached spin-counter set (the same bumps the scan
// would have made).
func (c *Core) Tick(now uint64) {
	if c.horizonValid && c.horizonNext > now &&
		c.memsys.StateVersion() == c.horizonMemVer {
		c.now = now
		c.replaySpin(c.horizonSpin, 1)
		return
	}
	c.horizonValid = false
	c.now = now
	if c.halted || now < c.startAt {
		return
	}
	c.commit()
	c.complete()
	c.issue()
	c.dispatch()
	c.fetch()
}

// Spin flags classify the constant per-cycle counter effects a
// quiescent core still produces each tick: a stalled machine is not
// silent — a blocked dispatch bumps ruu_full/lsq_full and a refused
// StoreCommit bumps store/buffer_full every single cycle. SkipCycles
// replays them batched so skipped and ticked runs stay bit-identical.
const (
	spinRUUFull = 1 << iota
	spinLSQFull
	spinStoreBufFull
)

// coreSpin is the constant per-cycle effect set of a quiescent core:
// the stall-counter flags above plus the number of ready loads whose
// retry reaches the exhausted MSHR file each cycle (each such retry
// bumps l1/miss, l2/miss, and l2/mshr_full).
type coreSpin struct {
	flags       uint8
	loadRetries uint64
}

// quiesce computes the core's fast-forward horizon at cycle now: the
// earliest future cycle Tick could change state beyond the constant
// spin-counter effects reported in spin. next == now means the next
// tick acts immediately (nothing to skip, spin meaningless); a future
// next is the minimum over execution doneAt and fetch-queue readyAt
// times; ^uint64(0) means idle until an external callback (LoadDone,
// SCDone, snoop). Underestimating (waking early) merely wastes a
// tick; overestimating, or misclassifying an effect as constant,
// would break bit-identity with the naive loop.
func (c *Core) quiesce(now uint64) (next uint64, spin coreSpin) {
	const never = ^uint64(0)
	if c.halted {
		return never, coreSpin{}
	}
	if now < c.startAt {
		// Not yet started: the pre-start ticks are pure no-ops, so the
		// horizon is exactly the start cycle with no spin effects.
		return c.startAt, coreSpin{}
	}
	if c.sle != nil && c.sle.speculating() {
		return now, coreSpin{} // sle.tick runs every cycle while a region is live
	}
	c.wakeParked()
	next = never
	if len(c.ruu) > 0 {
		if h := c.ruu[0]; h.done && !h.specVal {
			if h.ins.Op == isa.OpSt && c.memsys.StoreBufFull() {
				// Commit is blocked on the full store buffer; the
				// refused StoreCommit bumps store/buffer_full each
				// cycle. The buffer drains only via bus events, which
				// the bus horizon bounds.
				spin.flags |= spinStoreBufFull
			} else {
				return now, coreSpin{} // head retires
			}
		}
	}
	// Executing entries bound the horizon by their completion times;
	// only readyQ entries (dispatched, unissued, actionable) can pin
	// the machine to now. Together they cover exactly the cases the
	// full window walk distinguished: everything else in the window is
	// operand-blocked (visited nothing in the old walk either) or
	// issued/done and waiting on a callback.
	for _, r := range c.execQ {
		e := r.e
		if e.dead || e.seq != r.seq || !e.executing {
			continue // stale reference from a squash
		}
		if e.doneAt < next {
			next = e.doneAt
		}
	}
	for _, r := range c.readyQ {
		e := r.e
		if e.dead || e.seq != r.seq || e.issued || e.done {
			continue // stale reference, or left the actionable set
		}
		if e.needsAddr && e.srcReady[0] {
			return now, coreSpin{} // store address resolves this tick
		}
		if e.pendingSrcs != 0 {
			continue // resolved store waiting on its data broadcast
		}
		switch {
		case e.isLoad:
			if !e.addrKnown {
				return now, coreSpin{} // first issueLoad call resolves the address
			}
			stall, fwd := c.olderStoreScan(e)
			if stall {
				continue // pure disambiguation stall
			}
			if fwd != nil {
				return now, coreSpin{} // forwards from an older store
			}
			switch c.memsys.PeekLoad(e.effAddr) {
			case core.LoadProbeActive:
				return now, coreSpin{} // hit, merge, or new request
			case core.LoadProbeRetryCounted:
				spin.loadRetries++ // miss counters bump every cycle
			}
			// LoadProbeRetryPure: silent retry, nothing to replay.
		case e.ins.Op == isa.OpSC:
			if len(c.ruu) > 0 && e == c.ruu[0] && !e.scSent {
				return now, coreSpin{}
			}
		default:
			return now, coreSpin{} // ALU/store/branch/nop executes immediately
		}
	}
	if len(c.fetchQ) > 0 {
		if h := c.fetchQ[0].readyAt; h > now {
			if h < next {
				next = h
			}
		} else if len(c.ruu) >= c.cfg.RUUSize {
			spin.flags |= spinRUUFull // ruu_full bumps every cycle
		} else if c.fetchQ[0].ins.IsMem() && c.lsqUsed >= c.cfg.LSQSize {
			spin.flags |= spinLSQFull // lsq_full bumps every cycle
		} else if c.drainISync == nil {
			return now, coreSpin{} // head dispatches
		}
		// drainISync-blocked dispatch is a pure stall: the drain ends
		// when the serializing entry retires, which the head-retire and
		// doneAt terms above already cover.
	}
	if !c.fetchStop && len(c.fetchQ)+len(c.ruu) < c.cfg.RUUSize {
		return now, coreSpin{} // fetch fills the queue
	}
	if next == never {
		// Callback-waiting: every in-window op is blocked on a memory
		// completion (LoadDone/SCDone) or a dependent broadcast. When
		// the memory system already knows the earliest fill cycle of
		// this node's granted misses, report it — the known-latency
		// horizon — instead of "unknown". Ungranted requests stay
		// "never": arbitration is the bus horizon's to bound.
		if at, ok := c.memsys.EarliestFill(); ok && at > now {
			next = at
		}
	}
	// Nothing issues this cycle, so the walk would reach every parked
	// load and each would retry.
	if c.checker {
		c.checkParked(len(c.parkQ))
	}
	spin.loadRetries += uint64(len(c.parkQ))
	return next, spin
}

// NextEvent returns the earliest future cycle at which Tick could
// change state beyond constant per-cycle counter spins, or ^uint64(0)
// when the core waits on an external callback. now means the next
// tick acts immediately.
func (c *Core) NextEvent(now uint64) uint64 {
	if c.horizonValid {
		if c.memsys.StateVersion() == c.horizonMemVer {
			return c.horizonNext
		}
		c.horizonValid = false
	}
	next, spin := c.quiesce(now)
	if next > now {
		// Only a strictly-future horizon is cacheable: it cannot
		// arrive without this core noticing — ticks while it holds
		// are pure spins, and every state change that could break
		// quiescence either enters through a Client callback (which
		// invalidates) or bumps the memory system's StateVersion.
		c.horizonValid = true
		c.horizonNext = next
		c.horizonSpin = spin
		c.horizonMemVer = c.memsys.StateVersion()
	}
	return next
}

// SkipCycles replays the side effects of ticking every cycle in
// [from, to) while the core is quiescent: the spin counters of the
// stalled state advance by the skipped cycle count, and the clock
// lands on to-1 — the value Tick(to-1) would have left, which
// controller callbacks firing during the next cycle's bus phase
// (LoadDone, SCDone) read before the core's next Tick.
func (c *Core) SkipCycles(from, to uint64) {
	spin := c.horizonSpin
	if !c.horizonValid || c.memsys.StateVersion() != c.horizonMemVer {
		_, spin = c.quiesce(from)
	}
	c.replaySpin(spin, to-from)
	c.now = to - 1
}

// replaySpin applies k cycles' worth of the constant counter effects a
// quiescent core produces each tick (the bumps commit/dispatch/issue
// would have made).
func (c *Core) replaySpin(spin coreSpin, k uint64) {
	if spin.flags&spinStoreBufFull != 0 {
		c.cnt.storeBufFull.Add(k)
	}
	if spin.flags&spinRUUFull != 0 {
		c.cnt.ruuFull.Add(k)
	}
	if spin.flags&spinLSQFull != 0 {
		c.cnt.lsqFull.Add(k)
	}
	if n := spin.loadRetries; n > 0 {
		// Each retrying load misses L1 and L2 and finds the MSHR file
		// exhausted every cycle (Controller.Load's counted-retry path).
		c.cnt.l1Miss.Add(k * n)
		c.cnt.l2Miss.Add(k * n)
		c.cnt.mshrFull.Add(k * n)
	}
}

// ---------------------------------------------------------------------------
// Commit
// ---------------------------------------------------------------------------

func (c *Core) commit() {
	if c.sle != nil && c.sle.speculating() {
		// While an elision is live the commit pointer is frozen at
		// the region head; the engine decides when the whole region
		// commits atomically (or aborts).
		c.sle.tick()
		return
	}
	for n := 0; n < c.cfg.CommitWidth && len(c.ruu) > 0; n++ {
		e := c.ruu[0]
		if !e.done || e.specVal {
			return
		}
		if e.ins.Op == isa.OpSt {
			// The store performs at retirement; a full store buffer
			// stalls commit.
			if !c.memsys.StoreCommit(e.seq, uint64(e.pc), e.effAddr, e.src[1]) {
				return
			}
		}
		c.retireHead()
	}
}

// retireHead retires ruu[0] into architected state.
func (c *Core) retireHead() {
	e := c.ruu[0]
	c.ruu = c.ruu[1:]
	if e.isStore {
		c.lsqStoreLeft(e)
	}
	if e.executing {
		c.numExecuting--
	}
	if c.OnCommit != nil {
		c.OnCommit(e.pc, e.ins)
	}
	if c.OnCommitDebug != nil {
		c.OnCommitDebug(e.seq, e.pc, e.ins, e.src[0], e.src[1], e.result)
	}
	if e.ins.IsMem() {
		c.lsqUsed--
	}
	if rd, ok := e.ins.WritesReg(); ok {
		c.regs[rd] = e.result
		if c.regProd[rd] == e {
			c.regProd[rd] = nil
		}
	}
	if e.ins.Op == isa.OpLL {
		c.lastLL.valid = true
		c.lastLL.addr = e.effAddr
		c.lastLL.value = e.result
	}
	if c.drainISync == e {
		c.drainISync = nil
	}
	if e.ins.Op == isa.OpHalt {
		c.halted = true
		if c.machHalted != nil {
			*c.machHalted++
		}
	}
	if e.isLoad {
		c.cnt.loads.Inc()
	} else if e.isStore {
		c.cnt.stores.Inc()
	}
	c.retired++
	if c.machRetired != nil {
		*c.machRetired++
	}
	if c.checker {
		c.checkCommit(e)
	}
	c.freeEntry(e)
}

// checkCommit re-executes the instruction in order and compares. Loads
// and SCs use the out-of-order value (memory order is the bus's to
// define); everything else must match a pure in-order evaluation.
func (c *Core) checkCommit(e *entry) {
	ins := e.ins
	if ins.IsMem() || ins.IsBranch() || ins.Op == isa.OpNop ||
		ins.Op == isa.OpISync || ins.Op == isa.OpHalt {
		return
	}
	want := isa.EvalALU(ins, e.src[0], e.src[1])
	if want != e.result {
		panic(fmt.Sprintf("cpu%d: checker divergence at pc %d (%s): got %d want %d",
			c.id, e.pc, isa.Disassemble(e.pc, ins), e.result, want))
	}
}

// ---------------------------------------------------------------------------
// Complete / wakeup
// ---------------------------------------------------------------------------

func (c *Core) complete() {
	if c.numExecuting == 0 {
		// Only stale squash leftovers can remain queued; drop them so
		// the queue cannot grow without bound.
		if len(c.execQ) > 0 {
			c.execQ = c.execQ[:0]
		}
		return
	}
	// Walk the executing set in program (seq) order — the same order
	// the old full-window walk visited entries, which matters because
	// resolving a mispredicted branch squashes everything younger.
	// Entries killed by such a squash sit behind the branch in the
	// queue and are skipped by the dead check, exactly as the
	// truncated window hid them from the indexed walk.
	out := c.execQ[:0]
	for i := 0; i < len(c.execQ); i++ {
		r := c.execQ[i]
		e := r.e
		if e.dead || e.seq != r.seq || !e.executing {
			continue // stale reference from a squash
		}
		if e.doneAt > c.now {
			out = append(out, r)
			continue
		}
		e.executing = false
		c.numExecuting--
		e.done = true
		if e.isStore {
			c.lsqVer++ // an SC completing changes disambiguation verdicts
		}
		c.broadcast(e)
		if e.isBranch {
			c.resolveBranch(e)
		}
	}
	c.execQ = out
}

// broadcast wakes the consumers registered against e at dispatch. The
// list can hold references to squashed (recycled or pooled) entries;
// the seq tag filters them. Waking a store's data operand changes
// forwarding verdicts, so it bumps lsqVer. Wake order (chunk order,
// not window order) is immaterial: the per-slot effects are disjoint
// and enqueueReady's sorted insert canonicalizes the issue order.
func (c *Core) broadcast(e *entry) {
	ch := e.consHead
	if ch == nil {
		return
	}
	e.consHead = nil
	seq, res := e.seq, e.result
	for ch != nil {
		for k := int8(0); k < ch.n; k++ {
			r := ch.refs[k]
			w := r.e
			if w.dead || w.seq != r.seq {
				continue
			}
			i := r.slot
			if !w.srcReady[i] && w.srcProd[i] == seq {
				w.srcReady[i] = true
				w.src[i] = res
				w.pendingSrcs--
				if w.isStore && i == 1 {
					c.lsqVer++
				}
				if w.pendingSrcs == 0 || (i == 0 && w.needsAddr) {
					// Fully woken, or a store whose address can now
					// resolve: it becomes the issue walk's business.
					c.enqueueReady(w)
				}
			}
		}
		next := ch.next
		c.putChunk(ch)
		ch = next
	}
}

func (c *Core) resolveBranch(e *entry) {
	taken := isa.BranchTaken(e.ins, e.src[0], e.src[1])
	next := e.pc + 1
	if taken {
		next = int(e.ins.Target)
	}
	c.bpred.update(e.pc, taken)
	if taken == e.predTaken && (!taken || next == e.predNext) {
		return
	}
	c.cnt.branchMispred.Inc()
	c.squashAfter(e.seq, next)
}

// ---------------------------------------------------------------------------
// Squash
// ---------------------------------------------------------------------------

// squashAfter kills every entry younger than seq and redirects fetch.
func (c *Core) squashAfter(seq uint64, newPC int) {
	keep := c.ruu[:0]
	for _, e := range c.ruu {
		if e.seq <= seq {
			keep = append(keep, e)
		} else {
			if e.ins.IsMem() {
				c.lsqUsed--
			}
			if e.isStore {
				c.lsqStoreLeft(e)
			}
			if e.executing {
				c.numExecuting--
			}
			if c.drainISync == e {
				c.drainISync = nil
			}
		}
	}
	// Program order makes seq monotone over the window, so the killed
	// entries are exactly the tail past the survivors.
	killed := c.ruu[len(keep):]
	c.ruu = keep
	for n := len(c.parkQ); n > 0 && c.parkQ[n-1].seq > seq; n-- {
		c.parkQ = c.parkQ[:n-1]
	}
	c.fetchQ = c.fetchQ[:0]
	c.fetchPC = newPC
	c.fetchStop = false
	c.rebuildRename()
	if c.sle != nil {
		c.sle.onSquash(seq)
	}
	// Recycle the dead tail only after the SLE engine has observed the
	// squash (it may still read its frozen SC entry there). The slots
	// are left pointing at the pooled entries: callers snapshotting the
	// window across a squash may still walk them.
	for _, e := range killed {
		c.freeEntry(e)
	}
	c.cnt.squash.Inc()
}

// SquashFromSeq kills the entry with the given seq and everything
// younger, re-fetching from that instruction (LVP misprediction
// recovery).
func (c *Core) squashFromSeq(seq uint64) {
	e := c.entryBySeq(seq)
	if e == nil {
		return
	}
	c.squashAfter(seq-1, e.pc)
}

func (c *Core) rebuildRename() {
	for i := range c.regProd {
		c.regProd[i] = nil
	}
	for _, e := range c.ruu {
		if rd, ok := e.ins.WritesReg(); ok {
			c.regProd[rd] = e
		}
	}
}

// ---------------------------------------------------------------------------
// Issue / execute
// ---------------------------------------------------------------------------

func (c *Core) issue() {
	c.wakeParked()
	issued, memIssued := 0, 0
	// cut is the seq of the entry whose issue used up IssueWidth or
	// MemPorts; parked is how many loads this walk moved to parkQ.
	cut, parked := ^uint64(0), 0
	// Walk the actionable entries in program order, compacting
	// in place with a write cursor. The queue can grow mid-walk (an
	// elided SC's broadcast enqueues consumers, always beyond the read
	// cursor), so the loop re-reads the slice each iteration rather
	// than snapshotting it.
	w := 0
	for i := 0; i < len(c.readyQ); i++ {
		r := c.readyQ[i]
		e := r.e
		if e.dead || e.seq != r.seq || e.issued || e.done {
			continue // issued, completed (elided SC), or squashed
		}
		if issued >= c.cfg.IssueWidth {
			// Width exhausted: like the old walk's early return, no
			// further store address may resolve this cycle.
			w += copy(c.readyQ[w:], c.readyQ[i:])
			break
		}
		// Store addresses resolve as soon as the base register is
		// ready, independent of the data operand — real LSQs compute
		// them separately, and the SLE release scan and load
		// disambiguation both depend on early address resolution.
		if e.needsAddr && e.srcReady[0] {
			e.effAddr = isa.EffAddr(e.ins, e.src[0])
			e.addrKnown = true
			e.needsAddr = false
			c.lsqUnresolved--
			c.lsqBucket[lsqBucketOf(e.effAddr)]++
			c.lsqVer++
			if c.sle != nil && e.ins.Op == isa.OpSt {
				c.sle.onStoreResolved(e)
			}
		}
		keep := true
		if e.pendingSrcs != 0 {
			// Resolved-address store awaiting its data broadcast.
		} else {
			switch {
			case e.isLoad:
				if memIssued < c.cfg.MemPorts {
					switch c.issueLoad(e) {
					case loadIssued:
						issued++
						memIssued++
						keep = false
					case loadParked:
						c.park(r)
						parked++
						keep = false
					}
				}
			case e.ins.Op == isa.OpSt:
				// Stores "execute" once address and data are known; the
				// write happens at retirement.
				e.issued = true
				e.done = true
				e.result = 0
				issued++
				keep = false
			case e.ins.Op == isa.OpSC:
				// SC executes only at the head of the window (a
				// serialization the real stwcx. shares). It stays queued
				// until its completion or elision marks it done.
				if len(c.ruu) > 0 && e == c.ruu[0] && !e.scSent {
					c.issueSC(e)
				}
				keep = !e.done
			case e.isBranch || e.ins.Op == isa.OpNop || e.ins.Op == isa.OpISync || e.ins.Op == isa.OpHalt:
				e.issued = true
				e.doneAt = c.now + uint64(e.ins.BaseLatency())
				c.markExecuting(e)
				issued++
				keep = false
			default: // ALU
				e.issued = true
				e.doneAt = c.now + uint64(e.ins.BaseLatency())
				e.result = isa.EvalALU(e.ins, e.src[0], e.src[1])
				c.markExecuting(e)
				issued++
				keep = false
			}
		}
		if keep {
			c.readyQ[w] = r
			w++
		}
		if cut == ^uint64(0) && (issued >= c.cfg.IssueWidth || memIssued >= c.cfg.MemPorts) {
			cut = e.seq
		}
	}
	c.readyQ = c.readyQ[:w]
	c.countParked(cut, parked)
}

// countParked bumps the counters of the parked loads this cycle's walk
// would have reached had they stayed in readyQ: each would have called
// Load and got LoadRetryFull again. The walk reaches a load only while
// IssueWidth and MemPorts both have room, so these are exactly the
// loads older than cut. The parked loads the walk just added made
// their own Load call; all of them are older than cut too.
func (c *Core) countParked(cut uint64, justParked int) {
	reached := len(c.parkQ)
	if cut != ^uint64(0) {
		lo := 0
		for lo < reached {
			mid := int(uint(lo+reached) >> 1)
			if c.parkQ[mid].seq < cut {
				lo = mid + 1
			} else {
				reached = mid
			}
		}
	}
	if c.checker {
		c.checkParked(reached)
	}
	if n := uint64(reached - justParked); n > 0 {
		c.cnt.l1Miss.Add(n)
		c.cnt.l2Miss.Add(n)
		c.cnt.mshrFull.Add(n)
	}
}

// park moves a load whose Load just answered core.LoadRetryFull from
// the issue walk into parkQ, keeping parkQ sorted by seq.
func (c *Core) park(r entryRef) {
	if len(c.parkQ) == 0 {
		c.parkKey = c.memsys.RetryVersion()
	}
	q := append(c.parkQ, entryRef{})
	i := len(q) - 1
	for i > 0 && q[i-1].seq > r.seq {
		q[i] = q[i-1]
		i--
	}
	q[i] = r
	c.parkQ = q
}

// wakeParked merges parkQ back into readyQ, in seq order and in place,
// once the retry version has moved: the parked loads' answers may have
// changed, so the next walk probes them again. readyQ's capacity is
// twice the window, and between two walks the two queues together
// reference only entries that were in the window after the last
// dispatch, so the merge never outgrows it.
func (c *Core) wakeParked() {
	p := c.parkQ
	if len(p) == 0 || c.memsys.RetryVersion() == c.parkKey {
		return
	}
	n := len(c.readyQ)
	q := c.readyQ[:n+len(p)]
	for i, j, k := n-1, len(p)-1, len(q)-1; j >= 0; k-- {
		if i >= 0 && q[i].seq > p[j].seq {
			q[k] = q[i]
			i--
		} else {
			q[k] = p[j]
			j--
		}
	}
	c.readyQ = q
	c.parkQ = p[:0]
}

// checkParked is the commit checker's cross-check of the first n
// parked loads, independent of any version: each must be live, have no
// older-store conflict, and still be a counted retry by PeekLoad. A
// failure means RetryVersion held across an event that changed what
// Load would answer.
func (c *Core) checkParked(n int) {
	for _, r := range c.parkQ[:n] {
		e := r.e
		if e.dead || e.seq != r.seq || e.issued || e.done {
			panic(fmt.Sprintf("cpu%d: parked load seq %d is no longer live", c.id, r.seq))
		}
		if stall, fwd := c.olderStoreScanFull(e); stall || fwd != nil {
			panic(fmt.Sprintf("cpu%d: parked load seq %d at %#x has an older-store conflict",
				c.id, e.seq, e.effAddr))
		}
		if p := c.memsys.PeekLoad(e.effAddr); p != core.LoadProbeRetryCounted {
			panic(fmt.Sprintf("cpu%d: parked load seq %d at %#x no longer retries (probe %d) at retry version %d",
				c.id, e.seq, e.effAddr, p, c.memsys.RetryVersion()))
		}
	}
}

// issueSC starts a store-conditional at the window head: either the
// SLE engine elides it, or it goes to the memory system.
func (c *Core) issueSC(e *entry) {
	if c.sle != nil && c.sle.tryStart(e) {
		return // elided: engine completed the SC
	}
	// Mark before the call: a memory system is allowed to answer
	// SCDone synchronously.
	e.scSent = true
	if c.memsys.SCExecute(e.seq, uint64(e.pc), e.effAddr, e.src[1]) {
		c.cnt.scIssued.Inc()
	} else {
		e.scSent = false // store buffer full; retry next cycle
	}
}

// lsqBucketOf hashes a word address into the disambiguation filter's
// bucket space. Equal addresses always share a bucket, so an empty
// bucket proves no-conflict; a collision merely costs a full scan.
func lsqBucketOf(addr uint64) int { return int((addr >> 3) & 63) }

// lsqStoreLeft removes a store leaving the window (retired or
// squashed) from the disambiguation filter and invalidates memoized
// scan verdicts, which may hold a forwarding pointer to it.
func (c *Core) lsqStoreLeft(e *entry) {
	c.storesInFlight--
	if e.addrKnown {
		c.lsqBucket[lsqBucketOf(e.effAddr)]--
	} else {
		c.lsqUnresolved--
	}
	c.lsqVer++
}

// olderStoreScan performs conservative LSQ disambiguation for a load
// whose address is known: it reports whether the load must stall (an
// unresolved older store address, an unresolved older SC, or a
// matching store whose data operand is not ready) and otherwise the
// youngest older store to the same word to forward from (nil: go to
// memory). Failed SCs are transparent (they wrote nothing).
// NextEvent shares the scan to classify a stalled load as pure.
//
// The common case is O(1): when every in-window store address is
// resolved and no store hashes to the load's address bucket, the walk
// could only answer (false, nil). The summary counts include stores
// younger than the load, so a hit is conservative — it just falls
// back to the full scan. Verdicts are memoized per entry under
// lsqVer, which changes whenever any scan input does, so quiesce
// reuses what issue computed the same cycle instead of re-walking.
func (c *Core) olderStoreScan(e *entry) (stall bool, fwd *entry) {
	if c.storesInFlight == 0 {
		return false, nil
	}
	if c.lsqUnresolved == 0 && c.lsqBucket[lsqBucketOf(e.effAddr)] == 0 {
		return false, nil
	}
	if e.scanVer == c.lsqVer {
		return e.scanStall, e.scanFwd
	}
	stall, fwd = c.olderStoreScanFull(e)
	e.scanVer = c.lsqVer
	e.scanStall, e.scanFwd = stall, fwd
	return stall, fwd
}

// olderStoreScanFull is the filter's fallback: the original
// O(older-stores) window walk.
func (c *Core) olderStoreScanFull(e *entry) (stall bool, fwd *entry) {
	for _, s := range c.ruu {
		if s.seq >= e.seq {
			break
		}
		if !s.isStore {
			continue
		}
		if !s.addrKnown {
			return true, nil // unresolved older store address: stall
		}
		if s.effAddr != e.effAddr {
			continue
		}
		if s.ins.Op == isa.OpSC {
			if !s.done {
				return true, nil
			}
			if s.result == 0 {
				continue // failed SC: transparent
			}
		}
		fwd = s // youngest match so far wins
	}
	if fwd != nil && !fwd.srcReady[1] {
		return true, nil // matching store, data not ready
	}
	return false, fwd
}

// Outcomes of issueLoad.
const (
	loadWait   = iota // not issued; stays in readyQ
	loadIssued        // consumed an issue slot and a memory port
	loadParked        // got core.LoadRetryFull; belongs in parkQ
)

// issueLoad tries to issue one load. Conservative LSQ disambiguation:
// the load waits for all older store addresses, forwards from an exact
// match, and otherwise goes to memory.
func (c *Core) issueLoad(e *entry) int {
	e.effAddr = isa.EffAddr(e.ins, e.src[0])
	e.addrKnown = true
	stall, fwd := c.olderStoreScan(e)
	if stall {
		return loadWait
	}
	if fwd != nil {
		e.issued = true
		e.doneAt = c.now + 1
		e.result = fwd.src[1]
		c.markExecuting(e)
		c.cnt.lsqForward.Inc()
		if c.sle != nil {
			c.sle.onLoadIssued(e)
		}
		return loadIssued
	}
	r := c.memsys.Load(e.seq, e.effAddr, e.ins.Op == isa.OpLL)
	switch r.Status {
	case core.LoadRetry:
		return loadWait
	case core.LoadRetryFull:
		return loadParked
	case core.LoadHit:
		e.issued = true
		e.doneAt = c.now + uint64(r.Lat)
		e.result = r.Value
		c.markExecuting(e)
	case core.LoadSpec:
		e.issued = true
		e.doneAt = c.now + uint64(r.Lat)
		e.result = r.Value
		e.specVal = true
		c.markExecuting(e)
		c.cnt.loadSpec.Inc()
	case core.LoadMiss:
		e.issued = true
		e.memSent = true
		// Completion arrives via LoadDone.
	}
	if c.sle != nil {
		c.sle.onLoadIssued(e)
	}
	return loadIssued
}

// ---------------------------------------------------------------------------
// Dispatch / fetch
// ---------------------------------------------------------------------------

func (c *Core) dispatch() {
	for n := 0; n < c.cfg.FetchWidth; n++ {
		if len(c.fetchQ) == 0 || c.fetchQ[0].readyAt > c.now {
			return
		}
		if len(c.ruu) >= c.cfg.RUUSize {
			c.cnt.ruuFull.Inc()
			return
		}
		slot := c.fetchQ[0]
		if slot.ins.IsMem() && c.lsqUsed >= c.cfg.LSQSize {
			c.cnt.lsqFull.Inc()
			return
		}
		// A serializing isync blocks younger dispatch until it
		// commits — unless the SLE engine is speculating through it
		// (§4.2.2's safety-check mechanism): a *safe* isync inside
		// the elision region does not drain. (An unsafe one aborts
		// the region at tryStart or dispatch time.)
		if c.drainISync != nil {
			speculatingThrough := c.sle != nil && c.sle.speculating() &&
				c.drainISync.seq > c.sle.scEntry.seq && !c.drainISync.ins.Unsafe
			if !speculatingThrough {
				return
			}
		}
		c.fetchQ = c.fetchQ[1:]
		c.dispatchOne(slot)
	}
}

func (c *Core) dispatchOne(slot fetchSlot) {
	c.nextSeq++
	var e *entry
	if n := len(c.entryPool); n > 0 {
		e = c.entryPool[n-1]
		c.entryPool[n-1] = nil
		c.entryPool = c.entryPool[:n-1]
		*e = entry{} // freeEntry already released the wakeup chunks
	} else {
		e = &entry{}
	}
	e.seq, e.pc, e.ins = c.nextSeq, slot.pc, slot.ins
	e.predTaken, e.predNext = slot.predTaken, slot.predNext
	e.isLoad = slot.ins.IsLoad()
	e.isStore = slot.ins.IsStore()
	e.isBranch = slot.ins.IsBranch()
	e.needsAddr = e.isStore
	regs := operandRegs(slot.ins)
	n := e.srcCount()
	e.nSrc = int8(n)
	for i := 0; i < n; i++ {
		r := regs[i]
		if r == 0 {
			e.srcReady[i] = true
			continue
		}
		if p := c.regProd[r]; p != nil {
			if p.done {
				e.src[i] = p.result
				e.srcReady[i] = true
			} else {
				e.srcProd[i] = p.seq
				e.pendingSrcs++
				c.addConsumer(p, e, int8(i))
			}
		} else {
			e.src[i] = c.regs[r]
			e.srcReady[i] = true
		}
	}
	if e.isStore {
		c.storesInFlight++
		c.lsqUnresolved++ // address unknown until issue resolves it
	}
	if rd, ok := slot.ins.WritesReg(); ok {
		c.regProd[rd] = e
	}
	if slot.ins.IsMem() {
		c.lsqUsed++
	}
	if slot.ins.Op == isa.OpISync {
		inSLE := c.sle != nil && c.sle.speculating()
		if inSLE {
			if slot.ins.Unsafe {
				c.sle.onUnsafeISync()
			}
			// Safe isync inside an elision region does not drain.
		} else {
			c.drainISync = e
		}
	}
	if len(c.ruu) == cap(c.ruu) {
		// The window slid forward off the front of ruuBuf as heads
		// retired; slide it back to the start. The dispatch guard
		// keeps len(ruu) < RUUSize, so room always reappears.
		n := copy(c.ruuBuf, c.ruu)
		c.ruu = c.ruuBuf[:n]
	}
	c.ruu = append(c.ruu, e)
	if e.pendingSrcs == 0 || (e.needsAddr && e.srcReady[0]) {
		c.enqueueReady(e) // actionable at dispatch; seq-order append
	}
}

func (c *Core) fetch() {
	for n := 0; n < c.cfg.FetchWidth; n++ {
		if c.fetchStop {
			return
		}
		if len(c.fetchQ)+len(c.ruu) >= c.cfg.RUUSize {
			return
		}
		ins := c.prog.At(c.fetchPC)
		slot := fetchSlot{pc: c.fetchPC, ins: ins, readyAt: c.now + uint64(c.cfg.PipeDepth)}
		next := c.fetchPC + 1
		if ins.IsBranch() {
			taken := c.bpred.predict(c.fetchPC, ins)
			slot.predTaken = taken
			if taken {
				slot.predNext = int(ins.Target)
				next = int(ins.Target)
			} else {
				slot.predNext = c.fetchPC + 1
			}
		}
		if ins.Op == isa.OpHalt {
			c.fetchStop = true
		}
		if len(c.fetchQ) == cap(c.fetchQ) {
			// Compact the queue back onto its backing buffer (it slid
			// forward as dispatch consumed the front).
			n := copy(c.fetchBuf, c.fetchQ)
			c.fetchQ = c.fetchBuf[:n]
		}
		c.fetchQ = append(c.fetchQ, slot)
		c.fetchPC = next
	}
}

// ---------------------------------------------------------------------------
// core.Client implementation (controller callbacks)
// ---------------------------------------------------------------------------

// LoadDone implements core.Client.
func (c *Core) LoadDone(seq uint64, value uint64) {
	c.horizonValid = false
	e := c.entryBySeq(seq)
	if e == nil || !e.memSent || e.done {
		return // squashed or stale
	}
	e.result = value
	e.doneAt = c.now
	e.memSent = false
	c.markExecuting(e)
}

// LoadsVerified implements core.Client: LVP predictions confirmed;
// the loads may now retire.
func (c *Core) LoadsVerified(seqs []uint64) {
	c.horizonValid = false
	for _, s := range seqs {
		if e := c.entryBySeq(s); e != nil {
			e.specVal = false
		}
	}
}

// SquashSpec implements core.Client (LVP value misprediction): squash
// from the oldest of the named ops that is still in flight. Ops
// already killed by earlier squashes were re-fetched clean and their
// replacements carry no speculative value from the failed line, so a
// fully dead list is a no-op.
func (c *Core) SquashSpec(seqs []uint64) {
	c.horizonValid = false
	var oldest uint64
	found := false
	for _, s := range seqs {
		if c.entryBySeq(s) != nil && (!found || s < oldest) {
			oldest = s
			found = true
		}
	}
	if !found {
		return
	}
	c.cnt.lvpSquash.Inc()
	c.squashFromSeq(oldest)
}

// SCDone implements core.Client.
func (c *Core) SCDone(seq uint64, success bool) {
	c.horizonValid = false
	e := c.entryBySeq(seq)
	if e == nil || !e.scSent {
		return
	}
	e.scDone = true
	e.doneAt = c.now
	if success {
		e.result = 1
	} else {
		e.result = 0
	}
	c.markExecuting(e)
}

// ExternalSnoop implements core.Client: routed to the SLE engine for
// atomicity-violation detection, and implements the MIPS R10K-style
// speculative-load replay that the machine's sequential-consistency
// model requires (Table 1, [35]/[13]): a snooped invalidation hitting
// a line read by a not-yet-retired load squashes that load and
// everything younger, forcing it to re-execute and observe the write.
func (c *Core) ExternalSnoop(lineAddr uint64, isWrite bool) {
	c.horizonValid = false
	if c.sle != nil {
		c.sle.onSnoop(lineAddr, isWrite)
	}
	if !isWrite {
		return
	}
	for _, e := range c.ruu {
		if !e.ins.IsLoad() || !e.addrKnown || mem.LineAddr(e.effAddr) != lineAddr {
			continue
		}
		if e.done || e.executing || e.memSent {
			c.cnt.loadReplay.Inc()
			c.squashFromSeq(e.seq)
			return
		}
	}
}

// windowAfter returns the RUU entries at and after the given seq
// (oldest first) — the SLE engine's view of its region.
func (c *Core) windowAfter(seq uint64) []*entry {
	for i, e := range c.ruu {
		if e.seq >= seq {
			return c.ruu[i:]
		}
	}
	return nil
}

var _ core.Client = (*Core)(nil)

// DebugSLE renders the SLE engine's last-abort diagnostics (debug aid).
func (c *Core) DebugSLE() string {
	if c.sle == nil {
		return "no sle"
	}
	return c.sle.debugLast
}

// DebugState renders the core's window for deadlock diagnostics.
func (c *Core) DebugState() string {
	out := fmt.Sprintf("cpu%d halted=%v retired=%d fetchPC=%d fetchQ=%d drain=%v ruu=%d lsq=%d\n",
		c.id, c.halted, c.retired, c.fetchPC, len(c.fetchQ), c.drainISync != nil, len(c.ruu), c.lsqUsed)
	if c.sle != nil {
		out += fmt.Sprintf("  sle active=%v", c.sle.active)
		if c.sle.active {
			out += fmt.Sprintf(" lock=%#x orig=%d", c.sle.lockAddr, c.sle.origVal)
		}
		out += "\n"
	}
	for i, e := range c.ruu {
		if i >= 12 {
			out += "  ...\n"
			break
		}
		out += fmt.Sprintf("  [%d] seq=%d pc=%d %s done=%v issued=%v memSent=%v scSent=%v spec=%v addr=%#x ready=%v,%v\n",
			i, e.seq, e.pc, isa.Disassemble(e.pc, e.ins), e.done, e.issued, e.memSent, e.scSent,
			e.specVal, e.effAddr, e.srcReady[0], e.srcReady[1])
	}
	return out
}
