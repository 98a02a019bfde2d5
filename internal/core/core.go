// Package core implements the paper's primary contribution: the
// per-node cache/coherence controller speaking MOESI augmented with
// the MESTI temporally-invalid (T) state and validate transaction
// (Figure 2), the Enhanced-MESTI Validate_Shared state, useful snoop
// response, and useful-validate coherence predictor (Figures 3 and 4),
// plus the controller half of LVP — speculative value delivery from
// tag-match invalid lines with MSHR-based verification (§3.2).
//
// One Controller sits between each simulated CPU core and the snooping
// bus, owning a two-level private hierarchy: an L1-D presence array
// (latency filter) over an L2 that holds the coherence state and data.
// The L2 is the coherence point, as in the paper (§2.5); the L2 data
// is kept current with every performed store, so external snoops are
// always serviced from the L2 — the paper's property that "the most
// up-to-date copy always resides in either the L1-D or the L2" with
// the write-through maintained invisibly by the simulator.
package core

import (
	"fmt"

	"tssim/internal/cache"
	"tssim/internal/predictor"
	"tssim/internal/stale"
)

// State is the coherence state of an L2 line. The protocol is MOESTI:
// MOESI (the Gigaplane-XB baseline of Table 1) plus MESTI's T state
// and E-MESTI's Validate_Shared.
type State = uint8

// Protocol states.
const (
	StateI State = iota // invalid (tag and data may be retained: tag-match invalid)
	StateS              // shared, clean
	StateE              // exclusive, clean
	StateO              // owned: shared, dirty, this node supplies data
	StateM              // modified: exclusive, dirty
	StateT              // temporally invalid: invalid, holding the last
	// globally visible value as a reversion candidate (MESTI)
	StateVS // Validate_Shared: revalidated but untouched since (E-MESTI)
)

// StateName renders a protocol state for diagnostics.
func StateName(s State) string {
	switch s {
	case StateI:
		return "I"
	case StateS:
		return "S"
	case StateE:
		return "E"
	case StateO:
		return "O"
	case StateM:
		return "M"
	case StateT:
		return "T"
	case StateVS:
		return "VS"
	}
	return fmt.Sprintf("state(%d)", s)
}

// Readable reports whether a local load may hit on the state.
func Readable(s State) bool {
	switch s {
	case StateS, StateE, StateO, StateM, StateVS:
		return true
	}
	return false
}

// Writable reports whether a local store may perform without a bus
// transaction.
func Writable(s State) bool { return s == StateE || s == StateM }

// Dirty reports whether eviction of the state requires a writeback.
func Dirty(s State) bool { return s == StateM || s == StateO }

// Upgradable reports whether write permission can be obtained with a
// dataless Upgrade (the node holds current data).
func Upgradable(s State) bool { return s == StateS || s == StateO }

// Config configures one node's controller.
type Config struct {
	L1 cache.Config // L1-D presence array (latency filter)
	L2 cache.Config // coherence point, holds state and data

	L1Latency int // cycles for an L1 hit
	L2Latency int // additional cycles for an L2 hit
	MSHRs     int // outstanding-miss limit (bounds MLP)
	StoreBuf  int // post-retirement store buffer capacity

	// Technique selection.
	MESTI              bool // T state + validate broadcast
	EMESTI             bool // + Validate_Shared, useful response, predictor
	LVP                bool // speculative load values from tag-match invalid lines
	SquashUpdateSilent bool // drop stores whose value matches memory (update silence)

	ValidateParams predictor.ValidateParams // E-MESTI predictor tuning

	// OccSampleEvery downsamples the per-cycle occupancy histograms
	// (occ/mshr, occ/storebuf): one observation every N cycles per
	// controller. The occupancy curves are statistics, not simulation
	// state, so the stride changes only histogram resolution — cycle
	// counts and event counters are bit-identical at any setting.
	// 0 selects DefaultOccSampleEvery; 1 restores per-cycle sampling.
	OccSampleEvery int

	// Detector supplies temporal-silence candidates; nil selects the
	// perfect detector (the paper's assumption for performance
	// studies). Only consulted when MESTI is enabled.
	Detector stale.Detector
}

// DefaultOccSampleEvery is the default occupancy-histogram sampling
// stride. Occupancies drift over miss-service timescales (tens to
// hundreds of cycles), so sampling every 8th cycle loses no shape
// while removing two histogram updates per controller from 7 of every
// 8 cycles of the hot loop.
const DefaultOccSampleEvery = 8

// DefaultConfig returns a scaled-down version of the paper's Table 1
// per-node hierarchy. The paper's 64KB L1-D / 512KB L1 / 16MB L2 per
// node shrink to 16KB / 256KB while the workloads shrink accordingly;
// all latency ratios are preserved (L1 hit 2, +L2 4).
func DefaultConfig() Config {
	return Config{
		L1:        cache.Config{SizeBytes: 16 * 1024, Assoc: 4},
		L2:        cache.Config{SizeBytes: 256 * 1024, Assoc: 8},
		L1Latency: 2,
		L2Latency: 4,
		MSHRs:     8,
		StoreBuf:  16,
	}
}

// LoadStatus classifies the controller's immediate answer to a load.
type LoadStatus int

// Load outcomes.
const (
	LoadHit   LoadStatus = iota // value returned now, after Lat cycles
	LoadMiss                    // value arrives later via Client.LoadDone
	LoadSpec                    // speculative value now; verification later
	LoadRetry                   // silent hazard (pending SC to the word); reissue next cycle
	// LoadRetryFull: the load missed both levels and found the MSHR
	// file exhausted; reissue next cycle. This attempt bumped exactly
	// l1/miss, l2/miss and l2/mshr_full, and until StateVersion moves
	// every reissue would bump the same three and retry again — the
	// core parks the load on the version instead of calling Load.
	LoadRetryFull
)

// LoadResult is the immediate answer to Controller.Load. Status
// LoadRetry and LoadRetryFull both mean "not issued"; they differ only
// in what the attempt counted (see LoadRetryFull).
type LoadResult struct {
	Status LoadStatus
	Value  uint64 // valid for LoadHit and LoadSpec
	Lat    int    // cycles until the value may be used (Hit/Spec)
}

// LoadProbe classifies, without side effects, what a Load call would
// do right now. The core's fast-forward path uses it to decide whether
// a ready-but-unissued load pins the machine to the current cycle
// (LoadProbeActive), stalls silently (LoadProbeRetryPure), or spins on
// a fixed set of counters each cycle (LoadProbeRetryCounted) that a
// skip can replay batched.
type LoadProbe int

// Probe outcomes.
const (
	// LoadProbeActive: the Load would change state — a hit or store
	// forward, an MSHR waiter merge, or a new bus request.
	LoadProbeActive LoadProbe = iota
	// LoadProbeRetryPure: the Load would return LoadRetry with no
	// observable side effect (a pending SC blocks forwarding).
	LoadProbeRetryPure
	// LoadProbeRetryCounted: the Load would return LoadRetryFull after
	// bumping exactly l1/miss, l2/miss, and l2/mshr_full (MSHR file
	// exhausted).
	LoadProbeRetryCounted
)

// Client is the CPU-side listener for asynchronous controller events.
type Client interface {
	// LoadDone delivers the (architecturally correct) value for a
	// load that previously returned LoadMiss.
	LoadDone(seq uint64, value uint64)
	// LoadsVerified marks previously speculative (LoadSpec) loads as
	// verified correct; they may now retire.
	LoadsVerified(seqs []uint64)
	// SquashSpec orders the core to recover from an LVP value
	// misprediction: seqs are the ops that received speculative
	// values from the failing line. The core squashes from the
	// oldest of them still in flight (dead ones were already
	// squashed for other reasons and re-fetched clean).
	SquashSpec(seqs []uint64)
	// SCDone reports the outcome of a store-conditional previously
	// submitted with SCExecute.
	SCDone(seq uint64, success bool)
	// ExternalSnoop observes every transaction this node snoops from
	// the bus; the SLE engine uses it for atomicity-violation
	// detection. isWrite is true for invalidating transactions
	// (ReadX/Upgrade).
	ExternalSnoop(lineAddr uint64, isWrite bool)
}

// SpecStore is one speculatively buffered SLE store presented for
// atomic commit.
type SpecStore struct {
	Addr  uint64
	Value uint64
}

// CheckSink receives store-visibility events from a controller for the
// machine-wide coherence checker (internal/check). The checker needs
// them because a store to an M/E line performs with no bus transaction
// at all — the bus serialization hook alone cannot maintain a golden
// memory. All addresses are word-aligned. A nil sink costs one pointer
// comparison per event site.
type CheckSink interface {
	// StoreBuffered fires when a retired store (or an executing SC)
	// enters the post-retirement store buffer.
	StoreBuffered(node int, addr, val uint64, isSC bool)
	// StoreDrained fires when the buffer head leaves the buffer:
	// performed=true for a store that wrote its line, false for a
	// failed SC or an update-silent squash.
	StoreDrained(node int, addr uint64, performed bool)
	// StorePerformed fires at the instant a store becomes globally
	// visible (performStore): buffer drain, upgrade grant, or SLE
	// atomic commit.
	StorePerformed(node int, addr, val uint64)
}
