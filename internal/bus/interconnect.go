package bus

import (
	"fmt"
	"math/rand"
	"strings"

	"tssim/internal/mem"
	"tssim/internal/stats"
	"tssim/internal/trace"
)

// Interconnect is the coherence fabric abstraction: the serialization
// point for coherence transactions plus snoop/probe delivery and the
// combined response. Every backend honors the same contract the
// protocol layers and the checker were written against:
//
//   - Grant order is the machine-wide serialization order. The
//     requester's GrantTxn fires at the grant instant and may rewrite
//     or cancel the transaction; remote state transitions happen
//     during the same instant via SnoopTxn on the delivered nodes.
//   - The combined response (Shared/Owned/Data) is assembled from the
//     replies of exactly the nodes the backend delivered the
//     transaction to; a backend may only skip nodes that provably hold
//     no protocol-relevant state for the line (see the directory's
//     structural-identity argument, DESIGN.md §16).
//   - OnSerialized fires once per successful grant after all state
//     transitions and memory side effects — where internal/check hangs.
//   - LineBusy custody, Scheduler/TxnScheduled horizons, NextEvent
//     underestimation, and the Txn free list behave as on the atomic
//     bus.
//
// *Bus (atomic snoop bus), *SplitBus (split-transaction bus), and
// *Directory all implement it.
type Interconnect interface {
	// Attach registers a controller and returns its node id.
	Attach(p Port) int
	// Nodes returns the number of attached controllers.
	Nodes() int
	// NewTxn returns a zeroed transaction from the free list.
	NewTxn() *Txn
	// Request enqueues a transaction from its source node.
	Request(t *Txn)
	// Tick advances the fabric one cycle.
	Tick(now uint64)
	// NextEvent returns the earliest future cycle the fabric can change
	// observable state (fast-forward contract: never overestimate).
	NextEvent(now uint64) uint64
	// Idle reports whether no transaction is queued or in flight.
	Idle() bool
	// LineBusy reports whether a line has an in-flight data transfer.
	LineBusy(addr uint64) bool
	// OnSerialized registers the per-grant serialization observer.
	OnSerialized(fn func(now uint64, t *Txn))
	// SetTracer attaches the event tracer (nil disables tracing).
	SetTracer(tr *trace.Tracer)
	// Config returns the effective timing configuration.
	Config() Config
	// Err returns the first latched fabric-level protocol violation.
	Err() error
	// DebugString renders queues and in-flight state (post-mortems).
	DebugString() string
}

var (
	_ Interconnect = (*Bus)(nil)
	_ Interconnect = (*SplitBus)(nil)
	_ Interconnect = (*Directory)(nil)
)

// Interconnect backend names as accepted by NewInterconnect and the
// CLIs' -interconnect flag.
const (
	KindBus       = "bus"
	KindSplitBus  = "splitbus"
	KindDirectory = "directory"
)

// Kinds lists the selectable backends in presentation order.
func Kinds() []string { return []string{KindBus, KindSplitBus, KindDirectory} }

// ValidKind reports whether kind names a selectable backend ("" is the
// atomic-bus default). CLIs use it to reject -interconnect typos before
// constructing a machine.
func ValidKind(kind string) bool {
	switch kind {
	case "", KindBus, KindSplitBus, KindDirectory:
		return true
	}
	return false
}

// CheckNodes reports whether a machine of n nodes can run on the named
// backend: every machine needs at least one node, and the directory's
// per-line sharer masks are one uint64, so it holds at most 64. CLIs
// use it to turn a bad -cpus into a usage error before building a
// machine.
func CheckNodes(kind string, n int) error {
	if n < 1 {
		return fmt.Errorf("%d CPUs: a machine needs at least 1", n)
	}
	if kind == KindDirectory && n > dirMaxNodes {
		return fmt.Errorf("%d CPUs: the directory's sharer masks hold at most %d nodes", n, dirMaxNodes)
	}
	return nil
}

// NewInterconnect builds the named backend over the given backing
// memory. The empty name selects the atomic snoop bus (the historical
// default).
func NewInterconnect(kind string, cfg Config, memory *mem.Memory, counters *stats.Counters, rng *rand.Rand) (Interconnect, error) {
	switch kind {
	case "", KindBus:
		return New(cfg, memory, counters, rng), nil
	case KindSplitBus:
		return NewSplit(cfg, memory, counters, rng), nil
	case KindDirectory:
		return NewDirectory(cfg, memory, counters, rng), nil
	}
	return nil, fmt.Errorf("bus: unknown interconnect %q (have %s)", kind, strings.Join(Kinds(), "|"))
}
