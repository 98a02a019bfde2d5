// Command tssim runs one workload on the simulated multiprocessor
// under a chosen technique combination and prints the result summary
// and counters. It is the quick single-run CLI; cmd/experiments
// regenerates the paper's full tables and figures.
//
//	tssim -workload tpc-b -tech emesti+lvp -scale 2 -verbose
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"tssim/internal/bus"
	"tssim/internal/check"
	"tssim/internal/checkrun"
	"tssim/internal/prof"
	"tssim/internal/sim"
	"tssim/internal/telemetry"
	"tssim/internal/trace"
	"tssim/internal/workload"
)

func parseTech(s string) (sim.Techniques, error) {
	var t sim.Techniques
	if s == "" || s == "baseline" {
		return t, nil
	}
	for _, part := range strings.Split(strings.ToLower(s), "+") {
		switch part {
		case "mesti":
			t.MESTI = true
		case "emesti", "e-mesti":
			t.MESTI = true
			t.EMESTI = true
		case "lvp":
			t.LVP = true
		case "sle":
			t.SLE = true
		default:
			return t, fmt.Errorf("unknown technique %q (use mesti|emesti|lvp|sle, joined with +)", part)
		}
	}
	return t, nil
}

// litmusShapeMain runs one litmus shape from the library on the tiny
// litmus machine with both checkers attached. Without -enumerate it
// is a single run under the chosen -tech (and kernel path), printing
// the observed outcome against the TSO model's allowed set. With
// -enumerate it sweeps the exhaustive schedule-perturbation grid —
// per-CPU start offsets and delays, bus arbitration rotation, all
// nine technique combos, both kernel paths — and compares reachable
// vs allowed outcomes in both directions: an outcome outside the set
// is a coherence bug (exit 1), an allowed-but-unreached outcome is
// reported as a coverage gap.
func litmusShapeMain(name string, enumerate bool, tech sim.Techniques, noFF bool, interconnect string) int {
	s := check.ShapeByName(name)
	if s == nil {
		fmt.Fprintf(os.Stderr, "unknown shape %q; have: %s\n", name, strings.Join(check.ShapeNames(), " "))
		return 2
	}
	if !enumerate {
		v := check.Variant{
			Offsets:      make([]uint64, s.CPUs()),
			Delays:       make([]int, s.CPUs()),
			Combo:        tech.String(),
			NoFF:         noFF,
			Seed:         1,
			Interconnect: interconnect,
		}
		oc, err := checkrun.RunShapeVariant(s, v)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("shape %s (%s)\nunder %s: observed %s\nallowed: %v\n", s.Name, s.Doc, tech, oc, s.AllowedList())
		if !s.Allowed()[oc] {
			fmt.Println("VIOLATION: outcome outside the allowed set")
			return 1
		}
		return 0
	}
	knobs := check.DefaultKnobs(checkrun.ComboLabels())
	if interconnect != "" {
		knobs.Interconnects = []string{interconnect}
	}
	if s.CPUs() > 2 {
		// The per-CPU axes are exponential in CPU count; trim them so
		// the 4-core IRIW shapes stay tractable.
		knobs.Offsets = []uint64{0, 320}
		knobs.ArbStarts = []int{0}
	}
	rep := check.Enumerate(s, knobs, checkrun.RunShapeVariant)
	fmt.Print(rep)
	if !rep.OK() {
		return 1
	}
	return 0
}

// newTracer opens path and builds a Tracer streaming to it in the
// requested format.
func newTracer(path, format string) (*trace.Tracer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	var sink trace.Sink
	switch format {
	case "jsonl":
		sink = trace.NewJSONLSink(f)
	case "chrome":
		sink = trace.NewChromeSink(f)
	default:
		f.Close()
		return nil, fmt.Errorf("unknown trace format %q (use jsonl|chrome)", format)
	}
	return trace.New(0, sink), nil
}

// runSingle executes one run. Without telemetry it keeps the
// historical fail-fast path (RunOne panics on failure after streaming
// the post-mortem). With a collector attached the run goes through a
// one-job Runner so the single-run CLI gets the same heartbeats,
// /status endpoint, and runner-stats report as a sweep; failures then
// print cleanly instead of panicking.
func runSingle(cfg sim.Config, w sim.Workload, tel *telemetry.Collector) sim.Result {
	if tel == nil {
		return sim.RunOne(cfg, w)
	}
	r := sim.NewRunner().Jobs(1).Collect(tel).RunAll([]sim.Job{{Cfg: cfg, W: w}})[0]
	if r.Err != nil {
		var re *sim.RunError
		if errors.As(r.Err, &re) && re.PostMortem != "" {
			fmt.Fprint(os.Stderr, re.PostMortem)
		}
		fmt.Fprintln(os.Stderr, r.Err)
		os.Exit(1)
	}
	return r
}

func main() {
	var (
		name      = flag.String("workload", "tpc-b", "workload: "+strings.Join(workload.Names(), "|"))
		techStr   = flag.String("tech", "baseline", "technique combo, e.g. emesti+lvp")
		cpus      = flag.Int("cpus", 4, "number of CPUs")
		scale     = flag.Int("scale", 1, "workload scale factor")
		seeds     = flag.Int("seeds", 1, "runs with latency jitter (CI when > 1)")
		jobs      = flag.Int("j", 0, "concurrent runs for -seeds > 1 (0 = GOMAXPROCS)")
		verbose   = flag.Bool("verbose", false, "dump all event counters and histograms")
		checkFlag = flag.Bool("check", false, "attach the coherence invariant checker (and the in-order commit checker)")
		noFF      = flag.Bool("no-fastforward", false, "disable next-event fast-forward and tick every cycle (bit-identical; debugging escape hatch)")
		icKind    = flag.String("interconnect", "", "coherence fabric: "+strings.Join(bus.Kinds(), "|")+" (default: atomic snoop bus)")

		litmusShape = flag.String("litmus-shape", "", "run one memory-model litmus shape instead of a workload: "+strings.Join(check.ShapeNames(), "|"))
		enumerate   = flag.Bool("enumerate", false, "with -litmus-shape: exhaustively sweep the schedule-perturbation grid (all combos, both kernel paths) and compare reachable vs TSO-allowed outcomes")

		tracePath   = flag.String("trace", "", "write a coherence event trace to this file")
		traceFormat = flag.String("trace-format", "jsonl", "trace format: jsonl|chrome (chrome loads in Perfetto)")
		reportPath  = flag.String("report", "", "write a machine-readable JSON run report to this file")

		cpuProfile   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile   = flag.String("memprofile", "", "write an allocation profile to this file at exit")
		mutexProfile = flag.String("mutexprofile", "", "write a mutex-contention profile to this file at exit")
		blockProfile = flag.String("blockprofile", "", "write a goroutine-blocking profile to this file at exit")

		progress       = flag.Duration("progress", 0, "emit periodic run-progress heartbeats to stderr at this interval (e.g. 1s; 0 = off)")
		progressFormat = flag.String("progress-format", "text", "heartbeat format: text|jsonl")
		statusAddr     = flag.String("status-addr", "", "serve GET /status, expvar and pprof on this address while running (e.g. :8080 or 127.0.0.1:0)")
		runnerStats    = flag.String("runnerstats", "", "write a tssim-runnerstats/v1 JSON harness report to this file at exit")
	)
	flag.Parse()

	stopProf, err := prof.Config{CPU: *cpuProfile, Mem: *memProfile, Mutex: *mutexProfile, Block: *blockProfile}.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer stopProf()

	telOpts := telemetry.CLIOptions{
		Progress:       *progress,
		ProgressFormat: *progressFormat,
		StatusAddr:     *statusAddr,
		StatsPath:      *runnerStats,
	}
	tel, stopTel, err := telOpts.Start(os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer func() {
		if err := stopTel(); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}()

	tech, err := parseTech(*techStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if !bus.ValidKind(*icKind) {
		fmt.Fprintf(os.Stderr, "unknown -interconnect %q (use %s)\n", *icKind, strings.Join(bus.Kinds(), "|"))
		os.Exit(2)
	}
	if err := bus.CheckNodes(*icKind, *cpus); err != nil {
		fmt.Fprintf(os.Stderr, "invalid -cpus: %v\n", err)
		os.Exit(2)
	}
	for _, f := range []struct {
		name     string
		val, min int
	}{{"scale", *scale, 1}, {"seeds", *seeds, 1}, {"j", *jobs, 0}} {
		if f.val < f.min {
			fmt.Fprintf(os.Stderr, "invalid -%s %d: must be at least %d\n", f.name, f.val, f.min)
			os.Exit(2)
		}
	}
	if *litmusShape != "" {
		os.Exit(litmusShapeMain(*litmusShape, *enumerate, tech, *noFF, *icKind))
	}
	if *enumerate {
		fmt.Fprintln(os.Stderr, "-enumerate requires -litmus-shape")
		os.Exit(2)
	}
	w, err := workload.ByName(*name, workload.Params{CPUs: *cpus, Scale: *scale, UnsafeISyncEvery: 3})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg := sim.ExperimentConfig()
	cfg.CPUs = *cpus
	cfg.Interconnect = *icKind
	cfg.Tech = tech
	cfg.Check = *checkFlag
	cfg.CheckCommits = *checkFlag
	cfg.NoFastForward = *noFF

	if *seeds > 1 {
		if *tracePath != "" || *reportPath != "" {
			fmt.Fprintln(os.Stderr, "-trace and -report record a single run; use -seeds 1")
			os.Exit(2)
		}
		s, err := sim.NewRunner().Jobs(*jobs).Collect(tel).Sample(cfg, w, *seeds)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("%s under %s: %d runs, cycles %.0f ±%.0f (95%% CI), min %.0f max %.0f\n",
			w.Name, tech, s.N(), s.Mean(), s.CI95(), s.Min(), s.Max())
		return
	}
	if *tracePath != "" {
		tr, err := newTracer(*tracePath, *traceFormat)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		cfg.Trace = tr
	}
	r := runSingle(cfg, w, tel)
	if cfg.Trace != nil {
		if err := cfg.Trace.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "trace: %d events -> %s (%s)\n", cfg.Trace.Total(), *tracePath, *traceFormat)
	}
	if *reportPath != "" {
		if err := sim.NewReport(cfg, r).WriteFile(*reportPath); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "report -> %s\n", *reportPath)
	}
	fmt.Printf("%s under %s\n", w.Name, tech)
	fmt.Printf("  cycles    %d\n", r.Cycles)
	fmt.Printf("  retired   %d (IPC %.3f)\n", r.Retired, r.IPC())
	fmt.Printf("  finished  %v\n", r.Finished)
	fmt.Printf("  misses    comm=%d mem=%d\n", r.Counters["miss/comm"], r.Counters["miss/mem"])
	fmt.Printf("  bus txns  read=%d readx=%d upgrade=%d validate=%d wb=%d\n",
		r.Counters["bus/txn/read"], r.Counters["bus/txn/readx"],
		r.Counters["bus/txn/upgrade"], r.Counters["bus/txn/validate"],
		r.Counters["bus/txn/writeback"])
	if *verbose {
		for _, k := range r.Stats.Names() {
			fmt.Printf("  %-36s %d\n", k, r.Counters[k])
		}
		if hs := r.Stats.HistString(); hs != "" {
			fmt.Print(hs)
		}
	}
}
