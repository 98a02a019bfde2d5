// Command experiments regenerates the paper's tables and figures on
// the simulated machine. Each flag selects one artifact; -all runs the
// full evaluation (slow). See EXPERIMENTS.md for recorded outputs and
// the comparison against the paper.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"tssim/internal/bus"
	"tssim/internal/experiments"
	"tssim/internal/prof"
	"tssim/internal/sim"
	"tssim/internal/telemetry"
)

func main() {
	var (
		table1   = flag.Bool("table1", false, "print machine parameters (paper Table 1)")
		table2   = flag.Bool("table2", false, "workload characteristics (paper Table 2)")
		fig6     = flag.Bool("fig6", false, "stale-storage capacity study (paper Figure 6)")
		fig7     = flag.Bool("fig7", false, "performance comparison (paper Figure 7)")
		fig8     = flag.Bool("fig8", false, "address transactions (paper Figure 8)")
		slestats = flag.Bool("slestats", false, "SLE attempt/failure statistics (paper §4.2.3)")
		ablation = flag.Bool("ablation", false, "validate-predictor tuning sweep (paper §2.4)")
		misses   = flag.Bool("misses", false, "miss classification and false-sharing fractions (§5.3.2)")
		scaling  = flag.Bool("scaling", false, "communication-miss elimination at 4/8/16 CPUs (use -interconnect directory for the interesting case)")
		all      = flag.Bool("all", false, "run everything")
		dump     = flag.String("dump", "", "dump all counters for one workload (use with -tech)")
		report   = flag.String("report", "", "with -dump: also write a machine-readable JSON report here")
		techStr  = flag.String("tech", "baseline", "technique for -dump: baseline|mesti|emesti|lvp|sle|all")
		cpus     = flag.Int("cpus", 4, "number of CPUs")
		scale    = flag.Int("scale", 2, "workload scale factor")
		seeds    = flag.Int("seeds", 3, "runs per configuration (CI)")
		jobs     = flag.Int("j", 0, "concurrent simulations (0 = GOMAXPROCS)")
		chk      = flag.Bool("check", false, "attach the coherence invariant checker to every run")
		noFF     = flag.Bool("no-fastforward", false, "disable next-event fast-forward and tick every cycle (bit-identical; debugging escape hatch)")
		icKind   = flag.String("interconnect", "", "coherence fabric: "+strings.Join(bus.Kinds(), "|")+" (default: atomic snoop bus)")

		timing = flag.Bool("timing", false, "append a wall-clock/sim-cycles-per-second footer to each table")

		cpuProfile   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile   = flag.String("memprofile", "", "write an allocation profile to this file at exit")
		mutexProfile = flag.String("mutexprofile", "", "write a mutex-contention profile to this file at exit")
		blockProfile = flag.String("blockprofile", "", "write a goroutine-blocking profile to this file at exit")

		progress       = flag.Duration("progress", 0, "emit periodic sweep-progress heartbeats to stderr at this interval (e.g. 1s; 0 = off)")
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
	p := experiments.Params{CPUs: *cpus, Scale: *scale, Seeds: *seeds, Jobs: *jobs, Check: *chk,
		Interconnect: *icKind, Telemetry: tel, Timing: *timing, NoFastForward: *noFF}

	ran := false
	if *table1 || *all {
		fmt.Println("== Table 1: simulated machine parameters ==")
		fmt.Println(experiments.Table1())
		ran = true
	}
	if *table2 || *all {
		fmt.Println("== Table 2: workload characteristics ==")
		fmt.Println(experiments.Table2(p))
		ran = true
	}
	if *fig6 || *all {
		fmt.Println("== Figure 6: communication misses vs stale-storage capacity ==")
		fmt.Println(experiments.Fig6(p))
		ran = true
	}
	if *fig7 || *all {
		fmt.Println("== Figure 7: performance (speedup over baseline) ==")
		out, _ := experiments.Fig7(p)
		fmt.Println(out)
		ran = true
	}
	if *fig8 || *all {
		fmt.Println("== Figure 8: address transactions ==")
		fmt.Println(experiments.Fig8(p))
		ran = true
	}
	if *slestats || *all {
		fmt.Println("== SLE statistics (§4.2.3) ==")
		fmt.Println(experiments.SLEStats(p))
		ran = true
	}
	if *ablation || *all {
		fmt.Println("== Validate-predictor ablation (§2.4, tpc-b) ==")
		fmt.Println(experiments.PredictorAblation(p))
		ran = true
	}
	if *misses || *all {
		fmt.Println("== Miss classification (§5.3.2) ==")
		fmt.Println(experiments.MissBreakdown(p))
		ran = true
	}
	if *scaling || *all {
		label := p.Interconnect
		if label == "" {
			label = "bus"
		}
		fmt.Printf("== Scaling: communication-miss elimination (%s backend) ==\n", label)
		fmt.Println(experiments.Scaling(p, nil))
		ran = true
	}
	if *dump != "" {
		tech := map[string]sim.Techniques{
			"baseline": {},
			"mesti":    {MESTI: true},
			"emesti":   {MESTI: true, EMESTI: true},
			"lvp":      {LVP: true},
			"sle":      {SLE: true},
			"all":      {MESTI: true, EMESTI: true, LVP: true, SLE: true},
		}[*techStr]
		fmt.Println(experiments.CountersDump(p, *dump, tech))
		if *report != "" {
			rep, err := experiments.DumpReport(p, *dump, tech)
			if err == nil {
				err = rep.WriteFile(*report)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "report -> %s\n", *report)
		}
		ran = true
	}
	if *report != "" && *dump == "" {
		fmt.Fprintln(os.Stderr, "-report requires -dump")
		os.Exit(2)
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}
