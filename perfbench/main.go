// Command perfbench is tssim's host-performance benchmark. It drives
// the simulator through its public functions on one of three
// workloads, checks every simulation's output, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer metrics of a
// separate traced run) by name with units. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. See README.md for the workloads and metric definitions.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	python3 perfbench/run.py --workload tpcb-active --seed 1 --seconds 20 --trace 0
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"time"

	"tssim/internal/telemetry"
)

// endToEnd and perLayer are the metrics the result line carries with
// -trace 0 and -trace 1; BENCHMARK.json lists the same names.
var (
	endToEnd = []string{
		"ns_per_sim_cycle", "sim_instrs_per_s", "setup_s", "heap_mb", "allocs_per_sim_cycle",
	}
	perLayer = []string{
		"sim.horizon_ns_per_cycle", "sim.skip_ns_per_cycle", "sim.loop_ns_per_cycle",
		"sim.horizon_probes", "sim.horizon_skips", "sim.horizon_hit_ratio",
		"sim.ff_skip_fraction", "sim.skipped_cycles", "sim.cycles", "sim.instrs", "sim.merge_s",
		"cpu.tick_ns_per_cycle", "cpu.squash",
		"cpu.lvp_useful_ratio", "cpu.lvp_verify_ok", "cpu.lvp_spec_deliver",
		"cpu.sle_success_ratio", "cpu.sle_success", "cpu.sle_attempt",
		"core.tick_ns_per_cycle",
		"cache.l1_hit_ratio", "cache.l1_hit", "cache.l1_miss", "cache.l2_miss", "cache.mshr_occ_mean",
		"bus.tick_ns_per_cycle", "bus.txn", "bus.txn_validate", "bus.dir_probes", "bus.wait_cycles_mean",
		"predictor.validate_suppressed", "predictor.validate_useful_ratio",
		"predictor.validate_used", "predictor.validate_issued",
		"workload.build_s", "sim.new_s",
		"runner.worker_busy_fraction", "runner.construct_share", "runner.gc_pause_share", "runner.queue_share",
		"trace.overhead_frac",
	}
	// exactNames are the counts recorded in exact_counts.json: they
	// depend only on the code and the seed, so a later change compares
	// them bit for bit.
	exactNames = []string{
		"sim.cycles", "sim.instrs", "sim.ff_skip_fraction", "sim.horizon_probes",
		"allocs_per_sim_cycle", "bus.txn",
	}
)

//go:embed exact_counts.json
var recordedExact []byte

func main() {
	name := flag.String("workload", "", "workload: specjbb-idle | tpcb-active | dir16-specjbb")
	seed := flag.Int64("seed", 1, "base seed of the simulations' bus latency jitter")
	secs := flag.Int("seconds", 10, "seconds to measure")
	traced := flag.Int("trace", 0, "1 = print the per-layer metrics of a traced run")
	exact := flag.Bool("exact", false, "print only the exact counts of one traced round, as JSON")
	flag.Parse()
	sp, err := specByName(*name)
	if err == nil {
		if *exact {
			err = printExact(os.Stdout, sp, *seed)
		} else {
			err = bench(os.Stdout, sp, *seed, time.Duration(*secs)*time.Second, *traced == 1)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// setUp runs the probe jobs alone, for the median live heap of one
// assembled machine and the allocations inside RunErr per simulated
// cycle.
func setUp(sp spec, jobs []job, chk *checker) (heapMB, allocsPerCycle float64) {
	var heaps []float64
	var allocs, cycles uint64
	for _, i := range sp.probes {
		p := probeJob(jobs[i], i)
		chk.check(p.rec)
		heaps = append(heaps, float64(p.heapBytes)/(1<<20))
		allocs += p.allocs
		cycles += p.rec.res.Cycles
	}
	if cycles > 0 {
		allocsPerCycle = float64(allocs) / float64(cycles)
	}
	return median(heaps), allocsPerCycle
}

// phase is a sequence of closed-loop rounds.
type phase struct {
	recs  []record
	walls []float64 // per round, seconds
}

// rounds runs every job once per round, traced or not, until the
// budget is spent: a new round starts only if it is expected to end
// less than half a round past the budget. At least one round runs.
func rounds(budget time.Duration, chk *checker, jobs []job, traced bool) phase {
	var ph phase
	start := time.Now()
	for {
		t := time.Now()
		recs := round(jobs, traced)
		ph.walls = append(ph.walls, time.Since(t).Seconds())
		for _, r := range recs {
			chk.check(r)
		}
		ph.recs = append(ph.recs, recs...)
		if time.Since(start).Seconds()+median(ph.walls)/2 >= budget.Seconds() {
			return ph
		}
	}
}

// nsPerCycle is one simulation's host time per simulated cycle.
func nsPerCycle(r record) float64 { return float64(r.run.Nanoseconds()) / float64(r.res.Cycles) }

// clean returns f of every clean simulation in recs.
func clean(recs []record, f func(record) float64) []float64 {
	var xs []float64
	for _, r := range recs {
		if r.err == nil && r.res.Cycles > 0 {
			xs = append(xs, f(r))
		}
	}
	return xs
}

func bench(w io.Writer, sp spec, seed int64, budget time.Duration, traced bool) error {
	jobs, err := sp.jobs(seed)
	if err != nil {
		return err
	}
	chk := newChecker(len(jobs))
	heapMB, allocsPerCycle := setUp(sp, jobs, chk)
	untracedBudget := budget
	if traced {
		untracedBudget = budget / 2
	}
	un := rounds(untracedBudget, chk, jobs, false)

	var rep report
	fmt.Fprintf(w, "workload %s  seed %d  jobs/round %d  rounds %d  simulations %d\n",
		sp.name, seed, len(jobs), len(un.walls), len(un.recs))
	unNS := clean(un.recs, nsPerCycle)
	rep.add("ns_per_sim_cycle", median(unNS), "ns/cycle", fmt.Sprintf("median of %d simulations", len(unNS)))
	if len(unNS) >= 100 {
		rep.add("ns_per_sim_cycle_p90", quantile(unNS, 0.9), "ns/cycle", fmt.Sprintf("%d simulations", len(unNS)))
	}
	var instrs uint64
	for _, r := range un.recs {
		instrs += r.res.Retired
	}
	var wall float64
	for _, x := range un.walls {
		wall += x
	}
	rep.add("sim_instrs_per_s", float64(instrs)/wall, "1/s",
		fmt.Sprintf("%d instructions in %d rounds, %.3f s", instrs, len(un.walls), wall))
	setups := clean(un.recs, func(r record) float64 { return r.setup.Seconds() })
	rep.add("setup_s", median(setups), "s", fmt.Sprintf("median of %d", len(setups)))
	rep.add("heap_mb", heapMB, "MiB", fmt.Sprintf("median of %d machines", len(sp.probes)))
	rep.add("allocs_per_sim_cycle", allocsPerCycle, "allocs/cycle", fmt.Sprintf("%d probe simulations", len(sp.probes)))

	exact := exactOf(sumResults(chk.ref), allocsPerCycle)

	keep := endToEnd
	if traced {
		keep = perLayer
		// The runner's telemetry, on this workload's jobs.
		tel := telemetry.New()
		for _, r := range sweepRound(jobs, tel) {
			chk.check(r)
		}
		tr := rounds(budget-untracedBudget, chk, jobs, true)
		builds := clean(un.recs, func(r record) float64 { return r.build.Seconds() })
		news := clean(un.recs, func(r record) float64 { return (r.setup - r.build).Seconds() })
		layers(&rep, sumResults(chk.ref), tr, jobs, tel, builds, news, median(unNS))
		exact["sim.horizon_probes"] = rep.value("sim.horizon_probes")
	}
	rep.add("fail_frac", float64(chk.failed)/float64(chk.attempted), "ratio",
		fmt.Sprintf("failed=%d / attempted=%d", chk.failed, chk.attempted))
	compareExact(w, sp.name, seed, exact)
	return rep.print(w, chk, keep)
}

// layers adds the per-layer metrics of the traced phase tr.
func layers(rep *report, tot totals, tr phase, jobs []job, tel *telemetry.Collector,
	builds, news []float64, untracedNS float64) {
	var lt, first layerTimes
	var cycles uint64
	var merges []float64
	for i, r := range tr.recs {
		lt.add(r.lt)
		if i < len(jobs) {
			first.add(r.lt)
		}
		cycles += r.res.Cycles
		merges = append(merges, r.lt.merge.Seconds())
	}
	per := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(cycles) }
	note := fmt.Sprintf("%d traced simulations, %d cycles", len(tr.recs), cycles)
	loop := lt.total - lt.horizon - lt.skip - lt.bus - lt.nodes - lt.cores - lt.merge
	rep.add("sim.horizon_ns_per_cycle", per(lt.horizon), "ns/cycle", note)
	rep.add("sim.skip_ns_per_cycle", per(lt.skip), "ns/cycle", note)
	rep.add("sim.loop_ns_per_cycle", per(loop), "ns/cycle", "watchdog, fabric error and drain checks")
	rep.add("sim.horizon_probes", float64(first.probes), "count", "one round")
	rep.add("sim.horizon_skips", float64(first.skips), "count", "one round")
	rep.ratio("sim.horizon_hit_ratio", first.skips, first.probes, "skips", "probes")
	rep.ratio("sim.ff_skip_fraction", tot.skipped, tot.cycles, "skipped", "cycles")
	rep.add("sim.skipped_cycles", float64(tot.skipped), "cycles", "one round")
	rep.add("sim.cycles", float64(tot.cycles), "cycles", "one round")
	rep.add("sim.instrs", float64(tot.instrs), "count", "one round")
	rep.add("sim.merge_s", median(merges), "s", "median per simulation")

	c := tot.counters
	rep.add("cpu.tick_ns_per_cycle", per(lt.cores), "ns/cycle", note)
	rep.add("cpu.squash", float64(c["cpu/squash"]), "count", "one round")
	rep.ratio("cpu.lvp_useful_ratio", c["lvp/verify_ok"], c["lvp/spec_deliver"], "lvp/verify_ok", "lvp/spec_deliver")
	rep.add("cpu.lvp_verify_ok", float64(c["lvp/verify_ok"]), "count", "one round")
	rep.add("cpu.lvp_spec_deliver", float64(c["lvp/spec_deliver"]), "count", "one round")
	rep.ratio("cpu.sle_success_ratio", c["sle/success"], c["sle/attempt"], "sle/success", "sle/attempt")
	rep.add("cpu.sle_success", float64(c["sle/success"]), "count", "one round")
	rep.add("cpu.sle_attempt", float64(c["sle/attempt"]), "count", "one round")

	rep.add("core.tick_ns_per_cycle", per(lt.nodes), "ns/cycle", note)

	rep.ratio("cache.l1_hit_ratio", c["l1/hit"], c["l1/hit"]+c["l1/miss"], "l1/hit", "l1 lookups")
	rep.add("cache.l1_hit", float64(c["l1/hit"]), "count", "one round")
	rep.add("cache.l1_miss", float64(c["l1/miss"]), "count", "one round")
	rep.add("cache.l2_miss", float64(c["l2/miss"]), "count", "one round")
	rep.add("cache.mshr_occ_mean", tot.histMean("occ/mshr"), "entries", fmt.Sprintf("%d samples", tot.histN["occ/mshr"]))

	rep.add("bus.tick_ns_per_cycle", per(lt.bus), "ns/cycle", note)
	rep.add("bus.txn", float64(tot.busTxn()), "count", "one round")
	rep.add("bus.txn_validate", float64(c["bus/txn/validate"]), "count", "one round")
	rep.add("bus.dir_probes", float64(c["bus/dir/probes"]), "count", "one round")
	rep.add("bus.wait_cycles_mean", tot.histMean("lat/bus_wait"), "cycles", fmt.Sprintf("%d waits", tot.histN["lat/bus_wait"]))

	used, issued := tot.histN["lat/validate_reuse"], c["mesti/validate_requested"]
	rep.add("predictor.validate_suppressed", float64(c["mesti/validate_suppressed"]), "count", "one round")
	rep.ratio("predictor.validate_useful_ratio", used, issued, "revalidated copies used", "validates issued")
	rep.add("predictor.validate_used", float64(used), "count", "one round")
	rep.add("predictor.validate_issued", float64(issued), "count", "one round")

	rep.add("workload.build_s", median(builds), "s", fmt.Sprintf("median of %d", len(builds)))
	rep.add("sim.new_s", median(news), "s", fmt.Sprintf("median of %d", len(news)))

	tr2 := tel.Report()
	d := tr2.Diagnosis
	rnote := fmt.Sprintf("%d jobs, busy %d ns, wall %d ns", tr2.JobsDone, tr2.BusyNS, tr2.WallNS)
	rep.add("runner.worker_busy_fraction", d.WorkerBusyFraction, "ratio", rnote)
	rep.add("runner.construct_share", d.ConstructShare, "ratio", rnote)
	rep.add("runner.gc_pause_share", d.GCPauseShare, "ratio", rnote)
	rep.add("runner.queue_share", d.QueueShare, "ratio", rnote)

	trNS := median(clean(tr.recs, nsPerCycle))
	rep.add("trace.overhead_frac", trNS/untracedNS-1, "ratio",
		fmt.Sprintf("traced %.1f / untraced %.1f ns per cycle", trNS, untracedNS))
}

func (r *report) value(name string) float64 {
	for _, m := range r.ms {
		if m.name == name {
			return m.value
		}
	}
	return math.NaN()
}

// exactOf returns the exact counts of one round's results, and of
// the allocations the set-up probes counted.
func exactOf(tot totals, allocsPerCycle float64) map[string]float64 {
	return map[string]float64{
		"sim.cycles":           float64(tot.cycles),
		"sim.instrs":           float64(tot.instrs),
		"sim.ff_skip_fraction": float64(tot.skipped) / float64(tot.cycles),
		"allocs_per_sim_cycle": allocsPerCycle,
		"bus.txn":              float64(tot.busTxn()),
	}
}

// exactCounts takes the exact counts of the set-up probes and one
// traced round, without timing anything.
func exactCounts(sp spec, seed int64) (map[string]float64, error) {
	jobs, err := sp.jobs(seed)
	if err != nil {
		return nil, err
	}
	chk := newChecker(len(jobs))
	_, allocsPerCycle := setUp(sp, jobs, chk)
	var probes uint64
	for _, r := range round(jobs, true) {
		chk.check(r)
		probes += r.lt.probes
	}
	if chk.failed > 0 {
		return nil, fmt.Errorf("%d of %d simulations failed: %v", chk.failed, chk.attempted, chk.reasons)
	}
	counts := exactOf(sumResults(chk.ref), allocsPerCycle)
	counts["sim.horizon_probes"] = float64(probes)
	return counts, nil
}

func printExact(w io.Writer, sp spec, seed int64) error {
	counts, err := exactCounts(sp, seed)
	if err != nil {
		return err
	}
	b, err := json.Marshal(map[string]any{"workload": sp.name, "seed": seed, "counts": counts})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// allocsTolerance is how far allocs_per_sim_cycle may stray from its
// record and still match: the simulator's large maps grow at points
// that depend on Go's per-map random hash seed, so one seed's
// allocation count repeats only to within about 0.2%.
const allocsTolerance = 0.01

// sameExact reports whether two values of exact count k agree.
func sameExact(k string, a, b float64) bool {
	if k == "allocs_per_sim_cycle" {
		return math.Abs(a-b) <= allocsTolerance*b
	}
	return a == b
}

// compareExact prints whether this run's exact counts equal the ones
// recorded for the same workload and seed. A difference is reported,
// not failed: a change to the simulated model moves them on purpose.
func compareExact(w io.Writer, name string, seed int64, got map[string]float64) {
	var rec map[string]map[string]map[string]float64
	if err := json.Unmarshal(recordedExact, &rec); err != nil {
		fmt.Fprintln(w, "exact counts: record unreadable:", err)
		return
	}
	want, ok := rec[name][strconv.FormatInt(seed, 10)]
	if !ok {
		fmt.Fprintf(w, "exact counts: none recorded for seed %d\n", seed)
		return
	}
	var diffs []string
	n := 0
	for _, k := range exactNames {
		g, have := got[k]
		wv, recorded := want[k]
		if !have || !recorded {
			continue
		}
		n++
		if !sameExact(k, g, wv) {
			diffs = append(diffs, fmt.Sprintf("%s %v (recorded %v)", k, g, wv))
		}
	}
	if len(diffs) == 0 {
		fmt.Fprintf(w, "exact counts: all %d match the record\n", n)
		return
	}
	for _, d := range diffs {
		fmt.Fprintln(w, "exact counts: DIFFERENT", d)
	}
}
