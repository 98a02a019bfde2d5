package main

import (
	"fmt"
	"maps"
	"reflect"
	"runtime"
	"time"

	"tssim/internal/sim"
	"tssim/internal/telemetry"
	"tssim/internal/workload"
)

// record is one simulation's outcome and host times.
type record struct {
	job          int
	build, setup time.Duration // workload.ByName; ByName + sim.New
	run          time.Duration // RunErr, or the traced stepper
	res          sim.Result
	err          error
	lt           layerTimes // traced simulations only
}

// assemble builds job j's workload and machine from nothing, as every
// user run does, timing both steps into r.
func assemble(j job, r *record) (sim.Workload, *sim.System, error) {
	t0 := time.Now()
	w, err := workload.ByName(j.name, j.p)
	if err != nil {
		return w, nil, err
	}
	t1 := time.Now()
	s := sim.New(j.cfg, w)
	r.build, r.setup = t1.Sub(t0), time.Since(t0)
	return w, s, nil
}

// simulate assembles job j and runs it with RunErr or, when traced,
// with the benchmark's own stepper. A panic escaping the simulator is
// reported as the simulation's error.
func simulate(j job, idx int, traced bool) (r record) {
	r.job = idx
	defer func() {
		if p := recover(); p != nil {
			r.err = fmt.Errorf("panic: %v", p)
		}
	}()
	w, s, err := assemble(j, &r)
	if err != nil {
		r.err = err
		return r
	}
	t := time.Now()
	if traced {
		r.res, r.err = drive(s, w, j.cfg, &r.lt)
	} else {
		r.res, r.err = s.RunErr(w)
	}
	r.run = time.Since(t)
	return r
}

// round runs every job once, one after another: the load is a closed
// loop of one worker, so the next simulation starts when the previous
// one ends. It returns the records in job order.
func round(jobs []job, traced bool) []record {
	recs := make([]record, len(jobs))
	for i, j := range jobs {
		recs[i] = simulate(j, i, traced)
	}
	return recs
}

// sweepRound runs every job once through sim.Runner with one worker,
// building the workloads with workload.All as the Figure 7 harness
// does, while tel gathers the runner's telemetry.
func sweepRound(jobs []job, tel *telemetry.Collector) []record {
	ws := map[string]sim.Workload{}
	for _, w := range workload.All(jobs[0].p) {
		ws[w.Name] = w
	}
	sj := make([]sim.Job, len(jobs))
	for i, j := range jobs {
		sj[i] = sim.Job{Cfg: j.cfg, W: ws[j.name]}
	}
	results := sim.NewRunner().Jobs(1).Collect(tel).RunAll(sj)
	recs := make([]record, len(jobs))
	for i, res := range results {
		recs[i] = record{job: i, run: res.Wall, res: res, err: res.Err}
	}
	return recs
}

// checker counts attempted and failed simulations. A simulation fails
// when it returns an error (deadlock, fabric violation, validation,
// panic), does not finish, or differs in any simulated field from the
// run's first repeat of the same job.
type checker struct {
	ref       []*sim.Result
	attempted int
	failed    int
	reasons   []string
}

func newChecker(jobs int) *checker { return &checker{ref: make([]*sim.Result, jobs)} }

func (c *checker) check(r record) {
	c.attempted++
	reason := ""
	switch {
	case r.err != nil:
		reason = r.err.Error()
	case r.res.Err != nil:
		reason = r.res.Err.Error()
	case !r.res.Finished:
		reason = "did not finish"
	}
	if ref := c.ref[r.job]; ref == nil {
		res := r.res
		c.ref[r.job] = &res
	} else if reason == "" {
		reason = differs(ref, &r.res)
	}
	if reason != "" {
		c.failed++
		if len(c.reasons) < 5 {
			c.reasons = append(c.reasons, fmt.Sprintf("job %d: %s", r.job, reason))
		}
	}
}

// differs names the first simulated field in which b departs from a,
// or returns "".
func differs(a, b *sim.Result) string {
	switch {
	case a.Cycles != b.Cycles:
		return fmt.Sprintf("cycles %d != first repeat's %d", b.Cycles, a.Cycles)
	case a.SkippedCycles != b.SkippedCycles:
		return fmt.Sprintf("skipped cycles %d != first repeat's %d", b.SkippedCycles, a.SkippedCycles)
	case a.Retired != b.Retired || !reflect.DeepEqual(a.PerCPU, b.PerCPU):
		return fmt.Sprintf("instructions %d != first repeat's %d", b.Retired, a.Retired)
	case !maps.Equal(a.Counters, b.Counters):
		return "counter snapshot differs from first repeat's"
	case !reflect.DeepEqual(a.Hists, b.Hists):
		return "histogram snapshot differs from first repeat's"
	}
	return ""
}

// probe is the set-up phase's measurement of one job, run alone: the
// live heap its assembled machine holds and the heap allocations
// inside RunErr.
type probe struct {
	heapBytes uint64
	allocs    uint64
	rec       record
}

func probeJob(j job, idx int) (p probe) {
	p.rec.job = idx
	defer func() {
		if e := recover(); e != nil {
			p.rec.err = fmt.Errorf("panic: %v", e)
		}
	}()
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	w, s, err := assemble(j, &p.rec)
	if err != nil {
		p.rec.err = err
		return p
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	if m1.HeapAlloc > m0.HeapAlloc {
		p.heapBytes = m1.HeapAlloc - m0.HeapAlloc
	}
	runtime.ReadMemStats(&m0)
	t := time.Now()
	p.rec.res, p.rec.err = s.RunErr(w)
	p.rec.run = time.Since(t)
	runtime.ReadMemStats(&m1)
	p.allocs = m1.Mallocs - m0.Mallocs
	return p
}
