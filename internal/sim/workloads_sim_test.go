package sim_test

import (
	"testing"

	"tssim/internal/bus"
	"tssim/internal/sim"
	"tssim/internal/workload"
)

// TestWorkloadsOnTimingModel runs every synthetic workload on the full
// timing model under a representative set of technique combinations,
// with commit checking and functional validation active. This is the
// closest analogue of the paper's PHARMsim-vs-SimOS functional
// validation: the machine may be fast or slow, but it must never
// compute wrong answers.
func TestWorkloadsOnTimingModel(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-model sweep is slow")
	}
	techs := []sim.Techniques{
		{},
		{MESTI: true},
		{MESTI: true, EMESTI: true},
		{LVP: true},
		{SLE: true},
		{MESTI: true, EMESTI: true, LVP: true, SLE: true},
	}
	for _, w := range workload.All(workload.Params{CPUs: 4, Scale: 1, UnsafeISyncEvery: 3}) {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			for _, tech := range techs {
				cfg := sim.ExperimentConfig()
				cfg.Tech = tech
				cfg.CheckCommits = true
				res := sim.RunOne(cfg, w) // Validate panics on corruption
				if !res.Finished {
					t.Fatalf("%s under %s did not finish (%d cycles)", w.Name, tech, res.Cycles)
				}
				if res.Retired == 0 {
					t.Fatalf("%s under %s retired nothing", w.Name, tech)
				}
			}
		})
	}
}

// TestParkedLoadsCheckedAllBackends runs workloads whose loads find
// the MSHR file exhausted under the commit checker on every
// interconnect backend. The checker cross-checks every parked load (one
// whose last Load answer was an MSHR-exhausted retry and whose
// controller state version has not moved since) against PeekLoad and
// panics on disagreement, so a state change the version misses fails
// here. specweb runs all four techniques so SLE prefetches and commits
// move the version while loads are parked; tpc-b (the compute-bound
// benchmark machine) never exhausts its MSHRs and guards that the
// wider version leaves the SLE-heavy path intact.
func TestParkedLoadsCheckedAllBackends(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-model sweep is slow")
	}
	all := sim.Techniques{MESTI: true, EMESTI: true, LVP: true, SLE: true}
	runs := []struct {
		name     string
		tech     sim.Techniques
		wantFull bool // some load must find the MSHR file exhausted
	}{
		{"specjbb", sim.Techniques{}, true},
		{"ocean", sim.Techniques{MESTI: true}, true},
		{"specweb", all, true},
		{"tpc-b", all, false},
	}
	for _, r := range runs {
		w, err := workload.ByName(r.name, workload.Params{CPUs: 4, Scale: 1, UnsafeISyncEvery: 3})
		if err != nil {
			t.Fatal(err)
		}
		for _, ic := range bus.Kinds() {
			t.Run(r.name+"/"+ic, func(t *testing.T) {
				cfg := sim.ExperimentConfig()
				cfg.Interconnect = ic
				cfg.Tech = r.tech
				cfg.CheckCommits = true
				res := sim.RunOneErr(cfg, w)
				if res.Err != nil {
					t.Fatal(res.Err)
				}
				if !res.Finished {
					t.Fatalf("did not finish (%d cycles)", res.Cycles)
				}
				if r.wantFull && res.Counters["l2/mshr_full"] == 0 {
					t.Fatal("no load ever found the MSHR file exhausted; nothing was parked")
				}
			})
		}
	}
}
