package sim_test

import (
	"reflect"
	"testing"

	"tssim/internal/bus"
	"tssim/internal/core"
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

// retryCounter is a node's controller, seen by its core through a
// wrapper that counts the Load calls answered LoadRetryFull.
type retryCounter struct {
	*core.Controller
	n *uint64
}

func (r retryCounter) Load(seq, addr uint64, isLL bool) core.LoadResult {
	res := r.Controller.Load(seq, addr, isLL)
	if res.Status == core.LoadRetryFull {
		*r.n++
	}
	return res
}

// wantRetryFullAnswers is the number of LoadRetryFull answers on the
// job of TestLoadRetryFullCount. A parked load calls Load again only
// after the retry version moves, so this is the re-probe work parking
// leaves. For scale: the job counts 15747205 MSHR-exhausted retries
// (l2/mshr_full), every one of which was a Load call before loads were
// parked, and 412836 were left when they were keyed to the wider
// StateVersion.
const wantRetryFullAnswers = 89968

// TestLoadRetryFullCount pins, exactly, a deterministic work count of
// the parked-load path on one fixed specjbb job: how often Load still
// answers LoadRetryFull. A rise means loads are woken more often than
// the MSHR file frees; a fall means they are woken less often, which
// the commit checker's parked-load cross-check should then be shown
// to still accept. The wrapper itself must change nothing.
func TestLoadRetryFullCount(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full specjbb simulation twice")
	}
	w, err := workload.ByName("specjbb", workload.Params{CPUs: 4, Scale: 1, UnsafeISyncEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.ExperimentConfig()
	plain, err := sim.New(cfg, w).RunErr(w)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(cfg, w)
	var n uint64
	for i, c := range s.Cores {
		c.SetMemSystem(retryCounter{Controller: s.Nodes[i], n: &n})
	}
	counted, err := s.RunErr(w)
	if err != nil {
		t.Fatal(err)
	}
	if counted.Cycles != plain.Cycles || !reflect.DeepEqual(counted.Counters, plain.Counters) {
		t.Fatalf("the counting wrapper changed the run: %d cycles vs %d", counted.Cycles, plain.Cycles)
	}
	if plain.Counters["l2/mshr_full"] == 0 {
		t.Fatal("no load found the MSHR file exhausted")
	}
	if n != wantRetryFullAnswers {
		t.Fatalf("LoadRetryFull answered %d times, want %d (l2/mshr_full %d)",
			n, wantRetryFullAnswers, plain.Counters["l2/mshr_full"])
	}
}
