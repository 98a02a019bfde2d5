package main

import (
	"fmt"

	"tssim/internal/sim"
	"tssim/internal/workload"
)

// job is one simulation of a round: the workload the simulation
// builds with workload.ByName, and its seeded machine configuration.
type job struct {
	name string
	p    workload.Params
	cfg  sim.Config
}

// spec describes one benchmark workload.
type spec struct {
	name string
	// jobs derives one round's simulations from the seed.
	jobs func(seed int64) ([]job, error)
	// probes are the job indices the set-up phase runs alone, for
	// heap_mb and allocs_per_sim_cycle.
	probes []int
}

// params are the workload parameters the tssim CLIs and the experiment
// harness use.
func params(cpus int) workload.Params {
	return workload.Params{CPUs: cpus, Scale: 1, UnsafeISyncEvery: 3}
}

// single is a workload of one configuration, repeated under n seeds
// derived from the benchmark seed by sim.SampleJobs; the first nprobe
// jobs are its probes.
func single(name, wl string, cpus int, ic string, tech sim.Techniques, n, nprobe int) spec {
	probes := make([]int, nprobe)
	for i := range probes {
		probes[i] = i
	}
	return spec{
		name:   name,
		probes: probes,
		jobs: func(seed int64) ([]job, error) {
			p := params(cpus)
			w, err := workload.ByName(wl, p)
			if err != nil {
				return nil, err
			}
			cfg := sim.ExperimentConfig()
			cfg.CPUs = cpus
			cfg.Interconnect = ic
			cfg.Tech = tech
			cfg.Seed = seed
			var js []job
			for _, sj := range sim.SampleJobs(cfg, w, n) {
				js = append(js, job{name: wl, p: p, cfg: sj.Cfg})
			}
			return js, nil
		},
	}
}

var allTech = sim.Techniques{MESTI: true, EMESTI: true, LVP: true, SLE: true}

// The three workloads use the simulator in opposite ways (README.md has
// the full reasons). Simulated work per cycle differs from seed to
// seed (on the 16-CPU directory machine, the instructions one seed
// commits vary by about a fifth), so each round averages over 16 seeds.
var specs = []spec{
	// Idle-heavy: most cycles fast-forwarded, read-dominated bus.
	single("specjbb-idle", "specjbb", 4, "", sim.Techniques{}, 16, 16),
	// Compute-bound, with all three of the paper's mechanisms on.
	single("tpcb-active", "tpc-b", 4, "", allTech, 16, 16),
	// The directory backend's probe path at 16 cores.
	single("dir16-specjbb", "specjbb", 16, "directory", sim.Techniques{MESTI: true, EMESTI: true}, 16, 2),
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}
