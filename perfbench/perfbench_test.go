package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"strings"
	"testing"

	"tssim/internal/sim"
	"tssim/internal/workload"
)

// TestDriveReproducesRunErr holds the traced stepper to RunErr: same
// cycles, skipped cycles, instructions, counters and histograms, on
// every job of all three workloads cut to 40k cycles, and on full-length
// runs that finish and pass validation. Only then do the per-layer
// times stand for the real program.
func TestDriveReproducesRunErr(t *testing.T) {
	for _, sp := range specs {
		jobs, err := sp.jobs(7)
		if err != nil {
			t.Fatal(err)
		}
		for i, j := range jobs {
			j.cfg.MaxCycles = 40_000
			if i == 0 && j.p.CPUs == 4 {
				j.cfg.MaxCycles = 0
			}
			w, err := workload.ByName(j.name, j.p)
			if err != nil {
				t.Fatal(err)
			}
			want, wantErr := sim.New(j.cfg, w).RunErr(w)
			var lt layerTimes
			got, gotErr := drive(sim.New(j.cfg, w), w, j.cfg, &lt)
			if (wantErr == nil) != (gotErr == nil) || want.Finished != got.Finished {
				t.Fatalf("%s job %d: RunErr err=%v finished=%v, stepper err=%v finished=%v",
					sp.name, i, wantErr, want.Finished, gotErr, got.Finished)
			}
			if d := differs(&want, &got); d != "" {
				t.Fatalf("%s job %d (%d cycles): stepper %s", sp.name, i, want.Cycles, d)
			}
			if j.cfg.MaxCycles == 0 && !got.Finished {
				t.Fatalf("%s job %d: full-length run did not finish", sp.name, i)
			}
			if lt.probes == 0 || lt.cores == 0 {
				t.Fatalf("%s job %d: stepper timed nothing: %+v", sp.name, i, lt)
			}
		}
	}
}

// TestSeedReachesProgram checks that exact counts depend on the seed
// alone: two invocations with one seed agree (allocations within
// allocsTolerance), and another seed moves sim.cycles on at least one
// workload.
func TestSeedReachesProgram(t *testing.T) {
	moved := false
	for _, name := range []string{"specjbb-idle", "tpcb-active"} {
		sp, err := specByName(name)
		if err != nil {
			t.Fatal(err)
		}
		a, err := exactCounts(sp, 3)
		if err != nil {
			t.Fatal(err)
		}
		b, err := exactCounts(sp, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !sameAll(a, b) {
			t.Fatalf("%s: seed 3 gave %v, then %v", name, a, b)
		}
		c, err := exactCounts(sp, 4)
		if err != nil {
			t.Fatal(err)
		}
		moved = moved || c["sim.cycles"] != a["sim.cycles"]
	}
	if !moved {
		t.Fatal("seeds 3 and 4 gave the same sim.cycles on every workload")
	}
}

func sameAll(a, b map[string]float64) bool {
	for k, v := range a {
		if !sameExact(k, v, b[k]) {
			return false
		}
	}
	return len(a) == len(b)
}

// TestResultLine runs the benchmark briefly in both modes and checks
// the last line: every simulation correct, and exactly the metrics
// BENCHMARK.json lists for the mode.
func TestResultLine(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var bj struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	units := func(es []entry) map[string]string {
		m := map[string]string{}
		for _, e := range es {
			m[e.Name] = e.Unit
		}
		return m
	}
	sp, err := specByName("tpcb-active")
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []struct {
		traced bool
		want   map[string]string
	}{{false, units(bj.EndToEnd)}, {true, units(bj.PerLayer)}} {
		var out bytes.Buffer
		if err := bench(&out, sp, 1, 0, mode.traced); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Fatalf("traced=%v: %s", mode.traced, out.String())
		}
		got := map[string]string{}
		for name, m := range res.Metrics {
			got[name] = m.Unit
		}
		if !maps.Equal(got, mode.want) {
			t.Fatalf("traced=%v: metrics and units %v, BENCHMARK.json lists %v", mode.traced, got, mode.want)
		}
	}
}
