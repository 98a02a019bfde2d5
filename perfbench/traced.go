package main

import (
	"fmt"
	"time"

	"tssim/internal/sim"
)

// layerTimes is one traced simulation's host time per layer, with the
// horizon scan's work counts.
type layerTimes struct {
	horizon, skip, bus, nodes, cores, merge, total time.Duration
	probes, skips                                  uint64 // horizon scans; scans that led to a skip
}

func (a *layerTimes) add(b layerTimes) {
	a.horizon += b.horizon
	a.skip += b.skip
	a.bus += b.bus
	a.nodes += b.nodes
	a.cores += b.cores
	a.merge += b.merge
	a.total += b.total
	a.probes += b.probes
	a.skips += b.skips
}

// drive runs an assembled machine to completion like
// (*sim.System).RunErr, but steps it from outside through its exported
// parts — Cores/Nodes/Bus NextEvent, SkipCycles and Tick — in the order
// System.runErr uses, timing each group of calls into lt. The machine
// must have been built without the coherence checker or an event
// tracer, whose hooks the loop does not replay. The returned Result
// matches RunErr's in every simulated field and in SkippedCycles.
func drive(s *sim.System, w sim.Workload, cfg sim.Config, lt *layerTimes) (sim.Result, error) {
	start := time.Now()
	maxCycles := cfg.MaxCycles
	if maxCycles == 0 {
		maxCycles = sim.DefaultMaxCycles
	}
	watchdog := cfg.NoProgressCycles
	if watchdog == 0 {
		watchdog = sim.DefaultNoProgressCycles
	}
	var now, skipped, lastRetired, lastProgress uint64
	var runErr error
	for now < maxCycles {
		if r := retired(s); r != lastRetired {
			lastRetired = r
			lastProgress = now
		} else if now-lastProgress > watchdog {
			runErr = &sim.RunError{Workload: w.Name, Tech: cfg.Tech,
				Reason: fmt.Sprintf("no instruction retired for %d cycles at cycle %d — deadlock", watchdog, now)}
			break
		}
		if err := s.Bus.Err(); err != nil {
			runErr = &sim.RunError{Workload: w.Name, Tech: cfg.Tech, Reason: err.Error()}
			break
		}
		if drained(s) {
			break
		}
		t0 := time.Now()
		nxt := nextEvent(s, now)
		t1 := time.Now()
		lt.horizon += t1.Sub(t0)
		lt.probes++
		if nxt > now {
			target := nxt
			if limit := lastProgress + watchdog + 1; limit < target {
				target = limit
			}
			if maxCycles < target {
				target = maxCycles
			}
			if target > now {
				for _, c := range s.Cores {
					c.SkipCycles(now, target)
				}
				for _, n := range s.Nodes {
					n.SkipCycles(now, target)
				}
				lt.skip += time.Since(t1)
				lt.skips++
				skipped += target - now
				now = target
				continue
			}
		}
		s.Bus.Tick(now)
		t2 := time.Now()
		for _, n := range s.Nodes {
			n.Tick(now)
		}
		t3 := time.Now()
		for _, c := range s.Cores {
			c.Tick(now)
		}
		t4 := time.Now()
		lt.bus += t2.Sub(t1)
		lt.nodes += t3.Sub(t2)
		lt.cores += t4.Sub(t3)
		now++
	}

	mergeStart := time.Now()
	res := sim.Result{
		Workload:      w.Name,
		Tech:          cfg.Tech,
		Cycles:        now,
		Counters:      s.Counters.Snapshot(),
		Hists:         s.Counters.HistSnapshots(),
		Stats:         s.Counters,
		SkippedCycles: skipped,
		Finished:      runErr == nil,
	}
	for _, c := range s.Cores {
		if !c.Halted() {
			res.Finished = false
		}
		res.PerCPU = append(res.PerCPU, c.Retired())
		res.Retired += c.Retired()
	}
	if runErr == nil && w.Validate != nil && res.Finished {
		if err := w.Validate(s.Mem, s.ReadWordCoherent); err != nil {
			runErr = &sim.RunError{Workload: w.Name, Tech: cfg.Tech,
				Reason: fmt.Sprintf("workload %q validation failed under %s: %v", w.Name, cfg.Tech, err)}
		}
	}
	end := time.Now()
	lt.merge += end.Sub(mergeStart)
	lt.total += end.Sub(start)
	res.Wall = end.Sub(start)
	res.Err = runErr
	return res, runErr
}

// retired is the machine-wide committed instruction count the
// watchdog reads.
func retired(s *sim.System) uint64 {
	var n uint64
	for _, c := range s.Cores {
		n += c.Retired()
	}
	return n
}

// drained reports the run's end: every core halted, the interconnect
// idle and every store buffer empty.
func drained(s *sim.System) bool {
	for _, c := range s.Cores {
		if !c.Halted() {
			return false
		}
	}
	if !s.Bus.Idle() {
		return false
	}
	for _, n := range s.Nodes {
		if !n.StoreBufEmpty() {
			return false
		}
	}
	return true
}

// nextEvent is the horizon scan: the earliest cycle any component can
// change observable state, bailing out at the first component that
// acts on the next cycle.
func nextEvent(s *sim.System, now uint64) uint64 {
	next := ^uint64(0)
	for _, c := range s.Cores {
		ne := c.NextEvent(now)
		if ne <= now {
			return now
		}
		next = min(next, ne)
	}
	for _, n := range s.Nodes {
		ne := n.NextEvent(now)
		if ne <= now {
			return now
		}
		next = min(next, ne)
	}
	ne := s.Bus.NextEvent(now)
	if ne <= now {
		return now
	}
	return min(next, ne)
}
