package main

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"

	"tssim/internal/sim"
)

// metric is one printed figure.
type metric struct {
	name  string
	value float64
	unit  string
	note  string // base counts of a ratio, or how the value was taken
}

// report collects metrics in print order.
type report struct{ ms []metric }

func (r *report) add(name string, value float64, unit, note string) {
	r.ms = append(r.ms, metric{name, value, unit, note})
}

// ratio adds num/den (0 when den is 0) with its base counts.
func (r *report) ratio(name string, num, den uint64, numName, denName string) {
	v := 0.0
	if den > 0 {
		v = float64(num) / float64(den)
	}
	r.add(name, v, "ratio", fmt.Sprintf("%s=%d / %s=%d", numName, num, denName, den))
}

// result is the last line of standard output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes one human-readable line per metric, then the result
// line holding the metrics named in keep.
func (r *report) print(w io.Writer, chk *checker, keep []string) error {
	for _, m := range r.ms {
		line := fmt.Sprintf("%-32s %-16.6g %s", m.name, m.value, m.unit)
		if m.note != "" {
			line += "  (" + m.note + ")"
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	for _, reason := range chk.reasons {
		fmt.Fprintln(w, "FAILED", reason)
	}
	out := result{
		Correct:   chk.failed == 0,
		Attempted: chk.attempted,
		Failed:    chk.failed,
		Metrics:   map[string]jsonMetric{},
	}
	for _, m := range r.ms {
		if slices.Contains(keep, m.name) {
			out.Metrics[m.name] = jsonMetric{m.value, m.unit}
		}
	}
	if len(out.Metrics) != len(keep) {
		return fmt.Errorf("result lacks some of the metrics %v", keep)
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// totals sums one round's results: every job of the workload once.
type totals struct {
	cycles, instrs, skipped uint64
	counters                map[string]uint64
	histN, histSum          map[string]uint64
}

func sumResults(rs []*sim.Result) totals {
	t := totals{counters: map[string]uint64{}, histN: map[string]uint64{}, histSum: map[string]uint64{}}
	for _, r := range rs {
		if r == nil {
			continue
		}
		t.cycles += r.Cycles
		t.instrs += r.Retired
		t.skipped += r.SkippedCycles
		for k, v := range r.Counters {
			t.counters[k] += v
		}
		for k, h := range r.Hists {
			t.histN[k] += h.N
			t.histSum[k] += h.Sum
		}
	}
	return t
}

// busTxn is the number of address transactions of every type.
func (t totals) busTxn() uint64 {
	var n uint64
	for k, v := range t.counters {
		if strings.HasPrefix(k, "bus/txn/") {
			n += v
		}
	}
	return n
}

func (t totals) histMean(name string) float64 {
	if t.histN[name] == 0 {
		return 0
	}
	return float64(t.histSum[name]) / float64(t.histN[name])
}
