package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// RegressionTolerance is the fraction of baseline throughput a series may
// lose before the comparison fails: 25%, loose enough to absorb shared-CI
// noise but tight enough to catch a disabled fast path (a dead worker
// pool costs far more than this).
const RegressionTolerance = 0.25

// BaselineDelta is one series' comparison against the baseline run.
type BaselineDelta struct {
	Name     string  // series name
	Baseline float64 // baseline mean Y
	Current  float64 // this run's mean Y
	Ratio    float64 // Current / Baseline
	Fail     bool    // Ratio below 1 - tolerance
}

// BaselineReport is the full comparison: one delta per series present in
// both runs, plus the names only one side has (never a failure — the
// figure's series set may grow across commits).
type BaselineReport struct {
	Deltas    []BaselineDelta
	Unmatched []string
}

// Regressed reports whether any matched series fell below tolerance.
func (r BaselineReport) Regressed() bool {
	for _, d := range r.Deltas {
		if d.Fail {
			return true
		}
	}
	return false
}

// Format renders the comparison as aligned comment lines.
func (r BaselineReport) Format() string {
	var b strings.Builder
	for _, d := range r.Deltas {
		status := "ok"
		if d.Fail {
			status = "REGRESSED"
		}
		fmt.Fprintf(&b, "# baseline %-12s %10.2f -> %10.2f  (%5.1f%%)  %s\n",
			d.Name, d.Baseline, d.Current, 100*d.Ratio, status)
	}
	for _, name := range r.Unmatched {
		fmt.Fprintf(&b, "# baseline %-12s (no counterpart; skipped)\n", name)
	}
	return b.String()
}

// mean returns the arithmetic mean of ys (0 for an empty series).
func mean(ys []float64) float64 {
	if len(ys) == 0 {
		return 0
	}
	var sum float64
	for _, y := range ys {
		sum += y
	}
	return sum / float64(len(ys))
}

// CompareBaseline reads a prior run's BENCH_*.json from path and compares
// each of this run's series against its same-named baseline series by
// mean Y (throughput). A series fails when it retains less than
// 1-tolerance of the baseline mean; series present on only one side are
// reported but never fail.
func CompareBaseline(path string, current []Series, tolerance float64) (BaselineReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return BaselineReport{}, fmt.Errorf("bench: read baseline: %w", err)
	}
	var base Summary
	if err := json.Unmarshal(data, &base); err != nil {
		return BaselineReport{}, fmt.Errorf("bench: parse baseline %s: %w", path, err)
	}
	baseMeans := make(map[string]float64, len(base.Series))
	for _, s := range base.Series {
		baseMeans[s.Name] = mean(s.Y)
	}
	var report BaselineReport
	matched := make(map[string]bool, len(current))
	for _, s := range current {
		bm, ok := baseMeans[s.Name]
		if !ok {
			report.Unmatched = append(report.Unmatched, s.Name)
			continue
		}
		matched[s.Name] = true
		cm := mean(s.Y)
		d := BaselineDelta{Name: s.Name, Baseline: bm, Current: cm}
		if bm > 0 {
			d.Ratio = cm / bm
			d.Fail = d.Ratio < 1-tolerance
		} else {
			d.Ratio = 1
		}
		report.Deltas = append(report.Deltas, d)
	}
	for _, s := range base.Series {
		if !matched[s.Name] {
			report.Unmatched = append(report.Unmatched, s.Name+" (baseline only)")
		}
	}
	return report, nil
}
