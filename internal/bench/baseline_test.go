package bench

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestCompareBaseline covers the CI kernels gate (filter-bench -fig
// kernels -baseline BENCH_kernels.json): a series fails only when it keeps
// less than 1-RegressionTolerance of its baseline mean, a zero baseline
// never fails, one-sided series are listed but never fail, and an
// unreadable or malformed baseline is an error.
func TestCompareBaseline(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_kernels.json")
	base := Summary{Experiment: "kernels", Series: []Series{
		{Name: "edge", Y: []float64{50, 150}}, // mean 100
		{Name: "below", Y: []float64{1024}},
		{Name: "zero", Y: []float64{0}},
		{Name: "gone", Y: []float64{100}},
	}}
	if err := base.WriteJSON(path); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name      string
		current   []Series
		ratio     float64
		regressed bool
		unmatched []string
	}{
		{"at tolerance", []Series{{Name: "edge", Y: []float64{75}}}, 0.75, false, []string{"below (baseline only)", "zero (baseline only)", "gone (baseline only)"}},
		{"below tolerance", []Series{{Name: "below", Y: []float64{767}}}, 767.0 / 1024, true, []string{"edge (baseline only)", "zero (baseline only)", "gone (baseline only)"}},
		{"zero baseline", []Series{{Name: "zero", Y: []float64{5}}}, 1, false, []string{"edge (baseline only)", "below (baseline only)", "gone (baseline only)"}},
		{"current only", []Series{{Name: "new", Y: []float64{1}}}, 0, false, []string{"new", "edge (baseline only)", "below (baseline only)", "zero (baseline only)", "gone (baseline only)"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := CompareBaseline(path, tc.current, RegressionTolerance)
			if err != nil {
				t.Fatal(err)
			}
			if r.Regressed() != tc.regressed {
				t.Errorf("Regressed() = %v, want %v", r.Regressed(), tc.regressed)
			}
			if !slices.Equal(r.Unmatched, tc.unmatched) {
				t.Errorf("Unmatched = %q, want %q", r.Unmatched, tc.unmatched)
			}
			out := r.Format()
			for _, name := range tc.unmatched {
				if !strings.Contains(out, name) {
					t.Errorf("Format() omits unmatched %q:\n%s", name, out)
				}
			}
			if len(r.Deltas) == 0 {
				return
			}
			d := r.Deltas[0]
			if len(r.Deltas) != 1 || d.Ratio != tc.ratio || d.Fail != tc.regressed {
				t.Fatalf("Deltas = %+v, want one with ratio %v, fail %v", r.Deltas, tc.ratio, tc.regressed)
			}
			status := "ok"
			if d.Fail {
				status = "REGRESSED"
			}
			if !strings.Contains(out, d.Name) || !strings.Contains(out, status) {
				t.Errorf("Format() does not report %s as %s:\n%s", d.Name, status, out)
			}
		})
	}

	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{filepath.Join(dir, "missing.json"), bad} {
		if _, err := CompareBaseline(p, nil, RegressionTolerance); err == nil {
			t.Errorf("CompareBaseline(%s) succeeded", filepath.Base(p))
		}
	}
}
