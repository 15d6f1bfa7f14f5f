// Package bench contains the experiment runners that regenerate every
// table and figure of the paper's evaluation (§6). Each Fig* function
// returns printable series/tables; cmd/filter-* binaries and the root
// bench_test.go both drive these runners, so `go test -bench` and the CLI
// produce the same experiments.
//
// Measured experiments (Figs. 5, 9, 14, 15, the cuckoo bucket ablation
// and the kernels, parallel and xor experiments) build, fill and time
// their filters with package calibrate's primitive, the one the
// calibration behind a MeasuredModel runs, so a figure's t_l and a
// calibrated t_l are one measurement. Their lookups stream through 2^22
// distinct keys, so Fig. 14's cycles per lookup rise once the filter
// outgrows the caches; only the kernels experiment re-probes one batch,
// as its gated baseline was recorded that way. Cycles come from the
// platform package's estimated cycle rate. Analytic experiments (Figs. 1,
// 3, 4, 7, 8, 10-13) evaluate the fpr/model packages and can additionally
// be parameterized with the paper's Table 1 platform presets. Each output
// is read against the paper's figure or table of the same number; package
// simd explains why measured SIMD speedups are smaller.
package bench

import (
	"fmt"
	"strings"
	"sync"

	"perfilter/internal/core"
	"perfilter/internal/platform"
	"perfilter/internal/rng"
)

// Series is one plotted line: paired X/Y values with labels. The JSON
// tags shape the BENCH_*.json summaries filter-bench emits for CI.
type Series struct {
	Name   string    `json:"name"`
	XLabel string    `json:"x_label"`
	YLabel string    `json:"y_label"`
	X      []float64 `json:"x"`
	Y      []float64 `json:"y"`
}

// Format renders series as aligned columns (x once, one y column per
// series), suitable for terminals and gnuplot alike.
func Format(series []Series) string {
	if len(series) == 0 {
		return "(no data)\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# %s", series[0].XLabel)
	for _, s := range series {
		fmt.Fprintf(&b, "\t%s(%s)", s.Name, s.YLabel)
	}
	b.WriteByte('\n')
	for i := range series[0].X {
		fmt.Fprintf(&b, "%.6g", series[0].X[i])
		for _, s := range series {
			if i < len(s.Y) {
				fmt.Fprintf(&b, "\t%.6g", s.Y[i])
			} else {
				b.WriteString("\t-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// randomKeys generates n keys from a seeded Mersenne Twister.
func randomKeys(n int, seed uint32) []core.Key {
	r := rng.NewMT19937(seed)
	out := make([]core.Key, n)
	for i := range out {
		out[i] = r.Uint32()
	}
	return out
}

// hostInfo caches platform detection for all measured experiments.
var (
	hostOnce sync.Once
	hostVal  platform.Info
)

func host() platform.Info {
	hostOnce.Do(func() { hostVal = platform.Detect() })
	return hostVal
}
