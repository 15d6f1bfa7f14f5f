// Package bench contains the experiment runners that regenerate every
// table and figure of the paper's evaluation (§6). Each Fig* function
// returns printable series/tables; cmd/filter-* binaries and the root
// bench_test.go both drive these runners, so `go test -bench` and the CLI
// produce the same experiments.
//
// Measured experiments (Figs. 5, 9, 14, 15) run on the host and report
// cycles via the platform package's calibrated cycle rate. Analytic
// experiments (Figs. 1, 3, 4, 7, 8, 10-13) evaluate the fpr/model packages
// and can additionally be parameterized with the paper's Table 1 platform
// presets. Each output is read against the paper's figure or table of the
// same number; package simd explains why measured SIMD speedups are smaller.
package bench

import (
	"fmt"
	"strings"
	"sync"
	"time"

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

// prober is the scalar+batch lookup contract the measured experiments use.
type prober interface {
	core.BatchProber
	Contains(core.Key) bool
}

// fill inserts n random keys through the given insert function.
func fill(insert func(core.Key) bool, n int, seed uint32) {
	r := rng.NewMT19937(seed)
	for i := 0; i < n; i++ {
		if !insert(r.Uint32()) {
			return
		}
	}
}

// probeKeys generates a random probe batch (almost all negative — the
// high-throughput scenario).
func probeKeys(n int, seed uint32) []core.Key {
	r := rng.NewMT19937(seed)
	out := make([]core.Key, n)
	for i := range out {
		out[i] = r.Uint32()
	}
	return out
}

// measureBatchNs times batched lookups, returning ns per lookup.
func measureBatchNs(p core.BatchProber, probe []core.Key, minTime time.Duration) float64 {
	sel := make(core.SelVec, 0, len(probe))
	sel = p.ContainsBatch(probe, sel[:0]) // warmup
	var lookups int64
	start := time.Now()
	for time.Since(start) < minTime {
		for rep := 0; rep < 4; rep++ {
			sel = p.ContainsBatch(probe, sel[:0])
			lookups += int64(len(probe))
		}
	}
	_ = sel
	return float64(time.Since(start).Nanoseconds()) / float64(lookups)
}

// measureScalarNs times one-key-at-a-time lookups, returning ns per lookup.
func measureScalarNs(p prober, probe []core.Key, minTime time.Duration) float64 {
	var hits int
	for _, k := range probe { // warmup
		if p.Contains(k) {
			hits++
		}
	}
	var lookups int64
	start := time.Now()
	for time.Since(start) < minTime {
		for _, k := range probe {
			if p.Contains(k) {
				hits++
			}
		}
		lookups += int64(len(probe))
	}
	_ = hits
	return float64(time.Since(start).Nanoseconds()) / float64(lookups)
}

// measureThroughput runs batched lookups from `threads` goroutines against
// one shared filter and returns aggregate lookups per second (Figure 5's
// metric, M/sec).
func measureThroughput(p core.BatchProber, probe []core.Key, threads int, minTime time.Duration) float64 {
	if threads < 1 {
		threads = 1
	}
	var wg sync.WaitGroup
	counts := make([]int64, threads)
	start := time.Now()
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			sel := make(core.SelVec, 0, len(probe))
			// Offset each thread's probe window to avoid lockstep.
			local := probe[(t*37)%len(probe):]
			if len(local) < 64 {
				local = probe
			}
			for time.Since(start) < minTime {
				sel = p.ContainsBatch(local, sel[:0])
				counts[t] += int64(len(local))
			}
		}(t)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	var total int64
	for _, c := range counts {
		total += c
	}
	return float64(total) / elapsed
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
