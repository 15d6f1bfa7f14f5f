package main

import (
	"sort"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// latUs returns the sample latencies in µs.
func (t *timings) latUs() []float64 {
	out := make([]float64, len(t.samples))
	for i, s := range t.samples {
		out[i] = float64(s.lat.Nanoseconds()) / 1e3
	}
	return out
}

// windowStats pools per-window throughput (keys/s) and latency
// quantiles (µs) over the measured phases of a run. Their medians shed
// bursts of interference from outside the benchmark that a whole-phase
// figure would absorb, and pooling the phases of several server
// processes sheds a slow process.
type windowStats struct{ rates, p50s, p90s []float64 }

// add splits a phase into n equal time windows by completion time and
// adds each window's figures.
func (w *windowStats) add(t *timings, n int) {
	width := t.wall / time.Duration(n)
	lats := make([][]float64, n)
	keys := make([]int, n)
	for _, s := range t.samples {
		i := min(int(s.at/width), n-1)
		lats[i] = append(lats[i], float64(s.lat.Nanoseconds())/1e3)
		keys[i] += s.keys
	}
	for i := range lats {
		w.rates = append(w.rates, float64(keys[i])/width.Seconds())
		w.p50s = append(w.p50s, quantile(lats[i], 0.5))
		w.p90s = append(w.p90s, quantile(lats[i], 0.9))
	}
}

// addWhole adds a whole phase as one window.
func (w *windowStats) addWhole(t *timings) {
	w.rates = append(w.rates, float64(t.keys)/t.wall.Seconds())
	w.p50s = append(w.p50s, quantile(t.latUs(), 0.5))
	w.p90s = append(w.p90s, quantile(t.latUs(), 0.9))
}

func (w *windowStats) medians() (rate, p50, p90 float64) {
	return median(w.rates), median(w.p50s), median(w.p90s)
}
