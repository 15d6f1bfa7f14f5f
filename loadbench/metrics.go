package main

// Readers for the server's own observability surfaces: latency
// histograms from /metrics and span trees from /v1/debug/traces.

import (
	"math"
	"sort"
	"strconv"
	"time"
)

// histogram is a delta of one /metrics latency histogram: counts[i] for
// the bucket (2^(i-1), 2^i] ns (bucket 0 is [0, 1]) plus overflow.
type histogram struct {
	counts   []float64
	overflow float64
}

// histDelta subtracts two scrapes of the histogram family name.
func histDelta(before, after map[string]float64, name string) histogram {
	var h histogram
	prev := 0.0
	for i := 0; ; i++ {
		key := name + `_bucket{le="` + strconv.FormatUint(1<<uint(i), 10) + `"}`
		a, ok := after[key]
		if !ok {
			break
		}
		cum := a - before[key]
		h.counts = append(h.counts, cum-prev)
		prev = cum
	}
	inf := name + `_bucket{le="+Inf"}`
	h.overflow = after[inf] - before[inf] - prev
	return h
}

func (h histogram) total() float64 {
	t := h.overflow
	for _, c := range h.counts {
		t += c
	}
	return t
}

// quantile estimates the q-quantile in ns, log-linearly within the
// power-of-two buckets — the estimator behind the server's latency_ns
// stats.
func (h histogram) quantile(q float64) float64 {
	total := h.total()
	if total == 0 {
		return 0
	}
	rank := math.Max(math.Ceil(q*total), 1)
	cum := 0.0
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			frac := (rank - cum) / c
			if i == 0 {
				return frac
			}
			return math.Exp2(float64(i-1) + frac)
		}
		cum += c
	}
	return math.Exp2(float64(len(h.counts) - 1))
}

// tracesDump is the GET /v1/debug/traces answer.
type tracesDump struct {
	Spans []traceSpan `json:"spans"`
}

type traceSpan struct {
	Name       string      `json:"name"`
	Start      time.Time   `json:"start"`
	DurationNs int64       `json:"duration_ns"`
	Children   []traceSpan `json:"children"`
}

// selfUs is the median self time of the retained root spans in µs: each
// root's duration minus the part of it its children's intervals cover.
func (d tracesDump) selfUs() float64 {
	var selfs []float64
	for _, s := range d.Spans {
		selfs = append(selfs, float64(s.DurationNs-s.childCoverNs())/1e3)
	}
	return median(selfs)
}

// childCoverNs is the length of the union of the children's intervals,
// clipped to the span's own.
func (s traceSpan) childCoverNs() int64 {
	type iv struct{ a, b int64 }
	t0 := s.Start.UnixNano()
	end := t0 + s.DurationNs
	ivs := make([]iv, 0, len(s.Children))
	for _, c := range s.Children {
		a := max(c.Start.UnixNano(), t0)
		b := min(c.Start.UnixNano()+c.DurationNs, end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, curA, curB int64
	for i, v := range ivs {
		switch {
		case i == 0:
			curA, curB = v.a, v.b
		case v.a > curB:
			covered += curB - curA
			curA, curB = v.a, v.b
		case v.b > curB:
			curB = v.b
		}
	}
	if len(ivs) > 0 {
		covered += curB - curA
	}
	return covered
}
