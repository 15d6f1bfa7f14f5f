// History: a self-scraped ring of registry snapshots, so the last N
// minutes of metric movement are inspectable from the process itself —
// a latency spike or crash-loop leaves evidence at
// GET /metrics/history?window=5m without an external Prometheus.
//
// Each scrape records counter *deltas* and histogram *windows* (bucket
// deltas against the previous scrape, reduced to count/sum/p50/p95/p99),
// plus absolute gauge values. Deltas are the point: a cumulative p99
// over a day-old histogram cannot show a five-minute regression, but the
// quantile of just the observations that landed between two scrapes can.
package obs

import (
	"encoding/json"
	"net/http"
	"sync"
	"time"
)

// HistogramWindow summarizes one histogram's observations between two
// consecutive scrapes.
type HistogramWindow struct {
	Count uint64  `json:"count"`
	SumNs uint64  `json:"sum_ns"`
	P50   float64 `json:"p50_ns"`
	P95   float64 `json:"p95_ns"`
	P99   float64 `json:"p99_ns"`
}

// HistoryEntry is one interval between two consecutive scrapes. Map keys
// are the exposition series identity: name plus rendered labels, e.g.
// `perfilter_server_keys_total{filter="ids",op="probe"}`. Zero-delta
// counters and empty histogram windows are omitted.
type HistoryEntry struct {
	At         time.Time                  `json:"at"` // end of the interval
	IntervalNs int64                      `json:"interval_ns"`
	Counters   map[string]uint64          `json:"counter_deltas,omitempty"`
	Gauges     map[string]float64         `json:"gauges,omitempty"`
	Histograms map[string]HistogramWindow `json:"histograms,omitempty"`
}

// histRaw is one histogram's raw cumulative state at scrape time.
type histRaw struct {
	buckets  [HistogramBuckets]uint64
	overflow uint64
	count    uint64
	sum      uint64
}

// rawSnapshot reads every series' current value. The registry lock only
// guards the family/series structure walk; instrument reads happen after
// unlock (they are atomics), and GaugeFunc callbacks in particular must
// run unlocked — several of the server's callbacks take server locks.
func (r *Registry) rawSnapshot() (counters map[string]uint64, gauges map[string]float64, hists map[string]histRaw) {
	type pending struct {
		key  string
		inst *instrument
	}
	r.mu.Lock()
	all := make([]pending, 0, 64)
	for name, f := range r.families {
		for _, s := range f.series {
			all = append(all, pending{key: name + s.labels, inst: &s.inst})
		}
	}
	r.mu.Unlock()

	counters = make(map[string]uint64)
	gauges = make(map[string]float64)
	hists = make(map[string]histRaw)
	for _, p := range all {
		fn := p.inst.fn.Load()
		switch {
		case p.inst.counter != nil:
			counters[p.key] = p.inst.counter.Value()
		case fn != nil:
			gauges[p.key] = (*fn)()
		case p.inst.gauge != nil:
			gauges[p.key] = p.inst.gauge.Value()
		case p.inst.hist != nil:
			var raw histRaw
			h := p.inst.hist
			for i := range h.buckets {
				raw.buckets[i] = h.buckets[i].Load()
			}
			raw.overflow = h.overflow.Load()
			raw.count = h.count.Load()
			raw.sum = h.sum.Load()
			hists[p.key] = raw
		}
	}
	return counters, gauges, hists
}

// History retains a fixed ring of periodic registry snapshots. All
// methods are safe for concurrent use; Scrape calls are serialized by
// mu (overlapping scrapes would corrupt the delta baseline).
type History struct {
	reg     *Registry
	entries *Ring[HistoryEntry]

	mu           sync.Mutex
	primed       bool
	prevAt       time.Time
	prevCounters map[string]uint64
	prevHists    map[string]histRaw
}

// DefaultHistoryEntries is the retained scrape count when capacity <= 0:
// 90 scrapes at the server's default 10 s interval span 15 minutes.
const DefaultHistoryEntries = 90

// NewHistory builds a history over reg retaining capacity intervals.
func NewHistory(reg *Registry, capacity int) *History {
	if capacity <= 0 {
		capacity = DefaultHistoryEntries
	}
	return &History{reg: reg, entries: NewRing[HistoryEntry](capacity)}
}

// Scrape takes one snapshot. The first call only records the delta
// baseline and retains nothing; every later call appends the interval
// since the previous scrape.
func (h *History) Scrape() {
	counters, gauges, hists := h.reg.rawSnapshot()
	now := time.Now()

	h.mu.Lock()
	defer h.mu.Unlock()
	if h.primed {
		e := HistoryEntry{
			At:         now,
			IntervalNs: now.Sub(h.prevAt).Nanoseconds(),
			Counters:   make(map[string]uint64),
			Gauges:     gauges,
			Histograms: make(map[string]HistogramWindow),
		}
		for k, cur := range counters {
			// A series created during the interval has no baseline: its
			// whole value is the delta.
			if d := cur - h.prevCounters[k]; d > 0 && cur >= h.prevCounters[k] {
				e.Counters[k] = d
			}
		}
		for k, cur := range hists {
			prev := h.prevHists[k] // zero value when new: full history is the window
			dc := cur.count - prev.count
			if dc == 0 || cur.count < prev.count {
				continue
			}
			var db [HistogramBuckets]uint64
			for i := range db {
				db[i] = cur.buckets[i] - prev.buckets[i]
			}
			e.Histograms[k] = HistogramWindow{
				Count: dc,
				SumNs: cur.sum - prev.sum,
				P50:   quantileFromBuckets(db[:], cur.overflow-prev.overflow, 0.50),
				P95:   quantileFromBuckets(db[:], cur.overflow-prev.overflow, 0.95),
				P99:   quantileFromBuckets(db[:], cur.overflow-prev.overflow, 0.99),
			}
		}
		h.entries.Add(e)
	}
	h.primed = true
	h.prevAt = now
	h.prevCounters = counters
	h.prevHists = hists
}

// Entries returns the retained intervals that ended within window of the
// newest one, newest first. window <= 0 returns everything retained.
func (h *History) Entries(window time.Duration) []HistoryEntry {
	var out []HistoryEntry
	h.entries.Walk(func(e HistoryEntry) bool {
		if len(out) > 0 && window > 0 && out[0].At.Sub(e.At) > window {
			return false
		}
		out = append(out, e)
		return true
	})
	return out
}

// historyResponse is the GET /metrics/history JSON shape.
type historyResponse struct {
	WindowNs int64          `json:"window_ns"`
	Entries  []HistoryEntry `json:"entries"`
}

// Handler serves the retained intervals as JSON, newest first.
// ?window=5m (any time.ParseDuration string) bounds how far back from
// the newest entry to include; the default is 5 minutes, window=0
// returns everything retained.
func (h *History) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		window := 5 * time.Minute
		if v := r.URL.Query().Get("window"); v != "" {
			d, err := time.ParseDuration(v)
			if err != nil || d < 0 {
				http.Error(w, `{"error":"bad window duration"}`, http.StatusBadRequest)
				return
			}
			window = d
		}
		entries := h.Entries(window)
		if entries == nil {
			entries = []HistoryEntry{}
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(historyResponse{WindowNs: window.Nanoseconds(), Entries: entries})
	})
}
