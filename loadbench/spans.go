package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call at a layer boundary: a client request ("net") or
// an in-process call into one layer of the replay.
type span struct {
	Layer   string `json:"layer"`
	Op      string `json:"op"`
	StartNs int64  `json:"start_ns"` // since the run started
	DurNs   int64  `json:"dur_ns"`
	Keys    int    `json:"keys"`
}

// spanLog keeps spans in memory until the run ends. A nil log records
// nothing, so untraced runs pay one nil check per request.
type spanLog struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) add(layer, op string, start time.Time, d time.Duration, keys int) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, span{layer, op, start.Sub(l.t0).Nanoseconds(), d.Nanoseconds(), keys})
	l.mu.Unlock()
}

// nsPerKey returns each recorded (layer, op) call's ns/key.
func (l *spanLog) nsPerKey(layer, op string) []float64 {
	var out []float64
	for _, s := range l.spans {
		if s.Layer == layer && s.Op == op && s.Keys > 0 {
			out = append(out, float64(s.DurNs)/float64(s.Keys))
		}
	}
	return out
}

// write saves the spans as JSON lines.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
