// Package adaptive holds the workload-tracking and control-loop substrate
// behind perfilter.NewAdaptive: cheap atomic workload counters, the
// hysteresis policy deciding when a re-advised configuration is worth a
// live migration, an append-only key log (a raw tail under one lock,
// sealed into compact runs off the insert path) that makes migrations
// lossless (any filter kind can be rebuilt from it), and the Decision
// record each re-optimization pass leaves behind.
//
// The paper's central observation is that the performance-optimal filter
// *changes* as the workload moves (n and tw shift the Bloom/Cuckoo
// boundary, §2 and Fig. 1). A filter advised once at build time is
// therefore silently wrong after the workload outgrows it. This package
// supplies the mechanism; the policy-free model evaluation stays in the
// root package (which owns Advise) and is injected as a callback, keeping
// the import direction root → internal consistent with the rest of the
// repository.
package adaptive

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Stats accumulates the observed workload with lock-free atomic counters —
// cheap enough to sit on every insert and probe of a production filter.
type Stats struct {
	inserts   atomic.Uint64
	probes    atomic.Uint64
	positives atomic.Uint64
	batches   atomic.Uint64
}

// RecordInsert counts n acknowledged inserts.
func (s *Stats) RecordInsert(n uint64) { s.inserts.Add(n) }

// RecordProbe counts one probe batch: probed keys and positive answers.
func (s *Stats) RecordProbe(probed, positive uint64) {
	s.probes.Add(probed)
	s.positives.Add(positive)
	s.batches.Add(1)
}

// Reset zeroes all counters (a new generation's history starts fresh).
func (s *Stats) Reset() {
	s.inserts.Store(0)
	s.probes.Store(0)
	s.positives.Store(0)
	s.batches.Store(0)
}

// Restore overwrites the counters from a snapshot (the deserialization
// path; not concurrency-safe against recording).
func (s *Stats) Restore(c Counters) {
	s.inserts.Store(c.Inserts)
	s.probes.Store(c.Probes)
	s.positives.Store(c.Positives)
	s.batches.Store(c.Batches)
}

// Snapshot returns a point-in-time copy of the counters.
func (s *Stats) Snapshot() Counters {
	return Counters{
		Inserts:   s.inserts.Load(),
		Probes:    s.probes.Load(),
		Positives: s.positives.Load(),
		Batches:   s.batches.Load(),
	}
}

// Counters is one observation of the tracked workload.
type Counters struct {
	Inserts   uint64 `json:"inserts"`
	Probes    uint64 `json:"probes"`
	Positives uint64 `json:"positives"`
	Batches   uint64 `json:"batches"`
}

// Sub returns the counter deltas since a baseline snapshot — the window
// the control loop evaluates (e.g. "since the last migration") rather
// than a filter's whole history. Counters are monotone, so saturating
// subtraction only guards against a baseline from a newer snapshot.
func (c Counters) Sub(base Counters) Counters {
	sub := func(a, b uint64) uint64 {
		if a < b {
			return 0
		}
		return a - b
	}
	return Counters{
		Inserts:   sub(c.Inserts, base.Inserts),
		Probes:    sub(c.Probes, base.Probes),
		Positives: sub(c.Positives, base.Positives),
		Batches:   sub(c.Batches, base.Batches),
	}
}

// InsertFraction returns the share of observed operations that were
// inserts. With nothing observed it returns 1 — "all writes" — so an
// idle window can never pass for a read-mostly one (the gate that makes
// immutable filter families eligible must see actual probe traffic).
func (c Counters) InsertFraction() float64 {
	ops := c.Inserts + c.Probes
	if ops == 0 {
		return 1
	}
	return float64(c.Inserts) / float64(ops)
}

// Sigma estimates the true-hit fraction σ from the observed positive
// fraction. The estimate includes false positives, so it overstates σ by
// at most the filter's FPR — negligible against the ρ comparison it feeds
// (σ only gates the is-filtering-beneficial test). fallback is returned
// when no probes have been observed yet.
func (c Counters) Sigma(fallback float64) float64 {
	if c.Probes == 0 {
		return fallback
	}
	return float64(c.Positives) / float64(c.Probes)
}

// The hysteresis rule deciding when a re-advised configuration justifies a
// live migration. Migration is not free (the key log is replayed into a
// staged generation), so the modeled win must clear a margin before the
// control loop acts, and a minimum of observed work must have accumulated
// so one early probe burst cannot thrash the filter.
const (
	// Margin is the fractional ρ improvement required to migrate: the
	// candidate must satisfy ρ_new < (1−Margin)·ρ_cur.
	Margin = 0.15
	// MinInserts gates migration until the filter has seen at least this
	// many inserts.
	MinInserts = 1024
)

// ShouldMigrate applies the hysteresis rule to a modeled comparison and
// returns the verdict with a human-readable reason (surfaced through the
// server's advice endpoint and the bench's decision records).
func ShouldMigrate(curRho, bestRho float64, inserts uint64) (bool, string) {
	if inserts < MinInserts {
		return false, fmt.Sprintf("only %d inserts observed (min %d)", inserts, MinInserts)
	}
	if curRho <= 0 {
		return false, "current overhead not modeled"
	}
	improvement := 1 - bestRho/curRho
	if improvement < Margin {
		return false, fmt.Sprintf("improvement %.1f%% below margin %.1f%%", improvement*100, Margin*100)
	}
	return true, fmt.Sprintf("improvement %.1f%% clears margin %.1f%%", improvement*100, Margin*100)
}

// Decision records one re-optimization pass: what the tracker saw, what
// the model recommended, and whether the filter migrated. Decisions are
// JSON-friendly so the server's advice and trace endpoints and the bench
// summary can emit them verbatim.
type Decision struct {
	At          time.Time `json:"at"`
	N           uint64    `json:"n"`
	Sigma       float64   `json:"sigma"`
	Current     string    `json:"current"`
	CurrentRho  float64   `json:"current_rho"`
	Best        string    `json:"best"`
	BestMBits   uint64    `json:"best_mbits"`
	BestRho     float64   `json:"best_rho"`
	KindChanged bool      `json:"kind_changed"`
	Migrated    bool      `json:"migrated"`
	Reason      string    `json:"reason"`
	// Margin is the hysteresis margin the ρ comparison was held to.
	Margin float64 `json:"margin,omitempty"`
	// Window is the tracked workload since the last migration at decision
	// time — the counters the σ estimate and the read-mostly gate were
	// computed from.
	Window Counters `json:"window,omitempty"`
	// ReplayedKeys and MigrationNs are what a migration cost: the
	// distinct keys replayed from the key log into the new generation, and
	// the wall time of the whole rebuild. Both are zero when no migration
	// ran.
	ReplayedKeys uint64 `json:"replayed_keys,omitempty"`
	MigrationNs  int64  `json:"migration_ns,omitempty"`
}
