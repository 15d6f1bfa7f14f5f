package main

import (
	"context"
	"fmt"
	"time"

	"perfilter"
	"perfilter/internal/bench"
	"perfilter/internal/rng"
)

// runAdaptive is the -adaptive scenario: the paper's headline crossover —
// Bloom overtakes Cuckoo as the problem grows — happening *live*. An
// adaptive filter is built from the advisor's pick for a small n at the
// given tw (Cuckoo, in the crossover regime), then keys stream in until n
// passes twice the modeled Bloom/Cuckoo boundary. The control loop
// (periodic Reoptimize plus the ErrFull emergency path) must carry the
// filter through size migrations and the kind flip without losing a key;
// the emitted series track the deployed configuration's modeled overhead
// ρ against the re-advised optimum, plus measured probe throughput, as
// functions of n.
func runAdaptive(tw float64, quick bool) ([]bench.Series, *bench.AdaptiveSummary, error) {
	start := uint64(1) << 14
	if quick {
		start = 1 << 12
	}
	probeWl := perfilter.Workload{N: start, Tw: tw, BitsPerKeyBudget: 16}

	// The modeled crossover: the smallest probed n where static Advise
	// flips to Bloom.
	var modeled uint64
	for n := start; n <= 1<<24; n *= 2 {
		w := probeWl
		w.N = n
		adv, err := perfilter.Advise(w)
		if err != nil {
			return nil, nil, err
		}
		if adv.Config.Kind == perfilter.BlockedBloom {
			modeled = n
			break
		}
	}
	if modeled == 0 {
		return nil, nil, fmt.Errorf("no modeled Bloom/Cuckoo crossover below 2^24 at tw=%g — pick a tw in the crossover regime (e.g. 400..10000)", tw)
	}

	a, advice, err := perfilter.NewAdaptiveAdvised(perfilter.AdaptiveOptions{
		Workload: probeWl, Shards: 1, MaxDecisions: 4096,
	})
	if err != nil {
		return nil, nil, err
	}
	summary := &bench.AdaptiveSummary{
		Tw: tw, StartN: start, StartKind: advice.Config.Kind.String(),
		ModeledCrossover: modeled,
	}
	fmt.Printf("# start: n=%d advised %s (%d bits), modeled crossover at n=%d\n",
		start, advice.Config, advice.MBits, modeled)

	limit := 2 * modeled
	const waves = 32
	waveSize := limit / waves
	cur := bench.Series{Name: "deployed", XLabel: "n", YLabel: "rho_cycles"}
	best := bench.Series{Name: "advised", XLabel: "n", YLabel: "rho_cycles"}
	tput := bench.Series{Name: "probe", XLabel: "n", YLabel: "Mkeys_per_s"}

	r := rng.NewMT19937(4242)
	probe := make([]perfilter.Key, 4096)
	for i := range probe {
		probe[i] = r.Uint32()
	}
	batch := make([]perfilter.Key, waveSize)
	var n uint64
	for n < limit {
		for i := range batch {
			batch[i] = perfilter.Key(n + uint64(i))
		}
		if _, err := a.InsertBatch(batch); err != nil {
			return nil, nil, fmt.Errorf("insert at n=%d: %w", n, err)
		}
		n += uint64(len(batch))
		d, _, err := a.Reoptimize(context.Background(), false, nil)
		if err != nil {
			return nil, nil, fmt.Errorf("reoptimize at n=%d: %w", n, err)
		}
		cur.X = append(cur.X, float64(n))
		cur.Y = append(cur.Y, d.CurrentRho)
		best.X = append(best.X, float64(n))
		best.Y = append(best.Y, d.BestRho)

		reps := 16
		if quick {
			reps = 4
		}
		sel := make([]uint32, 0, len(probe))
		t0 := time.Now()
		for rep := 0; rep < reps; rep++ {
			sel = a.ContainsBatch(probe, sel[:0])
		}
		el := time.Since(t0).Seconds()
		tput.X = append(tput.X, float64(n))
		tput.Y = append(tput.Y, float64(reps*len(probe))/el/1e6)
	}

	trace, _ := a.DecisionTrace()
	for _, d := range trace {
		if !d.Migrated {
			continue
		}
		summary.Migrations++
		summary.Decisions = append(summary.Decisions, d)
		if d.KindChanged && summary.KindFlipN == 0 {
			summary.KindFlipN = d.N
		}
		fmt.Printf("# migrated at n=%d: %s -> %s (%s)\n", d.N, d.Current, d.Best, d.Reason)
	}
	summary.FinalN = n
	summary.FinalKind = a.Config().Kind.String()
	fmt.Printf("# final: n=%d kind=%s (%s), %d migrations, kind flip at n=%d\n",
		n, summary.FinalKind, a.Config(), summary.Migrations, summary.KindFlipN)

	// Losslessness spot check: the first wave's keys must still be there.
	checkN := min(int(waveSize), 1<<16)
	check := make([]perfilter.Key, checkN)
	for i := range check {
		check[i] = perfilter.Key(i)
	}
	if got := len(a.ContainsBatch(check, nil)); got != checkN {
		return nil, nil, fmt.Errorf("lost keys across migrations: %d of %d first-wave keys present", got, checkN)
	}
	return []bench.Series{cur, best, tput}, summary, nil
}
