// Command adaptive demonstrates online re-optimization: the paper's
// advisor answers "which filter?" once, at build time — but its answer
// depends on n, and n moves. An adaptive filter tracks its own workload
// (inserts, probes, observed hit fraction), periodically re-runs the
// advisor against what it *saw*, and migrates itself — size and kind,
// Bloom↔Cuckoo — losslessly when the modeled overhead win clears a
// hysteresis margin.
//
// The demo streams keys into a filter advised for n=4096 at tw=400 (the
// Cuckoo regime) until it holds 16× the modeled Bloom/Cuckoo crossover
// point, printing every decision the control loop takes along the way.
//
// Run with: go run ./examples/adaptive
package main

import (
	"context"
	"fmt"
	"log"

	"perfilter"
)

func main() {
	const tw = 400 // cycles saved per pruned probe: the crossover regime
	start := uint64(4096)

	a, advice, err := perfilter.NewAdaptiveAdvised(perfilter.AdaptiveOptions{
		Workload: perfilter.Workload{N: start, Tw: tw, Sigma: 0.05, BitsPerKeyBudget: 16},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("advised for n=%d at tw=%d: %s (%d bits), modeled overhead %.2f cycles/probe\n",
		start, tw, advice.Config, advice.MBits, advice.Overhead)

	// Find where the static advisor flips to Bloom, so we can grow past it.
	crossover := start
	for {
		adv, err := perfilter.Advise(perfilter.Workload{N: crossover, Tw: tw, BitsPerKeyBudget: 16})
		if err != nil {
			log.Fatal(err)
		}
		if adv.Config.Kind == perfilter.BlockedBloom {
			break
		}
		crossover *= 2
	}
	fmt.Printf("the model says Bloom overtakes Cuckoo at n=%d\n\n", crossover)

	// Stream keys in waves; after each wave, one control-loop pass. In a
	// server you would call Reoptimize from your own ticker (or run
	// filter-server -autotune, whose sweep paces itself).
	var n perfilter.Key
	batch := make([]perfilter.Key, 2048)
	for uint64(n) < 2*crossover {
		for i := range batch {
			batch[i] = n + perfilter.Key(i)
		}
		if _, err := a.InsertBatch(batch); err != nil {
			log.Fatal(err)
		}
		n += perfilter.Key(len(batch))
		if _, _, err := a.Reoptimize(context.Background(), false, nil); err != nil {
			log.Fatal(err)
		}
		// Probes feed the σ estimate (and are what the filter is for).
		a.ContainsBatch(batch[:512], nil)
	}

	fmt.Println("control-loop decisions that migrated the filter:")
	trace, _ := a.DecisionTrace()
	for _, d := range trace {
		if !d.Migrated {
			continue
		}
		fmt.Printf("  n=%-8d %s -> %s  (%s)\n", d.N, d.Current, d.Best, d.Reason)
	}

	// Losslessness: every inserted key is still claimed present.
	all := make([]perfilter.Key, n)
	for i := range all {
		all[i] = perfilter.Key(i)
	}
	sel := a.ContainsBatch(all, nil)
	fmt.Printf("\nfinal: n=%d kind=%s size=%d bits; %d/%d inserted keys present (no false negatives)\n",
		n, a.Config().Kind, a.SizeBits(), len(sel), len(all))

	adv, err := a.Advice()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("advice against the tracked workload (n=%d, sigma=%.3f): %s — %s\n",
		adv.Workload.N, adv.Workload.Sigma, adv.Best.Config, adv.Reason)
}
