// filter-bench runs the measured experiments on the host: Figure 5
// (sectorization throughput), Figure 9 (magic vs power-of-two sizing),
// Figure 14 (lookup scaling across filter sizes), Figure 15 (batch-kernel
// speedups), Figure 3 (the overhead curve) and the bucket-size ablation,
// plus -fig xor (xor/fuse build and probe cost against the Bloom baseline)
// and -fig kernels (the sharded probe with its worker pool on and off,
// and the cache-sectorized probe kernel alone).
//
// -parallel N switches to the concurrency experiment beyond the paper:
// aggregate insert and batched-probe throughput (keys/s) across 1..N
// goroutines, sharded filter vs the single-mutex baseline.
//
// -adaptive runs the live-crossover scenario: an adaptive filter advised
// for a small n at -tw starts as Cuckoo and, as inserted keys grow past
// the modeled Bloom/Cuckoo boundary, the control loop migrates it to
// Bloom losslessly — the paper's headline result as a runtime event. The
// JSON summary records the decision trace and the flip point.
//
// -json FILE additionally writes the run as a machine-readable
// BENCH_*.json summary (series + headline-config FPR), which CI archives
// as an artifact so throughput trajectories survive across commits.
// -baseline FILE compares the run's series against a prior BENCH_*.json
// and exits non-zero on a large throughput regression.
//
// Usage:
//
//	filter-bench [-fig 3|5|9|14|15|kernels|xor|ablation] [-quick] [-size MiB] [-json BENCH_fig14.json] [-baseline BENCH_kernels.json]
//
//	filter-bench -parallel N [-shards P] [-quick] [-size MiB] [-json BENCH_parallel.json]
//	filter-bench -adaptive [-tw cycles] [-quick] [-json BENCH_adaptive.json]
package main

import (
	"flag"
	"fmt"
	"os"

	"perfilter/internal/bench"
	"perfilter/internal/blocked"
	"perfilter/internal/core"
	"perfilter/internal/model"
)

// figTokens lists the accepted -fig values for the usage and error text.
const figTokens = "3, 5, 9, 14, 15, kernels, xor, ablation"

func main() {
	fig := flag.String("fig", "14", "experiment: "+figTokens)
	quick := flag.Bool("quick", false, "short measurements (noisier)")
	sizeMiB := flag.Uint64("size", 256, "large-filter size in MiB (figures 5, 9 and -parallel)")
	parallel := flag.Int("parallel", 0, "run the parallel-throughput experiment across 1..N goroutines")
	shards := flag.Int("shards", 0, "shard count for -parallel (0 = 4 lock stripes per goroutine)")
	adaptiveRun := flag.Bool("adaptive", false, "run the live Bloom↔Cuckoo crossover scenario (adaptive re-optimization)")
	tw := flag.Float64("tw", 0, "work saved per pruned probe for -adaptive, in cycles (0 = 10000, or 400 with -quick)")
	jsonPath := flag.String("json", "", "also write a BENCH_*.json throughput/FPR summary to this path")
	baseline := flag.String("baseline", "", "compare this run's series against a prior BENCH_*.json; exit non-zero on a large throughput regression")
	flag.Parse()

	eff := bench.FullEffort()
	if *quick {
		eff = bench.QuickEffort()
	}
	bigBits := *sizeMiB << 23 // MiB → bits

	var series []bench.Series
	var fig15 []bench.Fig15Row
	var adaptiveSummary *bench.AdaptiveSummary
	experiment := "fig" + *fig

	if *adaptiveRun {
		experiment = "adaptive"
		twVal := *tw
		if twVal == 0 {
			twVal = 10_000
			if *quick {
				twVal = 400
			}
		}
		fmt.Printf("# Adaptive re-optimization: live Bloom↔Cuckoo crossover at tw=%g\n", twVal)
		var err error
		series, adaptiveSummary, err = runAdaptive(twVal, *quick)
		if err != nil {
			fmt.Fprintln(os.Stderr, "filter-bench:", err)
			os.Exit(1)
		}
		fmt.Print(bench.Format(series))
	} else if *parallel > 0 {
		experiment = "parallel"
		counts := bench.GoroutineCounts(*parallel)
		fmt.Printf("# Parallel insert throughput, %d MiB filter, sharded vs single mutex\n", *sizeMiB)
		ins := bench.ParallelInsert(counts, *shards, bigBits, eff)
		fmt.Print(bench.Format(ins))
		fmt.Printf("# Parallel batched-probe throughput (batch %d)\n", core.DefaultBatch)
		prb := bench.ParallelProbe(counts, *shards, bigBits, eff)
		fmt.Print(bench.Format(prb))
		series = append(append(series, ins...), prb...)
	} else {
		switch *fig {
		case "3":
			cfg := model.Config{Kind: model.KindBlockedBloom,
				Bloom: blocked.CacheSectorizedParams(64, 512, 2, 8, true)}
			fmt.Println("# Figure 3: overhead vs filter size (analytic, SKX model)")
			series = []bench.Series{
				bench.Fig3OverheadCurve(cfg, 1<<22, 1024, model.SKX()),
			}
			fmt.Print(bench.Format(series))
		case "5":
			fmt.Println("# Figure 5a: 16 KiB (cache-resident) filter, k=16")
			a := bench.Fig5Sectorization(16<<10*8, 16, eff)
			fmt.Print(bench.Format(a))
			fmt.Printf("# Figure 5b: %d MiB (DRAM-resident) filter, k=16\n", *sizeMiB)
			b := bench.Fig5Sectorization(bigBits, 16, eff)
			fmt.Print(bench.Format(b))
			series = append(append(series, a...), b...)
		case "9":
			fmt.Println("# Figure 9: magic vs pow2 lookup cost across sizes (cache-sectorized k=8 B=512 z=2)")
			series = bench.Fig9MagicModulo(bigBits, eff)
			fmt.Print(bench.Format(series))
		case "14":
			fmt.Println("# Figure 14: cycles per lookup vs filter size")
			series = bench.Fig14LookupScaling(1<<16, bigBits, eff)
			fmt.Print(bench.Format(series))
		case "15":
			fmt.Println("# Figure 15: batch-kernel speedups (host; package simd explains the SIMD gap)")
			fig15 = bench.Fig15BatchSpeedup(eff)
			fmt.Print(bench.FormatFig15(fig15))
		case "kernels":
			fmt.Println("# Hot-path kernels: sharded batched probe, persistent worker pool on vs off")
			pool := bench.KernelsPool(*shards, bigBits, eff)
			fmt.Print(bench.Format(pool))
			fmt.Println("# Cache-sectorized probe kernel (x = log2 filter bits)")
			probe := bench.KernelsProbe(eff)
			fmt.Print(bench.Format(probe))
			series = append(append(series, pool...), probe...)
		case "ablation":
			fmt.Println("# Ablation: cuckoo bucket size at tw=2^14 (the b=2 finding, §6)")
			series = []bench.Series{bench.AblationCuckooBucket(1<<14, eff)}
			fmt.Print(bench.Format(series))
		case "xor":
			fmt.Println("# Xor/fuse family: build (solve) throughput and probe cost vs the Bloom baseline")
			series = bench.XorThroughput(eff)
			fmt.Print(bench.Format(series))
		default:
			fmt.Fprintf(os.Stderr, "filter-bench: unknown experiment %q (accepted: %s)\n", *fig, figTokens)
			os.Exit(1)
		}
	}

	if *jsonPath != "" {
		summary := bench.NewSummary(experiment, *quick, *sizeMiB, series)
		summary.Fig15 = fig15
		summary.Adaptive = adaptiveSummary
		if err := summary.WriteJSON(*jsonPath); err != nil {
			fmt.Fprintln(os.Stderr, "filter-bench:", err)
			os.Exit(1)
		}
		fmt.Printf("# summary written to %s\n", *jsonPath)
	}

	if *baseline != "" {
		report, err := bench.CompareBaseline(*baseline, series, bench.RegressionTolerance)
		if err != nil {
			fmt.Fprintln(os.Stderr, "filter-bench:", err)
			os.Exit(1)
		}
		fmt.Print(report.Format())
		if report.Regressed() {
			fmt.Fprintln(os.Stderr, "filter-bench: throughput regression against", *baseline)
			os.Exit(1)
		}
	}
}
