// filter-fpr prints the false-positive-rate experiments: Figure 4 (impact
// of blocking and the optimal k), Figure 7 (sectorized vs
// cache-sectorized) and Figure 8 (cuckoo signature/bucket trade-offs) as
// analytic tables ready for plotting, plus -fig xor: the measured-vs-
// modeled FPR table across every family (blocked, classic, cuckoo,
// xor8/xor16/fuse8/fuse16, exact) on real filters and random probes.
//
// Usage:
//
//	filter-fpr [-fig 4|4k|7|8|xor]
package main

import (
	"flag"
	"fmt"
	"os"

	"perfilter/internal/bench"
)

// figTokens lists the accepted -fig values for the usage and error text.
const figTokens = "4, 4k, 7, 8, xor"

func main() {
	fig := flag.String("fig", "4", "table to print: "+figTokens)
	flag.Parse()

	switch *fig {
	case "4":
		fmt.Println("# Figure 4a: false-positive rate vs bits-per-key (optimal k per point)")
		fmt.Print(bench.Format(bench.Fig4BlockingImpact()))
	case "4k":
		fmt.Println("# Figure 4b: optimal k vs bits-per-key")
		fmt.Print(bench.Format(bench.Fig4OptimalK()))
	case "7":
		fmt.Println("# Figure 7: sectorization vs cache-sectorization FPR (k=8)")
		fmt.Print(bench.Format(bench.Fig7SectorizationFPR()))
	case "8":
		fmt.Println("# Figure 8: cuckoo filter FPR by signature length and bucket size")
		fmt.Print(bench.Format(bench.Fig8CuckooFPR()))
	case "xor":
		fmt.Println("# Measured vs modeled FPR, all families (100k keys, disjoint probes)")
		fmt.Print(bench.FormatMeasuredFPR(bench.MeasuredFPRRows(100_000)))
	default:
		fmt.Fprintf(os.Stderr, "filter-fpr: unknown figure %q (accepted: %s)\n", *fig, figTokens)
		os.Exit(1)
	}
}
