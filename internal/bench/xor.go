package bench

import (
	"fmt"
	"math"
	"strings"
	"time"

	"perfilter/internal/bloom"
	"perfilter/internal/calibrate"
	"perfilter/internal/core"
	"perfilter/internal/cuckoo"
	"perfilter/internal/model"
	"perfilter/internal/rng"
	"perfilter/internal/xor"
)

// Experiments for the xor/fuse family (beyond the paper, which predates
// it): build and probe throughput across the variants, the measured-vs-
// modeled FPR table all families share, and the read-mostly skyline that
// shows where the family wins.

// xorVariants is the family in enumeration order.
var xorVariants = []xor.Params{
	{FingerprintBits: 8},
	{FingerprintBits: 16},
	{FingerprintBits: 8, Fuse: true},
	{FingerprintBits: 16, Fuse: true},
}

// XorThroughput measures the xor family's two costs on the host: solve
// (build) throughput in Mkeys/s — the price an immutable filter pays per
// rebuild — and batched probe cost in cycles/lookup, per variant across
// problem sizes. The cache-sectorized headline Bloom filter is included
// as the probe baseline.
func XorThroughput(eff Effort) []Series {
	ns := []int{1 << 16, 1 << 20}
	var out []Series
	for _, p := range xorVariants {
		solve := Series{Name: p.String() + "-build", XLabel: "keys", YLabel: "Mkeys/s"}
		lookup := Series{Name: p.String() + "-probe", XLabel: "keys", YLabel: "cycles/lookup"}
		for _, n := range ns {
			keys := randomKeys(n, 0xB111)
			start := time.Now()
			f, err := xor.Build(p, keys)
			if err != nil {
				panic(err)
			}
			elapsed := time.Since(start)
			solve.X = append(solve.X, float64(n))
			solve.Y = append(solve.Y, float64(n)/elapsed.Seconds()/1e6)
			lookup.X = append(lookup.X, float64(n))
			lookup.Y = append(lookup.Y, cycles(f, eff))
		}
		out = append(out, solve, lookup)
	}
	baseline := Series{Name: "bloom-probe-baseline", XLabel: "keys", YLabel: "cycles/lookup"}
	for _, n := range ns {
		baseline.X = append(baseline.X, float64(n))
		baseline.Y = append(baseline.Y, cycles(build(headline, uint64(n)*12), eff))
	}
	return append(out, baseline)
}

// MeasuredFPRRow is one line of the measured-vs-modeled FPR table: a
// family's observed false-positive rate on disjoint probe keys against
// the analytic model's prediction at the same size and load.
type MeasuredFPRRow struct {
	Name       string
	BitsPerKey float64
	Measured   float64
	Model      float64
}

// MeasuredFPRRows builds every filter family at a comparable budget
// (≈16 bits/key for the mutable families, the key-count-determined size
// for xor and exact) through the model's kind table, inserts n keys and
// measures the false-positive rate over disjoint probes. cmd/filter-fpr
// prints the table and its test asserts every row is within 2× of the
// model.
func MeasuredFPRRows(n int) []MeasuredFPRRow {
	keys := randomKeys(n, 0xFA15)
	member := make(map[core.Key]bool, n)
	for _, k := range keys {
		member[k] = true
	}
	const probes = 1 << 18
	measure := func(contains func(core.Key) bool) float64 {
		r := rng.NewMT19937(0xFA16)
		fp, tested := 0, 0
		for i := 0; i < probes; i++ {
			k := r.Uint32()
			if member[k] {
				continue
			}
			tested++
			if contains(k) {
				fp++
			}
		}
		return float64(fp) / float64(tested)
	}
	kp := cuckoo.Params{TagBits: 16, BucketSize: 2, Magic: true}
	type family struct {
		c     model.Config
		mBits uint64
	}
	families := []family{
		{headline, uint64(n) * 16},
		{model.Config{Kind: model.KindClassicBloom, Classic: bloom.Params{K: 7, Magic: true}}, uint64(n) * 16},
		{cuckooConfig(kp), kp.SizeForKeys(uint64(n))},
	}
	for _, xp := range xorVariants {
		families = append(families, family{model.Config{Kind: model.KindXor, Xor: xp}, 0})
	}
	families = append(families, family{model.Config{Kind: model.KindExact}, uint64(n) * 64})

	var rows []MeasuredFPRRow
	for _, fam := range families {
		f, err := fam.c.New(fam.mBits)
		if err == nil {
			err = calibrate.Fill(f, keys)
		}
		if err != nil {
			panic(err)
		}
		rows = append(rows, MeasuredFPRRow{
			Name: fam.c.String(), BitsPerKey: float64(f.SizeBits()) / float64(n),
			Measured: measure(f.Contains), Model: f.FPR(uint64(n)),
		})
	}
	return rows
}

// FormatMeasuredFPR renders the table.
func FormatMeasuredFPR(rows []MeasuredFPRRow) string {
	out := fmt.Sprintf("%-34s %10s %12s %12s %8s\n",
		"filter", "bits/key", "measured-f", "model-f", "ratio")
	for _, r := range rows {
		ratio := "-"
		if r.Model > 0 {
			ratio = fmt.Sprintf("%.2f", r.Measured/r.Model)
		}
		out += fmt.Sprintf("%-34s %10.2f %12.6f %12.6f %8s\n",
			r.Name, r.BitsPerKey, r.Measured, r.Model, ratio)
	}
	return out
}

// XorSkyline renders the read-mostly skyline: the Figure 10-style type
// map with the immutable xor/fuse family enabled (an 'X' region appears
// at high tw, where 2^-w precision at ~10-20 bits/key beats both mutable
// families once the rebuild surcharge amortizes), followed by the
// mutable families' crossover boundary for reference.
func XorSkyline(models []model.CostModel, full bool) string {
	grid := model.DefaultGrid(full)
	kinds := model.EnumerableKinds(model.EnumHints{FullSpace: full, ReadMostly: true})
	configs := model.ConfigsFor(kinds, full)
	opts := model.DefaultSweepOpts()
	var b strings.Builder
	for _, cm := range models {
		sky := model.ComputeSkyline(grid, configs, cm, opts)
		b.WriteString("read-mostly type map (B=blocked bloom, C=cuckoo, X=xor/fuse")
		if full {
			b.WriteString(", S=classic")
		}
		b.WriteString("):\n")
		b.WriteString(sky.RenderTypeMapKinds(kinds...))
		b.WriteString("bloom-to-cuckoo crossover tw per n (mutable families only):\n")
		for ni, tw := range sky.CrossoverTw() {
			if math.IsInf(tw, 1) {
				fmt.Fprintf(&b, "n=%-12d crossover=none (bloom wins the whole row)\n", sky.Grid.Ns[ni])
			} else {
				fmt.Fprintf(&b, "n=%-12d crossover_tw=2^%.0f\n", sky.Grid.Ns[ni], math.Log2(tw))
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
