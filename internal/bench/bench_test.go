package bench

import (
	"strings"
	"testing"
	"time"

	"perfilter/internal/blocked"
	"perfilter/internal/model"
)

func TestFormatSeries(t *testing.T) {
	s := []Series{
		{Name: "a", XLabel: "x", YLabel: "y", X: []float64{1, 2}, Y: []float64{3, 4}},
		{Name: "b", XLabel: "x", YLabel: "y", X: []float64{1, 2}, Y: []float64{5}},
	}
	out := Format(s)
	if !strings.Contains(out, "a(y)") || !strings.Contains(out, "b(y)") {
		t.Fatalf("header missing: %q", out)
	}
	if !strings.Contains(out, "\t-") {
		t.Fatal("missing-value placeholder absent")
	}
	if Format(nil) != "(no data)\n" {
		t.Fatal("empty format wrong")
	}
}

func TestFig3Shape(t *testing.T) {
	cfg := model.Config{Kind: model.KindBlockedBloom,
		Bloom: blocked.CacheSectorizedParams(64, 512, 2, 8, true)}
	s := Fig3OverheadCurve(cfg, 1<<22, 1024, model.SKX())
	if len(s.X) < 10 {
		t.Fatal("too few points")
	}
	// U-shape: the minimum must be interior, not at either end.
	minIdx := 0
	for i, y := range s.Y {
		if y < s.Y[minIdx] {
			minIdx = i
		}
	}
	if minIdx == 0 || minIdx == len(s.Y)-1 {
		t.Fatalf("overhead curve not U-shaped: min at %d/%d", minIdx, len(s.Y))
	}
}

func TestFig4Ordering(t *testing.T) {
	series := Fig4BlockingImpact()
	if len(series) != 4 {
		t.Fatal("want 4 series")
	}
	// At every bits-per-key: classic ≤ blocked512 ≤ blocked64 ≤ blocked32.
	for i := range series[0].X {
		c, b512, b64, b32 := series[0].Y[i], series[3].Y[i], series[2].Y[i], series[1].Y[i]
		if !(c <= b512*1.000001 && b512 <= b64*1.000001 && b64 <= b32*1.000001) {
			t.Fatalf("ordering broken at %v bpk: %g %g %g %g",
				series[0].X[i], c, b512, b64, b32)
		}
	}
	ks := Fig4OptimalK()
	for _, s := range ks {
		for _, k := range s.Y {
			if k < 1 || k > 16 {
				t.Fatalf("optimal k %v out of range", k)
			}
		}
	}
}

func TestFig7CacheSectorizedBeatsSectorized(t *testing.T) {
	series := Fig7SectorizationFPR()
	var cs4, sect Series
	for _, s := range series {
		switch s.Name {
		case "cache-sectorized-z4":
			cs4 = s
		case "sectorized":
			sect = s
		}
	}
	for i := range cs4.X {
		if cs4.Y[i] > sect.Y[i]*1.000001 {
			t.Fatalf("at %v bpk cache-sectorized (%g) worse than sectorized (%g)",
				cs4.X[i], cs4.Y[i], sect.Y[i])
		}
	}
}

func TestFig8Monotonicity(t *testing.T) {
	series := Fig8CuckooFPR()
	byName := map[string]Series{}
	for _, s := range series {
		byName[s.Name] = s
	}
	for i := range byName["l8-b4"].X {
		if byName["l16-b4"].Y[i] >= byName["l12-b4"].Y[i] ||
			byName["l12-b4"].Y[i] >= byName["l8-b4"].Y[i] {
			t.Fatal("longer signatures must lower FPR")
		}
		if byName["l8-b2"].Y[i] >= byName["l8-b4"].Y[i] ||
			byName["l8-b4"].Y[i] >= byName["l8-b8"].Y[i] {
			t.Fatal("bigger buckets must raise FPR")
		}
	}
}

func TestFig10AllPlatforms(t *testing.T) {
	models := []model.CostModel{model.Xeon(), model.KNL(), model.SKX(), model.Ryzen()}
	out := Fig10Skylines(models, false)
	if strings.Count(out, "skyline") != 4 {
		t.Fatal("expected 4 platform maps")
	}
	if !strings.Contains(out, "B") || !strings.Contains(out, "C") {
		t.Fatal("maps missing regions")
	}
}

func TestFig11Maps(t *testing.T) {
	out := Fig11SpeedupAndFPR(model.SKX(), false)
	if !strings.Contains(out, "Fig. 11a") || !strings.Contains(out, "Fig. 11b") {
		t.Fatal("missing panels")
	}
}

func TestFig12And13Facets(t *testing.T) {
	caches := [3]uint64{32 << 10, 1 << 20, 14 << 20}
	f12 := Fig12BloomFacets(model.SKX(), caches, false)
	for _, want := range []string{"12a", "12b", "12c", "12d", "12e", "12f", "12g"} {
		if !strings.Contains(f12, want) {
			t.Fatalf("Fig12 missing facet %s", want)
		}
	}
	f13 := Fig13CuckooFacets(model.SKX(), caches, false)
	for _, want := range []string{"13a", "13b", "13c", "13d"} {
		if !strings.Contains(f13, want) {
			t.Fatalf("Fig13 missing facet %s", want)
		}
	}
}

func TestFig1IncludesExactRegion(t *testing.T) {
	out := Fig1Summary(model.SKX(), 14<<20, false)
	if !strings.Contains(out, "E") {
		t.Fatal("no exact region in Fig 1 map")
	}
	if !strings.Contains(out, "B") || !strings.Contains(out, "C") {
		t.Fatal("missing filter regions")
	}
}

func TestTable1(t *testing.T) {
	out := Table1Platforms()
	for _, want := range []string{"Xeon", "Knights", "Skylake", "Ryzen", "host"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table 1 missing %s:\n%s", want, out)
		}
	}
}

func TestFig5Measured(t *testing.T) {
	// Moderate single-threaded effort: the multi-threaded quick mode is
	// too noisy for assertions on this class of host.
	eff := Effort{MinTime: 10 * time.Millisecond, Threads: 1}
	series := Fig5Sectorization(16<<10*8, 16, eff)
	if len(series) != 2 || len(series[0].X) != 5 {
		t.Fatal("unexpected shape")
	}
	for _, s := range series {
		for i, y := range s.Y {
			if y <= 0 {
				t.Fatalf("%s[%d]: non-positive throughput", s.Name, i)
			}
		}
	}
	// The paper's ≈2× sectorization advantage at 16 words is a SIMD-gather
	// phenomenon; branch-free scalar kernels run the two layouts at parity
	// (see package simd). The reproducible assertions: both curves
	// decline from one word to a full cache line, and sectorized stays
	// within parity bounds of one-sector blocked at 16 words.
	last := len(series[0].Y) - 1
	for _, s := range series {
		if s.Y[last] >= s.Y[0] {
			t.Fatalf("%s: throughput did not decline with block size (%.1f -> %.1f M/s)",
				s.Name, s.Y[0], s.Y[last])
		}
	}
	ratio := series[1].Y[last] / series[0].Y[last]
	if ratio < 1.0/3 || ratio > 4 {
		t.Fatalf("sectorized/blocked ratio %.2f at 16 words outside parity bounds", ratio)
	}
}

func TestFig9Measured(t *testing.T) {
	series := Fig9MagicModulo(1<<23, QuickEffort())
	if len(series) != 2 {
		t.Fatal("want magic + pow2 series")
	}
	if len(series[0].X) <= len(series[1].X) {
		t.Fatal("magic must cover more sizes than pow2")
	}
}

func TestFig14Measured(t *testing.T) {
	series := Fig14LookupScaling(1<<17, 1<<23, QuickEffort())
	if len(series) != 3 {
		t.Fatal("want 3 filters")
	}
	for _, s := range series {
		if len(s.X) < 2 {
			t.Fatalf("%s: too few sizes", s.Name)
		}
		for _, y := range s.Y {
			if y <= 0 || y > 10000 {
				t.Fatalf("%s: implausible %v cycles", s.Name, y)
			}
		}
	}
}

func TestFig15Measured(t *testing.T) {
	rows := Fig15BatchSpeedup(QuickEffort())
	if len(rows) != 3 {
		t.Fatal("want 3 filters")
	}
	out := FormatFig15(rows)
	if !strings.Contains(out, "cuckoo") || !strings.Contains(out, "register-blocked") {
		t.Fatal("table incomplete")
	}
	for _, r := range rows {
		if r.BatchPow2Cycles <= 0 || r.ScalarPow2Cycles <= 0 {
			t.Fatalf("%s: non-positive measurements", r.Filter)
		}
	}
}

func TestAblationCuckooBucket(t *testing.T) {
	s := AblationCuckooBucket(1<<14, QuickEffort())
	if len(s.X) != 3 {
		t.Fatal("want b ∈ {1,2,4}")
	}
	for _, y := range s.Y {
		if y <= 0 {
			t.Fatal("non-positive overhead")
		}
	}
}
