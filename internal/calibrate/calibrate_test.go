package calibrate

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"perfilter/internal/blocked"
	"perfilter/internal/core"
	"perfilter/internal/cuckoo"
	"perfilter/internal/model"
)

func quickOpts() Opts {
	o := DefaultOpts()
	o.MinTime = 200 * time.Microsecond
	return o
}

func testConfigs() []model.Config {
	// Note the cuckoo config uses magic modulo: at 16-bit signatures and
	// b=2 the feasible load window (α ≤ 0.84) demands ≥19.05 bits per key,
	// and power-of-two sizing cannot land inside a [19.05, 20] bits/key
	// budget at all — the situation §5.2 introduces magic modulo for.
	return []model.Config{
		{Kind: model.KindBlockedBloom, Bloom: blocked.RegisterBlockedParams(64, 4, false)},
		{Kind: model.KindCuckoo, Cuckoo: cuckoo.Params{TagBits: 16, BucketSize: 2, Magic: true}},
	}
}

func TestRunProducesPoints(t *testing.T) {
	sizes := []uint64{1 << 15, 1 << 18}
	res, err := Run(testConfigs(), sizes, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 4 {
		t.Fatalf("%d points, want 4", len(res.Points))
	}
	for _, p := range res.Points {
		if p.NsPerLookup <= 0 || p.NsPerLookup > 10000 {
			t.Fatalf("%s @ %d: implausible %v ns/lookup", p.Config, p.MBits, p.NsPerLookup)
		}
		if p.CyclesPerLookup <= 0 {
			t.Fatalf("non-positive cycles")
		}
	}
	if res.CyclesPerNs <= 0 || res.Platform == "" {
		t.Fatal("platform metadata missing")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	res := &Result{
		Platform:    "test",
		CyclesPerNs: 3,
		Batch:       1024,
		Points: []Point{
			{Config: "a", MBits: 100, NsPerLookup: 1.5, CyclesPerLookup: 4.5},
		},
	}
	data, err := res.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Platform != "test" || len(back.Points) != 1 || back.Points[0].MBits != 100 {
		t.Fatalf("round trip lost data: %+v", back)
	}
	if _, err := Unmarshal([]byte("{bad")); err == nil {
		t.Fatal("accepted invalid JSON")
	}
}

func TestMeasuredModelInterpolation(t *testing.T) {
	cfg := testConfigs()[0]
	res := &Result{
		Platform: "synthetic", CyclesPerNs: 1, Batch: 1024,
		Points: []Point{
			{Config: cfg.String(), MBits: 1 << 10, CyclesPerLookup: 2},
			{Config: cfg.String(), MBits: 1 << 20, CyclesPerLookup: 10},
		},
	}
	m := NewMeasuredModel(res)
	if got := m.LookupCycles(cfg, 1<<10); got != 2 {
		t.Fatalf("at lower bound: %v", got)
	}
	if got := m.LookupCycles(cfg, 1<<20); got != 10 {
		t.Fatalf("at upper bound: %v", got)
	}
	// Log-midpoint (2^15) interpolates halfway.
	if got := m.LookupCycles(cfg, 1<<15); math.Abs(got-6) > 1e-9 {
		t.Fatalf("midpoint: %v, want 6", got)
	}
	// Clamping outside the range.
	if got := m.LookupCycles(cfg, 1); got != 2 {
		t.Fatalf("below range: %v", got)
	}
	if got := m.LookupCycles(cfg, 1<<30); got != 10 {
		t.Fatalf("above range: %v", got)
	}
	// Uncalibrated config → +Inf (skylines skip it).
	other := testConfigs()[1]
	if got := m.LookupCycles(other, 1<<15); !math.IsInf(got, 1) {
		t.Fatalf("uncalibrated config: %v, want +Inf", got)
	}
	if m.Name() != "measured(synthetic)" {
		t.Fatalf("Name() = %q", m.Name())
	}
	if len(m.Configs()) != 1 {
		t.Fatal("Configs() wrong")
	}
}

func TestMeasuredModelInSkyline(t *testing.T) {
	// End-to-end: calibrate two configs on the host and run a tiny skyline
	// from the measurements.
	sizes := []uint64{1 << 14, 1 << 17, 1 << 20}
	configs := testConfigs()
	res, err := Run(configs, sizes, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	mm := NewMeasuredModel(res)
	grid := model.Grid{Ns: []uint64{4096}, Tws: []float64{16, 1 << 20}}
	sky := model.ComputeSkyline(grid, configs, mm, model.DefaultSweepOpts())
	// At tw=2^20 the measured cuckoo must win on precision.
	kind, best := sky.Cells[0][1].Winner(model.KindBlockedBloom, model.KindCuckoo)
	if math.IsInf(best.Rho, 1) {
		t.Fatal("no feasible measured config")
	}
	if kind != model.KindCuckoo {
		t.Fatalf("winner at tw=2^20 is %v; expected cuckoo on precision", kind)
	}
}

// TestMeasurePointAllKinds calibrates the first enumerated configuration
// of every model kind, so a kind the model cannot build fails here.
func TestMeasurePointAllKinds(t *testing.T) {
	opts := quickOpts()
	for k := range model.Kind(model.NumKinds()) {
		cfgs := model.ConfigsFor([]model.Kind{k}, false)
		if len(cfgs) == 0 {
			t.Fatalf("%s: no enumerated configuration", k)
		}
		p, err := MeasurePoint(cfgs[0], 1<<16, opts)
		if err != nil {
			t.Fatalf("%s: %v", cfgs[0], err)
		}
		if p.NsPerLookup <= 0 || p.MBits == 0 || p.Config != cfgs[0].String() {
			t.Fatalf("%s: implausible point %+v", cfgs[0], p)
		}
	}
}

// recorder is a core.BatchProber that keeps the first keys it is asked
// about.
type recorder struct{ keys []core.Key }

func (r *recorder) ContainsBatch(keys []core.Key, sel core.SelVec) core.SelVec {
	if room := 1<<20 - len(r.keys); room > 0 {
		r.keys = append(r.keys, keys[:min(room, len(keys))]...)
	}
	return sel
}

// TestProbeStreamDistinct pins the probe stream: the timing loop must
// hand a prober at least 2^20 distinct keys before any key repeats. A loop
// that re-probes one batch keeps its filter lines cache-resident at every
// size and fails here.
func TestProbeStreamDistinct(t *testing.T) {
	// A slow host (or -race) may need longer runs to reach 2^20 keys.
	var r recorder
	for d := 10 * time.Millisecond; len(r.keys) < 1<<20; d *= 2 {
		if d > 10*time.Second {
			t.Fatalf("prober saw %d keys, want at least 2^20", len(r.keys))
		}
		r = recorder{}
		NsPerLookup(&r, d)
	}
	seen := slices.Clone(r.keys)
	slices.Sort(seen)
	if len(slices.Compact(seen)) != len(r.keys) {
		t.Fatal("a probe key repeats within the first 2^20")
	}
}

// TestFillRule checks the fill rule's caps: mBits/12 keys, at most
// maxFill, and at most 80% of the slots of cuckoo and exact tables.
func TestFillRule(t *testing.T) {
	bloomCfg := testConfigs()[0]
	cuckooCfg := model.Config{Kind: model.KindCuckoo, Cuckoo: cuckoo.Params{TagBits: 16, BucketSize: 2}}
	for _, tc := range []struct {
		c     model.Config
		mBits uint64
		want  int
	}{
		{bloomCfg, 12 << 10, 1 << 10},
		{bloomCfg, 1 << 32, maxFill},
		{cuckooCfg, 1 << 20, 1 << 16 * 4 / 5},
		{model.Config{Kind: model.KindExact}, 1 << 20, 1 << 14 * 4 / 5},
	} {
		if got := len(FillKeys(tc.c, tc.mBits)); got != tc.want {
			t.Errorf("%s @ %d bits: %d fill keys, want %d", tc.c, tc.mBits, got, tc.want)
		}
	}
}

// TestDecodeParentFormat decodes a calibration file written before the
// batch size became a constant: its batch field still round-trips.
func TestDecodeParentFormat(t *testing.T) {
	const file = `{
  "platform": "Intel(R) Xeon(R) Processor",
  "cycles_per_ns": 2.1,
  "batch": 1024,
  "points": [
    {"config": "cuckoo[l=16,b=2,magic]", "m_bits": 16384, "ns_per_lookup": 9.5, "cycles_per_lookup": 19.95}
  ]
}`
	res, err := Unmarshal([]byte(file))
	if err != nil {
		t.Fatal(err)
	}
	if res.Batch != 1024 || len(res.Points) != 1 || res.Points[0].CyclesPerLookup != 19.95 {
		t.Fatalf("decoded %+v", res)
	}
	data, err := res.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(data)
	if err != nil || !reflect.DeepEqual(back, res) {
		t.Fatalf("round trip: %+v, %v", back, err)
	}
}

// BenchmarkMeasurePoint times one calibration point of the blocked default
// and of the (l=16, b=2) cuckoo filter at 16 and 512 MiB: build, fill and
// the timed runs.
func BenchmarkMeasurePoint(b *testing.B) {
	for _, c := range []model.Config{
		{Kind: model.KindBlockedBloom, Bloom: blocked.DefaultParams()},
		{Kind: model.KindCuckoo, Cuckoo: cuckoo.Params{TagBits: 16, BucketSize: 2, Magic: true}},
	} {
		for _, mib := range []uint64{16, 512} {
			b.Run(fmt.Sprintf("%s/%dMiB", c.Kind, mib), func(b *testing.B) {
				for range b.N {
					if _, err := MeasurePoint(c, mib<<23, DefaultOpts()); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
