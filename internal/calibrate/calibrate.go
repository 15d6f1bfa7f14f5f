// Package calibrate implements the paper's one-time calibration phase (§2,
// §5.1): microbenchmark the actual lookup cost tl of filter configurations
// on the target platform, producing data a MeasuredModel can feed into the
// performance-optimal filtering model in place of the analytic presets.
//
// It also owns the one measurement primitive the measured figures of
// package bench share: Build constructs a configuration through the
// model's kind table and fills it by one fill rule, Stream is the probe
// stream, and Time is the timing loop. Lookups stream through 2^22
// distinct, almost all negative keys (the high-throughput scenario the
// paper targets), so a filter larger than the caches pays its misses
// instead of re-probing lines one batch left in L2. Run converts wall time
// to CPU cycles with the platform's estimated cycle rate and records one
// point per (configuration, filter size). Results serialize to JSON so the
// calibration can be performed once per machine (cmd/filter-calibrate)
// and reused.
package calibrate

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"perfilter/internal/core"
	"perfilter/internal/cuckoo"
	"perfilter/internal/model"
	"perfilter/internal/platform"
	"perfilter/internal/rng"
)

// Point is one measured (configuration, size) sample.
type Point struct {
	Config          string  `json:"config"` // canonical Config.String()
	MBits           uint64  `json:"m_bits"`
	NsPerLookup     float64 `json:"ns_per_lookup"`
	CyclesPerLookup float64 `json:"cycles_per_lookup"`
}

// Result is a complete calibration run. Batch records the lookup batch
// size, always core.DefaultBatch.
type Result struct {
	Platform    string  `json:"platform"`
	CyclesPerNs float64 `json:"cycles_per_ns"`
	Batch       int     `json:"batch"`
	Points      []Point `json:"points"`
}

// Opts controls measurement effort.
type Opts struct {
	// MinTime is the duration of each of the runs whose median a point
	// reports; longer gives steadier numbers.
	MinTime time.Duration
}

// DefaultOpts returns measurement settings good enough for model use.
func DefaultOpts() Opts {
	return Opts{MinTime: 2 * time.Millisecond}
}

const (
	// maxFill caps the keys a measurement filter is filled with. Lookup
	// cost does not depend on the load (every probe reads the same words
	// whatever they hold), so the cap keeps a 512 MiB point to a second
	// without changing what is measured.
	maxFill = 2 << 20
	// streamLen is the probe stream's length: 16 MiB of distinct keys.
	streamLen = 1 << 22
	// runs is how many MinTime runs Time takes the median of.
	runs = 5
)

// FillKeys returns the keys the fill rule puts in a filter of c at mBits:
// mBits/12 of them, at most maxFill, and at most 80% of the slots of a
// cuckoo table or an exact set. The keys are the same on every call.
func FillKeys(c model.Config, mBits uint64) []core.Key {
	n := min(mBits/12, maxFill)
	switch c.Kind {
	case model.KindCuckoo:
		n = min(n, c.ActualBits(mBits)/uint64(c.Cuckoo.TagBits)*4/5)
	case model.KindExact:
		n = min(n, mBits/64*4/5)
	}
	r := rng.NewMT19937(0xF11)
	keys := make([]core.Key, n)
	for i := range keys {
		keys[i] = r.Uint32()
	}
	return keys
}

// Build constructs c at mBits through the model's kind table and fills it
// with FillKeys. A cuckoo table that saturates below the fill rule is
// measured as it stands.
func Build(c model.Config, mBits uint64) (core.Filter, error) {
	f, err := c.New(mBits)
	if err == nil {
		err = Fill(f, FillKeys(c, mBits))
	}
	if err != nil && !errors.Is(err, cuckoo.ErrFull) {
		return nil, err
	}
	return f, nil
}

// Fill inserts keys with InsertBatch and seals a build-once filter.
func Fill(f core.Filter, keys []core.Key) error {
	if _, err := f.InsertBatch(keys); err != nil {
		return err
	}
	if s, ok := f.(interface{ Seal() error }); ok {
		return s.Seal()
	}
	return nil
}

// Stream returns the probe stream: 2^22 distinct keys, generated once.
// Callers must not modify it.
func Stream() []core.Key { return stream() }

// stream makes key i a bijective 32-bit mix of i, so the keys are
// distinct and spread over the whole key space.
var stream = sync.OnceValue(func() []core.Key {
	keys := make([]core.Key, streamLen)
	for i := range keys {
		x := uint32(i)
		x ^= x >> 16
		x *= 0x85ebca6b
		x ^= x >> 13
		x *= 0xc2b2ae35
		x ^= x >> 16
		keys[i] = x
	}
	return keys
})

// Time is the timing loop: it calls probe on consecutive batch-key slices
// of keys, wrapping to the start at the end, and returns the median ns per
// key over runs runs of at least minTime and four batches each, after one
// warm-up batch. len(keys) must be at least batch.
func Time(probe func([]core.Key, core.SelVec) core.SelVec, keys []core.Key, batch int, minTime time.Duration) float64 {
	sel := make(core.SelVec, 0, batch)
	next := 0
	step := func() {
		if next+batch > len(keys) {
			next = 0
		}
		sel = probe(keys[next:next+batch], sel[:0])
		next += batch
	}
	step()
	var ns [runs]float64
	for r := range ns {
		n := 0
		start := time.Now()
		for n == 0 || time.Since(start) < minTime {
			for range 4 {
				step()
			}
			n += 4 * batch
		}
		ns[r] = float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	slices.Sort(ns[:])
	return ns[runs/2]
}

// NsPerLookup times p's ContainsBatch over the probe stream in
// core.DefaultBatch slices: the cost calibration records and the measured
// figures plot.
func NsPerLookup(p core.BatchProber, minTime time.Duration) float64 {
	return Time(p.ContainsBatch, Stream(), core.DefaultBatch, minTime)
}

// MeasurePoint builds c at mBits and times its batched lookups. The point
// carries the built filter's size, which for xor depends on the keys it
// was sealed with, and leaves CyclesPerLookup for Run to fill in.
func MeasurePoint(c model.Config, mBits uint64, opts Opts) (Point, error) {
	f, err := Build(c, mBits)
	if err != nil {
		return Point{}, err
	}
	return Point{Config: c.String(), MBits: f.SizeBits(), NsPerLookup: NsPerLookup(f, opts.MinTime)}, nil
}

// Run measures every (config, size) combination and assembles a Result.
func Run(configs []model.Config, sizesBits []uint64, opts Opts) (*Result, error) {
	info := platform.Detect()
	res := &Result{
		Platform:    info.Name,
		CyclesPerNs: info.CyclesPerNs,
		Batch:       core.DefaultBatch,
	}
	for _, c := range configs {
		for _, mBits := range sizesBits {
			p, err := MeasurePoint(c, c.ActualBits(mBits), opts)
			if err != nil {
				return nil, fmt.Errorf("calibrate %s @ %d bits: %w", c, mBits, err)
			}
			p.CyclesPerLookup = p.NsPerLookup * info.CyclesPerNs
			res.Points = append(res.Points, p)
		}
	}
	return res, nil
}

// Marshal serializes a Result to JSON.
func (r *Result) Marshal() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Unmarshal parses a Result from JSON.
func Unmarshal(data []byte) (*Result, error) {
	var r Result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// MeasuredModel is a model.CostModel backed by calibration data. Lookup
// costs between measured sizes are interpolated linearly in log(size);
// outside the measured range the nearest point is used. Configurations that
// were not calibrated report +Inf, which makes skyline sweeps skip them —
// calibrate the configurations you intend to sweep.
type MeasuredModel struct {
	name   string
	points map[string][]Point // by config string, sorted by MBits
}

// NewMeasuredModel indexes a calibration result.
func NewMeasuredModel(res *Result) *MeasuredModel {
	m := &MeasuredModel{
		name:   "measured(" + res.Platform + ")",
		points: make(map[string][]Point),
	}
	for _, p := range res.Points {
		m.points[p.Config] = append(m.points[p.Config], p)
	}
	for k := range m.points {
		ps := m.points[k]
		sort.Slice(ps, func(i, j int) bool { return ps[i].MBits < ps[j].MBits })
	}
	return m
}

// Name implements model.CostModel.
func (m *MeasuredModel) Name() string { return m.name }

// Configs returns the calibrated configuration names.
func (m *MeasuredModel) Configs() []string {
	out := make([]string, 0, len(m.points))
	for k := range m.points {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// LookupCycles implements model.CostModel.
func (m *MeasuredModel) LookupCycles(c model.Config, mBits uint64) float64 {
	ps, ok := m.points[c.String()]
	if !ok || len(ps) == 0 {
		return math.Inf(1)
	}
	if mBits <= ps[0].MBits {
		return ps[0].CyclesPerLookup
	}
	if mBits >= ps[len(ps)-1].MBits {
		return ps[len(ps)-1].CyclesPerLookup
	}
	i := sort.Search(len(ps), func(i int) bool { return ps[i].MBits >= mBits })
	lo, hi := ps[i-1], ps[i]
	t := (math.Log(float64(mBits)) - math.Log(float64(lo.MBits))) /
		(math.Log(float64(hi.MBits)) - math.Log(float64(lo.MBits)))
	return lo.CyclesPerLookup + t*(hi.CyclesPerLookup-lo.CyclesPerLookup)
}
