package main

// Workloads and the closed-loop load generator that drives them against a
// filter-server child.

import (
	"fmt"
	"math"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

const (
	filterName = "bench"
	sweepBatch = 1 << 16 // keys per request in the post-run passes
	tagBits    = 16      // cuckoo signature bits (the server default)
)

// workload is one traffic mix. Sizes were chosen from runs of the
// unmodified code on a 2-CPU host; see why.
type workload struct {
	name, why string
	kind      string // the server's create kind
	// mbits sizes the filter for a measured phase of the given length.
	mbits func(phase time.Duration) uint64
	// preload is the number of keys loaded during set-up into a filter of
	// the created size.
	preload    func(sizeBits uint64) uint64
	loadBatch  int // keys per set-up insert request
	probeBatch int // keys per probe request
	// fillTo, when non-zero, makes the workload mixed: one connection
	// inserts fresh keys in probeBatch-key requests until the cuckoo load
	// factor reaches fillTo while the other probes.
	fillTo float64
	// setups is the number of sessions per untraced run. Each is set up,
	// serves 1/setups of the measured phase and is checked on its own, so
	// the figures are medians over several server processes; setup_s is
	// the median of their set-up times.
	setups int
	// fprProbes is the number of absent keys in the post-run FPR pass.
	fprProbes int
	// replayProbeKeys is the number of keys each layer probes in the
	// traced run's in-process replay.
	replayProbeKeys int
}

// mixedInsertKeysPerS is the insert rate the mixed workload's filter is
// sized by, so its fixed insert budget takes about one phase length on a
// 2-CPU host.
const mixedInsertKeysPerS = 2_100_000

var workloads = []*workload{
	{
		name: "probe-large",
		why: "a 512 MiB cache-sectorized Bloom filter, above the LLC, probed in 16384-key batches: " +
			"the kernel and the sharded worker pool (16384 >= its 4096-key fan-out threshold) do most of the work",
		kind:            "bloom",
		mbits:           func(time.Duration) uint64 { return 1 << 32 },
		preload:         func(uint64) uint64 { return 1 << 24 },
		loadBatch:       1 << 16,
		probeBatch:      1 << 14,
		setups:          5,
		fprProbes:       1 << 22,
		replayProbeKeys: 1 << 23,
	},
	{
		name: "probe-small",
		why: "a 1 MiB cuckoo filter at load 0.5, inside L2, probed in 64-key batches: " +
			"the per-request HTTP and server cost dominates and the worker pool never engages",
		kind:            "cuckoo",
		mbits:           func(time.Duration) uint64 { return 1 << 23 },
		preload:         func(size uint64) uint64 { return size / tagBits / 2 },
		loadBatch:       64,
		probeBatch:      64,
		setups:          9,
		fprProbes:       1 << 25,
		replayProbeKeys: 1 << 21,
	},
	{
		name: "mixed",
		why: "cuckoo inserts beside probes in 1024-key batches, from load 0.25 to 0.7: the only workload " +
			"exercising the adaptive key-log append, sharded insert locking and cuckoo kicks under contention",
		kind: "cuckoo",
		mbits: func(phase time.Duration) uint64 {
			// The insert phase fills 0.45 of the slots.
			return uint64(phase.Seconds() * mixedInsertKeysPerS / 0.45 * tagBits)
		},
		preload:    func(size uint64) uint64 { return size / tagBits / 4 },
		loadBatch:  1 << 16,
		probeBatch: 1024,
		fillTo:     0.7,
		setups:     5,
		fprProbes:  1 << 25,
	},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// phaseLen is the length of one session's share of the measured phase.
func (r *run) phaseLen() time.Duration {
	return time.Duration(r.seconds) * time.Second / time.Duration(r.w.setups)
}

// mbits is the size every filter of the run is created with.
func (r *run) mbits() uint64 { return r.w.mbits(r.phaseLen()) }

// run is one benchmark invocation.
type run struct {
	w       *workload
	seed    uint64
	seconds int
	perm    perm
	conns   int
	bin     string // filter-server binary
	log     *os.File

	v                 violations
	attempted, failed atomic.Int64
	spans             *spanLog // client request spans; nil when untraced
	netLayer          string   // the layer name client request spans get
}

// sample is one timed request: when it completed (since its phase
// started), how long it took, and how many keys it carried.
type sample struct {
	at, lat time.Duration
	keys    int
}

// timings collects one kind of request's samples in one phase.
type timings struct {
	t0      time.Time // phase start
	samples []sample
	keys    uint64
	wall    time.Duration
}

func (t *timings) record(start time.Time, d time.Duration, keys int) {
	t.samples = append(t.samples, sample{at: start.Add(d).Sub(t.t0), lat: d, keys: keys})
	t.keys += uint64(keys)
}

// recordFailed counts a failed request as missing every latency limit.
func (t *timings) recordFailed() {
	t.samples = append(t.samples, sample{at: time.Since(t.t0), lat: math.MaxInt64})
}

func (t *timings) merge(o *timings) {
	t.samples = append(t.samples, o.samples...)
	t.keys += o.keys
}

// session is one server child with one created, preloaded filter.
type session struct {
	r     *run
	srv   *serverProc
	c     *client
	start filterInfo
	acked atomic.Uint64 // indices [0, acked) are acknowledged keys
	setup time.Duration
	load  timings // set-up inserts

	// Client-side tallies for the server-counter cross-check.
	probeKeys, positives, insertKeys atomic.Uint64
}

// worker is one connection and its reusable buffers.
type worker struct {
	conn     *batchConn
	keys     []uint32
	present  []bool
	body     []byte
	resp     []byte
	pos      []uint32
	t        timings
	falsePos int
}

func (s *session) newWorker(batch int, t0 time.Time) *worker {
	return &worker{
		conn: &batchConn{addr: s.srv.addr},
		keys: make([]uint32, batch), present: make([]bool, batch), t: timings{t0: t0},
	}
}

// newSession starts a server with the given flags, creates the filter and
// preloads it; setup is the wall time of all three.
func (r *run) newSession(flags []string) (*session, error) {
	t0 := time.Now()
	srv, err := startServer(r.bin, flags, r.log)
	if err != nil {
		return nil, err
	}
	s := &session{r: r, srv: srv, c: newClient(srv.base)}
	if err := s.c.create(filterName, r.w.kind, r.mbits()); err != nil {
		s.close()
		return nil, err
	}
	if s.start, err = s.c.info(filterName); err != nil {
		s.close()
		return nil, err
	}
	n := r.w.preload(s.start.Filter.SizeBits)
	s.load = s.loadRange(n, r.w.loadBatch)
	s.setup = time.Since(t0)
	if s.acked.Load() != n {
		s.close()
		return nil, fmt.Errorf("preload acknowledged %d of %d keys", s.acked.Load(), n)
	}
	return s, nil
}

func (s *session) close() { s.srv.stop() }

// withSession runs f on a fresh session and stops its server afterwards.
func (r *run) withSession(flags []string, f func(*session) error) error {
	s, err := r.newSession(flags)
	if err != nil {
		return err
	}
	defer s.close()
	return f(s)
}

// loadRange inserts keys [0, n) in batches spread over all connections.
func (s *session) loadRange(n uint64, batch int) timings {
	var next, done atomic.Uint64
	workers := make([]*worker, s.r.conns)
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := range workers {
		wk := s.newWorker(batch, t0)
		workers[i] = wk
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer wk.conn.close()
			for {
				start := next.Add(uint64(batch)) - uint64(batch)
				if start >= n {
					return
				}
				keys := wk.keys[:min(uint64(batch), n-start)]
				rangeBatch(s.r.perm, keys, presentBase, uint32(start))
				if s.insert(wk, keys) {
					done.Add(uint64(len(keys)))
				}
			}
		}()
	}
	wg.Wait()
	t := timings{t0: t0, wall: time.Since(t0)}
	for _, wk := range workers {
		t.merge(&wk.t)
	}
	s.acked.Store(done.Load())
	return t
}

// insert sends one insert request and checks the answer; it reports
// whether every key was acknowledged.
func (s *session) insert(wk *worker, keys []uint32) bool {
	wk.body = encodeKeys(wk.body, keys)
	t0 := time.Now()
	resp, body, err := wk.conn.post("/v1/filters/"+filterName+"/insert", wk.body, wk.resp)
	d := time.Since(t0)
	wk.resp = body
	s.r.attempted.Add(1)
	s.r.spans.add(s.r.netLayer, "insert", t0, d, len(keys))
	if err != nil || resp.status != http.StatusOK {
		s.r.fail("insert", resp.status, body, err)
		wk.t.recordFailed()
		return false
	}
	if err := checkInsert(len(keys), body); err != nil {
		s.r.v.add(err)
		return false
	}
	wk.t.record(t0, d, len(keys))
	s.insertKeys.Add(uint64(len(keys)))
	return true
}

// probe sends one probe request for keys, present marking the
// acknowledged ones, and runs the oracle on the answer; timed reports
// whether its latency is recorded.
func (s *session) probe(wk *worker, keys []uint32, present []bool, timed bool) {
	wk.body = encodeKeys(wk.body, keys)
	t0 := time.Now()
	resp, body, err := wk.conn.post("/v1/filters/"+filterName+"/probe", wk.body, wk.resp)
	d := time.Since(t0)
	wk.resp = body
	s.r.attempted.Add(1)
	if timed {
		s.r.spans.add(s.r.netLayer, "probe", t0, d, len(keys))
	}
	if err != nil || resp.status != http.StatusOK {
		s.r.fail("probe", resp.status, body, err)
		if timed {
			wk.t.recordFailed()
		}
		return
	}
	var tally probeTally
	wk.pos, tally, err = checkProbe(len(keys), present, resp.probed, resp.selected, body, wk.pos)
	s.probeKeys.Add(uint64(len(keys)))
	s.positives.Add(uint64(tally.positives))
	if err != nil {
		s.r.v.add(err)
		return
	}
	wk.falsePos += tally.falsePos
	if timed {
		wk.t.record(t0, d, len(keys))
	}
}

func (r *run) fail(op string, status int, body []byte, err error) {
	r.failed.Add(1)
	if err == nil {
		err = fmt.Errorf("status %d: %s", status, truncate(body))
	}
	fmt.Fprintf(os.Stderr, "loadbench: %s request failed: %v\n", op, err)
}

// phase is one measured traffic phase.
type phase struct {
	probes, inserts timings
}

// measure runs the workload's measured phase: timed probing for probe
// workloads, the fixed insert budget beside probing for the mixed one.
func (s *session) measure(dur time.Duration) phase {
	if s.r.w.fillTo > 0 {
		return s.mixedPhase()
	}
	return s.probePhase(dur)
}

// probePhase runs one closed-loop prober per connection for dur.
func (s *session) probePhase(dur time.Duration) phase {
	n := uint32(s.acked.Load())
	workers := make([]*worker, s.r.conns)
	var wg sync.WaitGroup
	t0 := time.Now()
	deadline := t0.Add(dur)
	for i := range workers {
		wk := s.newWorker(s.r.w.probeBatch, t0)
		workers[i] = wk
		r := rng{s: streamSeed(s.r.seed, uint64(i))}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer wk.conn.close()
			for time.Now().Before(deadline) {
				probeBatch(s.r.perm, &r, wk.keys, wk.present, n)
				s.probe(wk, wk.keys, wk.present, true)
			}
		}()
	}
	wg.Wait()
	ph := phase{probes: timings{t0: t0, wall: time.Since(t0)}}
	for _, wk := range workers {
		ph.probes.merge(&wk.t)
	}
	return ph
}

// mixedPhase inserts fresh keys on one connection until the load factor
// reaches fillTo, while a second connection probes keys acknowledged so
// far (and absent keys) until the inserter finishes.
func (s *session) mixedPhase() phase {
	batch := s.r.w.probeBatch
	slots := s.start.Filter.SizeBits / tagBits
	target := uint64(s.r.w.fillTo * float64(slots))
	t0 := time.Now()
	ins, prb := s.newWorker(batch, t0), s.newWorker(batch, t0)
	var finished atomic.Bool
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer ins.conn.close()
		defer finished.Store(true)
		for start := s.acked.Load(); start < target; start = s.acked.Load() {
			keys := ins.keys[:min(uint64(batch), target-start)]
			rangeBatch(s.r.perm, keys, presentBase, uint32(start))
			if !s.insert(ins, keys) {
				return // a refused batch ends the phase; the count check reports it
			}
			s.acked.Store(start + uint64(len(keys)))
		}
	}()
	go func() {
		defer wg.Done()
		defer prb.conn.close()
		r := rng{s: streamSeed(s.r.seed, 0)}
		for !finished.Load() {
			probeBatch(s.r.perm, &r, prb.keys, prb.present, uint32(s.acked.Load()))
			s.probe(prb, prb.keys, prb.present, true)
		}
	}()
	wg.Wait()
	wall := time.Since(t0)
	ph := phase{probes: prb.t, inserts: ins.t}
	ph.probes.wall, ph.inserts.wall = wall, wall
	return ph
}

// sweep probes count keys perm(base+i) in large batches over all
// connections; the keys are all acknowledged (present) or all absent. It
// returns the false positives seen.
func (s *session) sweep(base uint32, count uint64, present bool) int {
	mask := make([]bool, sweepBatch)
	for i := range mask {
		mask[i] = present
	}
	var next atomic.Uint64
	workers := make([]*worker, s.r.conns)
	var wg sync.WaitGroup
	for i := range workers {
		wk := s.newWorker(sweepBatch, time.Now())
		workers[i] = wk
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer wk.conn.close()
			for {
				start := next.Add(sweepBatch) - sweepBatch
				if start >= count {
					return
				}
				keys := wk.keys[:min(sweepBatch, count-start)]
				rangeBatch(s.r.perm, keys, base, uint32(start))
				s.probe(wk, keys, mask[:len(keys)], false)
			}
		}()
	}
	wg.Wait()
	fp := 0
	for _, wk := range workers {
		fp += wk.falsePos
	}
	return fp
}

// outcome is what the post-run checks measured.
type outcome struct {
	falsePos   int
	fpr        float64 // add-one estimate over the FPR pass
	end        filterInfo
	rssMiB     float64
	bitsPerKey float64
}

// finish runs the final pass over every acknowledged key (and, with
// fprPass, the post-run FPR pass first), then checks the filter's state
// and the server's counters against the client's.
func (s *session) finish(fprPass bool) (outcome, error) {
	var o outcome
	n := s.r.w.fprProbes
	if fprPass {
		o.falsePos = s.sweep(fprBase, uint64(n), false)
		// The add-one (Laplace) estimate: never 0, even where the model
		// rate is far below one false positive per pass.
		o.fpr = float64(o.falsePos+1) / float64(n+2)
	}
	s.sweep(presentBase, s.acked.Load(), true)
	var err error
	if o.end, err = s.c.info(filterName); err != nil {
		return o, err
	}
	if err := checkFinalInfo(s.start, o.end, s.acked.Load()); err != nil {
		s.r.v.add(err)
	}
	if fprPass {
		if err := checkFPR(o.falsePos, n, o.end.Filter.FPR); err != nil {
			s.r.v.add(err)
		}
	}
	m, err := s.c.scrape()
	if err != nil {
		return o, err
	}
	client := filterCounters{s.probeKeys.Load(), s.positives.Load(), s.insertKeys.Load()}
	if err := checkCounters(filterCountersFrom(m, filterName), client); err != nil {
		s.r.v.add(err)
	}
	if c := o.end.Filter.Count; c > 0 {
		o.bitsPerKey = float64(o.end.Filter.SizeBits+o.end.KeyLogBits) / float64(c)
	}
	o.rssMiB, err = s.srv.peakRSSMiB()
	return o, err
}
