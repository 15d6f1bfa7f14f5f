// Command loadbench is the repository benchmark. It starts
// cmd/filter-server as a child on loopback and drives one workload from a
// closed-loop load generator (at most nproc connections, each waiting for
// its reply), checks every response with an output oracle, and prints the
// metrics as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 it prints the end-to-end metrics; with -trace 1 it makes
// the separate traced run and prints the per-layer metrics. loadbench/run.sh
// builds both binaries from the checkout and runs this command:
//
//	bash loadbench/run.sh --workload probe-small --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: probe-large | probe-small | mixed")
	seed := flag.Uint64("seed", 1, "seed of the key streams")
	seconds := flag.Int("seconds", 10, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 = the traced run printing per-layer metrics")
	bin := flag.String("server", "", "filter-server binary")
	out := flag.String("out", ".", "directory for the server log and the span file")
	flag.Parse()

	w, ok := workloadByName(*name)
	if !ok || *bin == "" || *seconds < 1 {
		fmt.Fprintln(os.Stderr, "loadbench: need -workload (probe-large | probe-small | mixed), -server and -seconds >= 1")
		os.Exit(2)
	}
	// The generator never uses more CPUs, or connections, than the host has.
	conns := runtime.NumCPU()
	runtime.GOMAXPROCS(conns)

	// The generator's live heap is small; collecting it less often keeps
	// its GC from stealing the server's CPU in bursts.
	debug.SetGCPercent(400)

	// An interrupted benchmark stops its server children before exiting.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		stopAll()
		os.Exit(1)
	}()

	logf, err := os.Create(filepath.Join(*out, "server-"+w.name+".log"))
	if err != nil {
		fatal(err)
	}
	defer logf.Close()
	r := &run{w: w, seed: *seed, seconds: *seconds, perm: newPerm(*seed), conns: conns, bin: *bin, log: logf}
	info := map[string]any{
		"workload": w.name, "why": w.why, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"num_cpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go_version": runtime.Version(),
		"connections": conns, "server_flags": strings.Join(serverFlags, " "),
	}
	var metrics map[string]metric
	if *trace == 1 {
		info["traced_server_flags"] = strings.Join(tracedFlags, " ")
		metrics, err = r.traced(info, filepath.Join(*out, "spans-"+w.name+".jsonl"))
	} else {
		metrics, err = r.endToEnd(info)
	}
	stopAll()
	if err != nil {
		fatal(err)
	}
	for _, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fatal(fmt.Errorf("non-finite metric in %v", metrics))
		}
	}
	res := result{
		Correct:   r.v.count() == 0,
		Attempted: r.attempted.Load(),
		Failed:    r.failed.Load(),
		Metrics:   metrics,
	}
	info["violations"] = r.v.msgs
	for _, msg := range r.v.msgs {
		fmt.Fprintln(os.Stderr, "loadbench: oracle violation:", msg)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.Encode(map[string]any{"info": info})
	enc.Encode(res)
}

func fatal(err error) {
	stopAll()
	fmt.Fprintln(os.Stderr, "loadbench:", err)
	os.Exit(1)
}

func us(v float64) metric   { return metric{v, "us"} }
func ns(v float64) metric   { return metric{v, "ns/key"} }
func frac(v float64) metric { return metric{v, "ratio"} }

// windows is the number of equal time windows each session's share of
// the measured phase is split into.
const windows = 20

// endToEnd is the untraced run: the workload's sessions one after another,
// each set up, measured for its share of the run and checked. Throughput
// and latency are medians over the windows of all sessions; fpr and
// bits_per_key come from the last session, which also makes the FPR pass.
func (r *run) endToEnd(info map[string]any) (map[string]metric, error) {
	var setups, rss []float64
	var probes, inserts windowStats
	var o outcome
	var total, steal uint64
	probeSamples, insertSamples := 0, 0
	for i := 0; i < r.w.setups; i++ {
		s, err := r.newSession(serverFlags)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s.setup.Seconds())
		total0, steal0, _ := cpuTimes()
		ph := s.measure(r.phaseLen())
		if total1, steal1, ok := cpuTimes(); ok && total1 > total0 {
			total, steal = total+total1-total0, steal+steal1-steal0
		}
		probes.add(&ph.probes, windows)
		probeSamples += len(ph.probes.samples)
		// The probe workloads' inserts are their set-up loads; the mixed
		// workload's are its measured insert phase.
		if r.w.fillTo > 0 {
			inserts.add(&ph.inserts, windows)
			insertSamples += len(ph.inserts.samples)
		} else {
			inserts.addWhole(&s.load)
			insertSamples += len(s.load.samples)
		}
		o, err = s.finish(i == r.w.setups-1)
		s.close()
		if err != nil {
			return nil, err
		}
		rss = append(rss, o.rssMiB)
	}
	// The share of CPU time the hypervisor took during the measured
	// phases: context for a run that reads slower than its neighbours.
	if total > 0 {
		info["cpu_steal_frac"] = float64(steal) / float64(total)
	}
	probeRate, probeP50, probeP90 := probes.medians()
	insertRate, insertP50, insertP90 := inserts.medians()
	m := map[string]metric{
		"setup_s":           {median(setups), "s"},
		"probe_keys_per_s":  {probeRate, "keys/s"},
		"probe_p50_us":      us(probeP50),
		"probe_p90_us":      us(probeP90),
		"insert_keys_per_s": {insertRate, "keys/s"},
		"insert_p50_us":     us(insertP50),
		"insert_p90_us":     us(insertP90),
		"fpr":               frac(o.fpr),
		"bits_per_key":      {o.bitsPerKey, "bits/key"},
		"rss_peak_mib":      {median(rss), "MiB"},
	}
	info["samples"] = map[string]int{
		"setups": len(setups), "probe_requests": probeSamples,
		"insert_requests": insertSamples, "windows": len(probes.rates),
	}
	info["filter"] = o.end.Filter
	info["fpr_pass"] = map[string]any{
		"probes": r.w.fprProbes, "false_positives": o.falsePos, "model_fpr": o.end.Filter.FPR,
		"limit": fprLimit(r.w.fprProbes, o.end.Filter.FPR),
	}
	return m, nil
}

// traced is the traced run: (a) the workload against an untraced server,
// (b) the same against a server sampling every request into its span
// ring, (c) the in-process layer replay. Per-layer metrics come from these
// three alone.
func (r *run) traced(info map[string]any, spanPath string) (map[string]metric, error) {
	r.spans = &spanLog{t0: time.Now()}
	dur := time.Duration(r.seconds) * time.Second / 2

	// (a) Untraced: client latency, server histograms, pool and skew.
	var phA, phB phase
	var before, after map[string]float64
	var infoA filterInfo
	r.netLayer = "net"
	err := r.withSession(serverFlags, func(s *session) (err error) {
		if before, err = s.c.scrape(); err != nil {
			return err
		}
		phA = s.measure(dur)
		if after, err = s.c.scrape(); err != nil {
			return err
		}
		if infoA, err = s.c.info(filterName); err != nil {
			return err
		}
		_, err = s.finish(true)
		return err
	})
	if err != nil {
		return nil, err
	}

	// (b) Traced server: its own spans and throughput.
	var traces tracesDump
	r.netLayer = "net.traced_server"
	err = r.withSession(tracedFlags, func(s *session) error {
		phB = s.measure(dur)
		if err := s.c.getJSON("/v1/debug/traces?name=server.probe", &traces); err != nil {
			return err
		}
		_, err := s.finish(true)
		return err
	})
	if err != nil {
		return nil, err
	}

	// (c) In-process replay, one layer at a time.
	st, err := r.replay(r.spans, infoA)
	if err != nil {
		return nil, err
	}
	if err := r.spans.write(spanPath); err != nil {
		return nil, err
	}
	info["span_file"] = spanPath

	layer := func(l, op string) float64 { return median(r.spans.nsPerKey(l, op)) }
	kernel := "blocked"
	if r.w.kind == "cuckoo" {
		kernel = "cuckoo"
	}
	self := func(upper, lower, op string) metric { return ns(layer(upper, op) - layer(lower, op)) }
	var handlerLat []float64
	for _, s := range r.spans.spans {
		if s.Layer == "server" && s.Op == "probe" {
			handlerLat = append(handlerLat, float64(s.DurNs)/1e3)
		}
	}
	clientP50 := quantile(phA.probes.latUs(), 0.5)
	hist := histDelta(before, after, "perfilter_server_probe_duration_ns")
	par := after[`perfilter_sharded_pool_batches_total{mode="parallel"}`] - before[`perfilter_sharded_pool_batches_total{mode="parallel"}`]
	seq := after[`perfilter_sharded_pool_batches_total{mode="sequential"}`] - before[`perfilter_sharded_pool_batches_total{mode="sequential"}`]
	tputA := float64(phA.probes.keys) / phA.probes.wall.Seconds()
	tputB := float64(phB.probes.keys) / phB.probes.wall.Seconds()
	spanSelf := traces.selfUs()

	m := map[string]metric{
		"blocked.probe_ns_per_key":        ns(layer("blocked", "probe")),
		"blocked.insert_ns_per_key":       ns(layer("blocked", "insert")),
		"blocked.fpr_model":               frac(st.bloomFPR),
		"cuckoo.probe_ns_per_key":         ns(layer("cuckoo", "probe")),
		"cuckoo.insert_ns_per_key":        ns(layer("cuckoo", "insert")),
		"cuckoo.load_factor":              frac(st.cuckooLoad),
		"cuckoo.fpr_model":                frac(st.cuckooFPR),
		"registry.probe_self_ns_per_key":  self("registry", kernel, "probe"),
		"registry.insert_self_ns_per_key": self("registry", kernel, "insert"),
		"sharded.probe_self_ns_per_key":   self("sharded", "registry", "probe"),
		"sharded.insert_self_ns_per_key":  self("sharded", "registry", "insert"),
		"sharded.pool_parallel_frac":      frac(par / math.Max(par+seq, 1)),
		"sharded.skew":                    {after[`perfilter_server_filter_shard_skew{filter="`+filterName+`"}`], "ratio"},
		"adaptive.probe_self_ns_per_key":  self("adaptive", "sharded", "probe"),
		"adaptive.insert_self_ns_per_key": self("adaptive", "sharded", "insert"),
		"adaptive.keylog_bits_per_key":    {float64(infoA.KeyLogBits) / math.Max(float64(infoA.Filter.Count), 1), "bits/key"},
		"server.probe_self_ns_per_key":    self("server", "adaptive", "probe"),
		"server.insert_self_ns_per_key":   self("server", "adaptive", "insert"),
		"server.probe_allocs_per_req":     {st.allocsPerReq, "count"},
		"server.probe_bytes_per_req":      {st.bytesPerReq, "B"},
		"server.probe_p50_us":             us(hist.quantile(0.5) / 1e3),
		"server.probe_p90_us":             us(hist.quantile(0.9) / 1e3),
		"server.probe_span_self_us":       us(spanSelf),
		"net.probe_us_per_req":            us(clientP50 - median(handlerLat)),
		"trace.overhead_frac":             frac(1 - tputB/tputA),
	}
	info["samples"] = map[string]int{
		"client_probe_requests": len(phA.probes.samples), "server_hist": int(hist.total()),
		"server_spans": len(traces.Spans), "replay_spans": len(r.spans.spans),
	}
	info["filter"] = infoA.Filter
	return m, nil
}
