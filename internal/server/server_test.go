package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"perfilter/internal/rng"
)

// newQuiet builds a server whose structured log output is discarded, so
// control-plane events exercised by tests do not spam the test log.
func newQuiet(opts Options) *Server {
	opts.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	return New(opts)
}

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(newQuiet(Options{}).Handler())
	t.Cleanup(ts.Close)
	return ts
}

func doJSON(t *testing.T, method, url string, body any, wantStatus int) map[string]any {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("%s %s: bad JSON response: %v", method, url, err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("%s %s: status %d, want %d (body %v)", method, url, resp.StatusCode, wantStatus, out)
	}
	return out
}

func leBytes(keys []uint32) []byte {
	b := make([]byte, 4*len(keys))
	for i, k := range keys {
		binary.LittleEndian.PutUint32(b[4*i:], k)
	}
	return b
}

func postBinary(t *testing.T, url string, keys []uint32) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(leBytes(keys)))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestLifecycleBinaryRoundTrip(t *testing.T) {
	ts := newTestServer(t)

	doJSON(t, "POST", ts.URL+"/v1/filters", CreateRequest{
		Name: "events", Kind: "bloom", MBits: 1 << 20, Shards: 4,
	}, http.StatusCreated)

	// Insert 10k keys through the binary plane.
	r := rng.NewMT19937(11)
	keys := make([]uint32, 10_000)
	for i := range keys {
		keys[i] = r.Uint32() | 1
	}
	resp := postBinary(t, ts.URL+"/v1/filters/events/insert", keys)
	var ins struct {
		Inserted int    `json:"inserted"`
		Count    uint64 `json:"count"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ins); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || ins.Inserted != len(keys) || ins.Count != uint64(len(keys)) {
		t.Fatalf("insert: status %d, %+v", resp.StatusCode, ins)
	}

	// Probe a batch mixing inserted and (almost certainly) absent keys.
	probe := make([]uint32, 4096)
	for i := range probe {
		if i%2 == 0 {
			probe[i] = keys[i%len(keys)]
		} else {
			probe[i] = r.Uint32() &^ 1
		}
	}
	resp = postBinary(t, ts.URL+"/v1/filters/events/probe", probe)
	raw, sel := make([]byte, 0), []uint32(nil)
	buf := new(bytes.Buffer)
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	raw = buf.Bytes()
	if resp.StatusCode != http.StatusOK || len(raw)%4 != 0 {
		t.Fatalf("probe: status %d, %d bytes", resp.StatusCode, len(raw))
	}
	for i := 0; i+4 <= len(raw); i += 4 {
		sel = append(sel, binary.LittleEndian.Uint32(raw[i:]))
	}
	// The selection is written once, with its length declared up front.
	if resp.ContentLength != int64(len(raw)) ||
		resp.Header.Get("X-Probed-Keys") != strconv.Itoa(len(probe)) ||
		resp.Header.Get("X-Selected") != strconv.Itoa(len(sel)) {
		t.Fatalf("probe headers: Content-Length %d, X-Probed-Keys %q, X-Selected %q for %d keys, %d selected",
			resp.ContentLength, resp.Header.Get("X-Probed-Keys"), resp.Header.Get("X-Selected"), len(probe), len(sel))
	}
	// Every inserted position must be selected (no false negatives), and
	// the vector must be ascending.
	selSet := make(map[uint32]bool, len(sel))
	for i, p := range sel {
		selSet[p] = true
		if i > 0 && sel[i] <= sel[i-1] {
			t.Fatal("selection vector not ascending")
		}
	}
	falsePos := 0
	for i := range probe {
		if i%2 == 0 && !selSet[uint32(i)] {
			t.Fatalf("false negative at probe position %d", i)
		}
		if i%2 == 1 && selSet[uint32(i)] {
			falsePos++
		}
	}
	// 1 MiB / 10k keys ≈ 105 bits/key: false positives should be rare.
	if falsePos > len(probe)/10 {
		t.Fatalf("%d false positives in %d negative probes", falsePos, len(probe)/2)
	}

	// Stats reflect the inserts.
	st := doJSON(t, "GET", ts.URL+"/v1/filters/events", nil, http.StatusOK)
	info := st["filter"].(map[string]any)
	if info["count"].(float64) != float64(len(keys)) || info["shards"].(float64) != 4 {
		t.Fatalf("stats: %v", info)
	}

	// Rotate to a fresh generation: keys are gone, generation bumps.
	rot := doJSON(t, "POST", ts.URL+"/v1/filters/events/rotate", map[string]any{}, http.StatusOK)
	if rot["generation"].(float64) != 1 || rot["count"].(float64) != 0 {
		t.Fatalf("rotate: %v", rot)
	}
	out := doJSON(t, "POST", ts.URL+"/v1/filters/events/probe?format=json",
		map[string]any{"keys": probe[:64]}, http.StatusOK)
	if pos, ok := out["positions"].([]any); ok && len(pos) > 3 {
		t.Fatalf("after rotation, %d of 64 probes still hit", len(pos))
	}

	// Delete, then 404.
	doJSON(t, "DELETE", ts.URL+"/v1/filters/events", nil, http.StatusOK)
	doJSON(t, "GET", ts.URL+"/v1/filters/events", nil, http.StatusNotFound)
}

func TestCreateViaAdvise(t *testing.T) {
	ts := newTestServer(t)
	out := doJSON(t, "POST", ts.URL+"/v1/filters", CreateRequest{
		Name:   "advised",
		Advise: &AdviseRequest{N: 100_000, Tw: 500, BitsPerKey: 16},
	}, http.StatusCreated)
	if out["size_bits"].(float64) <= 0 || out["shards"].(float64) < 1 {
		t.Fatalf("advised create: %v", out)
	}
	list := doJSON(t, "GET", ts.URL+"/v1/filters", nil, http.StatusOK)
	if n := len(list["filters"].([]any)); n != 1 {
		t.Fatalf("list: %d filters", n)
	}
}

func TestErrorPaths(t *testing.T) {
	ts := newTestServer(t)

	// Oversized filters are refused before any allocation happens.
	doJSON(t, "POST", ts.URL+"/v1/filters", CreateRequest{Name: "huge", MBits: 1 << 40}, http.StatusBadRequest)

	// Bad names and configs.
	doJSON(t, "POST", ts.URL+"/v1/filters", CreateRequest{Name: "bad name!", MBits: 1 << 20}, http.StatusBadRequest)
	doJSON(t, "POST", ts.URL+"/v1/filters", CreateRequest{Name: "x"}, http.StatusBadRequest)
	doJSON(t, "POST", ts.URL+"/v1/filters", CreateRequest{Name: "x", Kind: "tardis", MBits: 1 << 20}, http.StatusBadRequest)

	// Duplicate create conflicts.
	doJSON(t, "POST", ts.URL+"/v1/filters", CreateRequest{Name: "x", Kind: "exact", MBits: 1 << 20}, http.StatusCreated)
	doJSON(t, "POST", ts.URL+"/v1/filters", CreateRequest{Name: "x", Kind: "exact", MBits: 1 << 20}, http.StatusConflict)

	// Rotation respects the size cap too.
	doJSON(t, "POST", ts.URL+"/v1/filters/x/rotate", map[string]any{"mbits": uint64(1) << 40}, http.StatusBadRequest)

	// Misaligned binary body.
	resp, err := http.Post(ts.URL+"/v1/filters/x/insert", "application/octet-stream", bytes.NewReader([]byte{1, 2, 3}))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("misaligned insert: status %d", resp.StatusCode)
	}

	// Unknown filter on every data/control endpoint.
	for _, probe := range []struct{ method, path string }{
		{"POST", "/v1/filters/nope/insert"},
		{"POST", "/v1/filters/nope/probe"},
		{"POST", "/v1/filters/nope/rotate"},
		{"DELETE", "/v1/filters/nope"},
	} {
		req, _ := http.NewRequest(probe.method, ts.URL+probe.path, bytes.NewReader(nil))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s %s: status %d, want 404", probe.method, probe.path, resp.StatusCode)
		}
	}
}

func TestCuckooFullReportsProgress(t *testing.T) {
	ts := newTestServer(t)
	// A tiny cuckoo filter saturates quickly; the server must report how
	// many keys landed before ErrFull.
	doJSON(t, "POST", ts.URL+"/v1/filters", CreateRequest{
		Name: "tiny", Kind: "cuckoo", MBits: 1 << 12, Shards: 1,
	}, http.StatusCreated)
	r := rng.NewMT19937(5)
	keys := make([]uint32, 4096)
	for i := range keys {
		keys[i] = r.Uint32()
	}
	resp := postBinary(t, ts.URL+"/v1/filters/tiny/insert", keys)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInsufficientStorage {
		t.Fatalf("saturating insert: status %d, want 507", resp.StatusCode)
	}
	var out struct {
		Inserted int    `json:"inserted"`
		Error    string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Inserted == 0 || out.Error == "" {
		t.Fatalf("saturating insert: %+v", out)
	}
}

// TestConcurrentClients drives inserts and probes against one filter from
// many goroutines; run with -race to check the full handler stack.
func TestConcurrentClients(t *testing.T) {
	ts := newTestServer(t)
	doJSON(t, "POST", ts.URL+"/v1/filters", CreateRequest{
		Name: "shared", Kind: "bloom", MBits: 1 << 22, Shards: 8,
	}, http.StatusCreated)

	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := rng.NewMT19937(uint32(300 + c))
			keys := make([]uint32, 2048)
			for rep := 0; rep < 5; rep++ {
				for i := range keys {
					keys[i] = r.Uint32()
				}
				in, err := http.Post(ts.URL+"/v1/filters/shared/insert",
					"application/octet-stream", bytes.NewReader(leBytes(keys)))
				if err != nil {
					errs <- err
					return
				}
				in.Body.Close()
				if in.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("client %d: insert status %d", c, in.StatusCode)
					return
				}
				pr, err := http.Post(ts.URL+"/v1/filters/shared/probe",
					"application/octet-stream", bytes.NewReader(leBytes(keys)))
				if err != nil {
					errs <- err
					return
				}
				buf := new(bytes.Buffer)
				buf.ReadFrom(pr.Body)
				pr.Body.Close()
				if pr.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("client %d: probe status %d", c, pr.StatusCode)
					return
				}
				// Just-inserted keys must all be selected.
				if buf.Len() != 4*len(keys) {
					errs <- fmt.Errorf("client %d: %d of %d own keys selected", c, buf.Len()/4, len(keys))
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestTotalMemoryBudget(t *testing.T) {
	// Total budget fits two 1 Mbit filters but not three. The bloom kind
	// builds at (almost exactly) the requested size; the budget accounts
	// the built size, so kinds that round up (exact: 2x) reserve more.
	ts := httptest.NewServer(newQuiet(Options{MaxTotalBits: 2 << 20}).Handler())
	defer ts.Close()
	doJSON(t, "POST", ts.URL+"/v1/filters", CreateRequest{Name: "a", Kind: "bloom", MBits: 1 << 20}, http.StatusCreated)
	doJSON(t, "POST", ts.URL+"/v1/filters", CreateRequest{Name: "b", Kind: "bloom", MBits: 1 << 20}, http.StatusCreated)
	doJSON(t, "POST", ts.URL+"/v1/filters", CreateRequest{Name: "c", Kind: "bloom", MBits: 1 << 20}, http.StatusInsufficientStorage)
	// Growth by rotation is budgeted too.
	doJSON(t, "POST", ts.URL+"/v1/filters/a/rotate", map[string]any{"mbits": uint64(2) << 20}, http.StatusInsufficientStorage)
	// Freeing a filter frees its budget.
	doJSON(t, "DELETE", ts.URL+"/v1/filters/b", nil, http.StatusOK)
	doJSON(t, "POST", ts.URL+"/v1/filters", CreateRequest{Name: "c", Kind: "bloom", MBits: 1 << 20}, http.StatusCreated)
}

// TestSnapshotRestartEquivalence is the durability acceptance test: a
// server with a data dir snapshots its filters, a second server restores
// from the same dir, and every probe answers byte-identically — the
// "kill and restart filter-server" scenario, minus the process boundary.
// Half the filters are snapshotted through the endpoint; the shutdown
// path, SaveAll, must write all of them.
func TestSnapshotRestartEquivalence(t *testing.T) {
	dir := t.TempDir()
	srv := newQuiet(Options{DataDir: dir})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	nKeys := 100_000
	if testing.Short() {
		nKeys = 20_000
	}
	specs := []CreateRequest{
		{Name: "bloom8", Kind: "bloom", MBits: uint64(nKeys) * 16, Shards: 4},
		{Name: "classic", Kind: "classic", MBits: uint64(nKeys) * 16, Shards: 2},
		{Name: "cuckoo", Kind: "cuckoo", MBits: uint64(nKeys) * 24, Shards: 4},
		{Name: "exact", Kind: "exact", MBits: uint64(nKeys) * 128, Shards: 2},
	}
	r := rng.NewMT19937(4242)
	keys := make([]uint32, nKeys)
	for i := range keys {
		keys[i] = r.Uint32()
	}
	probe := make([]uint32, nKeys)
	for i := range probe {
		if i%2 == 0 {
			probe[i] = keys[i]
		} else {
			probe[i] = r.Uint32()
		}
	}
	preSel := map[string][]byte{}
	preInfo := map[string]map[string]any{}
	for i, spec := range specs {
		doJSON(t, "POST", ts.URL+"/v1/filters", spec, http.StatusCreated)
		// A rotation before the fill gives the snapshot a non-zero
		// generation to carry across the restart.
		doJSON(t, "POST", ts.URL+"/v1/filters/"+spec.Name+"/rotate", nil, http.StatusOK)
		resp := postBinary(t, ts.URL+"/v1/filters/"+spec.Name+"/insert", keys)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: insert status %d", spec.Name, resp.StatusCode)
		}
		resp = postBinary(t, ts.URL+"/v1/filters/"+spec.Name+"/probe", probe)
		sel := new(bytes.Buffer)
		sel.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: probe status %d", spec.Name, resp.StatusCode)
		}
		preSel[spec.Name] = sel.Bytes()
		preInfo[spec.Name] = doJSON(t, "GET", ts.URL+"/v1/filters/"+spec.Name, nil, http.StatusOK)
		if i%2 == 1 {
			continue // left to SaveAll
		}
		// Snapshot on demand via the endpoint.
		out := doJSON(t, "POST", ts.URL+"/v1/filters/"+spec.Name+"/snapshot", nil, http.StatusOK)
		if out["bytes"].(float64) <= 0 {
			t.Fatalf("%s: snapshot wrote %v bytes", spec.Name, out["bytes"])
		}
	}
	// Shutdown (filter-server's SIGTERM path) saves every filter.
	if saved, err := srv.SaveAll(); saved != len(specs) || err != nil {
		t.Fatalf("SaveAll: saved %d of %d filters, err %v", saved, len(specs), err)
	}

	// "Restart": a brand-new server restores from the same directory.
	reg2 := newQuiet(Options{DataDir: dir})
	loaded, err := reg2.LoadAll()
	if err != nil {
		t.Fatalf("LoadAll: %v", err)
	}
	if loaded != len(specs) {
		t.Fatalf("restored %d of %d filters", loaded, len(specs))
	}
	ts2 := httptest.NewServer(reg2.Handler())
	defer ts2.Close()
	for _, spec := range specs {
		resp := postBinary(t, ts2.URL+"/v1/filters/"+spec.Name+"/probe", probe)
		sel := new(bytes.Buffer)
		sel.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: post-restart probe status %d", spec.Name, resp.StatusCode)
		}
		if !bytes.Equal(sel.Bytes(), preSel[spec.Name]) {
			t.Fatalf("%s: probe selection changed across restart (%d vs %d bytes)",
				spec.Name, sel.Len(), len(preSel[spec.Name]))
		}
		info := doJSON(t, "GET", ts2.URL+"/v1/filters/"+spec.Name, nil, http.StatusOK)
		pre := preInfo[spec.Name]["filter"].(map[string]any)
		post := info["filter"].(map[string]any)
		for _, field := range []string{"config", "kind", "size_bits", "shards", "count", "generation"} {
			if pre[field] != post[field] {
				t.Fatalf("%s: %s changed across restart: %v vs %v", spec.Name, field, pre[field], post[field])
			}
		}
	}

	// Restored filters count against the budget: a tiny-budget server
	// must refuse to restore what it cannot hold.
	regTiny := newQuiet(Options{DataDir: dir, MaxTotalBits: 1})
	loaded, err = regTiny.LoadAll()
	if loaded != 0 || err == nil {
		t.Fatalf("tiny-budget restore: loaded %d, err %v", loaded, err)
	}

	// A deleted filter's snapshot goes with it: no resurrection.
	doJSON(t, "DELETE", ts2.URL+"/v1/filters/exact", nil, http.StatusOK)
	reg3 := newQuiet(Options{DataDir: dir})
	if loaded, _ = reg3.LoadAll(); loaded != len(specs)-1 {
		t.Fatalf("restored %d filters after delete, want %d", loaded, len(specs)-1)
	}
}

// TestAdviceAndMigrateEndpoints drives the adaptive control plane: the
// advice endpoint reports the tracked workload and the re-advised
// optimum, and the migrate endpoint applies it — including a kind change
// — losslessly and with the memory budget re-accounted.
func TestAdviceAndMigrateEndpoints(t *testing.T) {
	ts := newTestServer(t)
	// A cuckoo filter at a tw where bloom is optimal for the workload it
	// will actually see: the advisor should want to switch kinds.
	doJSON(t, "POST", ts.URL+"/v1/filters", CreateRequest{
		Name: "adapt", Kind: "cuckoo", MBits: 1 << 21, Shards: 2, Tw: 100,
	}, http.StatusCreated)

	r := rng.NewMT19937(77)
	keys := make([]uint32, 50_000)
	for i := range keys {
		keys[i] = r.Uint32()
	}
	resp := postBinary(t, ts.URL+"/v1/filters/adapt/insert", keys)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert status %d", resp.StatusCode)
	}
	resp = postBinary(t, ts.URL+"/v1/filters/adapt/probe", keys[:4096])
	resp.Body.Close()

	adv := doJSON(t, "GET", ts.URL+"/v1/filters/adapt/advice", nil, http.StatusOK)
	if adv["n"].(float64) != float64(len(keys)) {
		t.Fatalf("advice n = %v, want %d", adv["n"], len(keys))
	}
	if adv["tw"].(float64) != 100 {
		t.Fatalf("advice tw = %v, want 100", adv["tw"])
	}
	cur := adv["current"].(map[string]any)
	best := adv["best"].(map[string]any)
	if cur["kind"] != "cuckoo" {
		t.Fatalf("current kind %v", cur["kind"])
	}
	if best["kind"] != "bloom" || adv["kind_change"] != true {
		t.Fatalf("at tw=100 the advisor should recommend bloom, got %v (kind_change %v)",
			best["kind"], adv["kind_change"])
	}
	if cur["overhead"].(float64) <= best["overhead"].(float64) {
		t.Fatalf("recommended overhead %v not below current %v", best["overhead"], cur["overhead"])
	}
	// The tw override explores a different regime without mutating state.
	explore := doJSON(t, "GET", ts.URL+"/v1/filters/adapt/advice?tw=100000", nil, http.StatusOK)
	if explore["tw"].(float64) != 100000 {
		t.Fatalf("override tw = %v", explore["tw"])
	}
	doJSON(t, "GET", ts.URL+"/v1/filters/adapt/advice?tw=bogus", nil, http.StatusBadRequest)

	// Migrate on recommendation (forced, in case hysteresis holds).
	out := doJSON(t, "POST", ts.URL+"/v1/filters/adapt/migrate", map[string]any{"force": true}, http.StatusOK)
	if out["migrated"] != true {
		t.Fatalf("migrate: %v", out)
	}
	info := doJSON(t, "GET", ts.URL+"/v1/filters/adapt", nil, http.StatusOK)
	if kind := info["filter"].(map[string]any)["kind"]; kind != "bloom" {
		t.Fatalf("post-migration kind %v, want bloom", kind)
	}
	// Zero false negatives across the kind change.
	resp = postBinary(t, ts.URL+"/v1/filters/adapt/probe", keys)
	buf := new(bytes.Buffer)
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if buf.Len() != 4*len(keys) {
		t.Fatalf("%d of %d keys selected after migration", buf.Len()/4, len(keys))
	}
	// A second recommendation-mode migrate is a no-op: already optimal.
	out = doJSON(t, "POST", ts.URL+"/v1/filters/adapt/migrate", nil, http.StatusOK)
	if out["migrated"] != false {
		t.Fatalf("repeat migrate: %v", out)
	}

	// Explicit-target mode with an oversized request hits the cap.
	doJSON(t, "POST", ts.URL+"/v1/filters/adapt/migrate",
		MigrateRequest{Kind: "bloom", MBits: 1 << 40}, http.StatusBadRequest)
	// Explicit resize within budget works and preserves contents.
	out = doJSON(t, "POST", ts.URL+"/v1/filters/adapt/migrate",
		MigrateRequest{MBits: 1 << 22}, http.StatusOK)
	if out["migrated"] != true {
		t.Fatalf("resize migrate: %v", out)
	}
	resp = postBinary(t, ts.URL+"/v1/filters/adapt/probe", keys)
	buf.Reset()
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if buf.Len() != 4*len(keys) {
		t.Fatalf("%d of %d keys selected after resize", buf.Len()/4, len(keys))
	}
	doJSON(t, "GET", ts.URL+"/v1/filters/nope/advice", nil, http.StatusNotFound)
	doJSON(t, "POST", ts.URL+"/v1/filters/nope/migrate", nil, http.StatusNotFound)
}

// TestMigrateBudgetAccounting pins that migrations reserve against the
// total memory budget like rotations do.
func TestMigrateBudgetAccounting(t *testing.T) {
	ts := httptest.NewServer(newQuiet(Options{MaxTotalBits: 3 << 20}).Handler())
	defer ts.Close()
	doJSON(t, "POST", ts.URL+"/v1/filters", CreateRequest{Name: "a", Kind: "bloom", MBits: 1 << 20}, http.StatusCreated)
	doJSON(t, "POST", ts.URL+"/v1/filters", CreateRequest{Name: "b", Kind: "bloom", MBits: 1 << 20}, http.StatusCreated)
	// Growing a past the remaining budget must be refused...
	doJSON(t, "POST", ts.URL+"/v1/filters/a/migrate",
		MigrateRequest{MBits: 3 << 20}, http.StatusInsufficientStorage)
	// ...while a fitting growth is accepted and accounted.
	doJSON(t, "POST", ts.URL+"/v1/filters/a/migrate",
		MigrateRequest{MBits: 2 << 20}, http.StatusOK)
	doJSON(t, "POST", ts.URL+"/v1/filters", CreateRequest{Name: "c", Kind: "bloom", MBits: 1 << 20}, http.StatusInsufficientStorage)
	// Shrinking a returns budget.
	doJSON(t, "POST", ts.URL+"/v1/filters/a/migrate",
		MigrateRequest{MBits: 1 << 20}, http.StatusOK)
	doJSON(t, "POST", ts.URL+"/v1/filters", CreateRequest{Name: "c", Kind: "bloom", MBits: 1 << 20}, http.StatusCreated)
}

// TestAutotuneOnce drives the server-side control loop: a filter whose
// tracked workload has outgrown its configuration is migrated by one
// autotune sweep, keys intact.
func TestAutotuneOnce(t *testing.T) {
	reg := newQuiet(Options{})
	ts := httptest.NewServer(reg.Handler())
	defer ts.Close()
	// Sized and advised for 4k keys; it will see 200k.
	doJSON(t, "POST", ts.URL+"/v1/filters", CreateRequest{
		Name:   "grower",
		Advise: &AdviseRequest{N: 4096, Tw: 100, BitsPerKey: 16},
	}, http.StatusCreated)
	r := rng.NewMT19937(99)
	keys := make([]uint32, 200_000)
	for i := range keys {
		keys[i] = r.Uint32()
	}
	// Insert in chunks; tolerate 507s (the server does not auto-grow on
	// the insert path — that is exactly what autotune is for).
	for lo := 0; lo < len(keys); lo += 20_000 {
		resp := postBinary(t, ts.URL+"/v1/filters/grower/insert", keys[lo:lo+20_000])
		resp.Body.Close()
		if resp.StatusCode == http.StatusInsufficientStorage {
			results := reg.AutotuneOnce()
			if len(results) != 1 {
				t.Fatalf("autotune results: %+v", results)
			}
			if results[0].Err != "" {
				t.Fatalf("autotune: %s", results[0].Err)
			}
			// Replay the chunk after the grow (insert order within the
			// chunk does not matter for membership).
			resp = postBinary(t, ts.URL+"/v1/filters/grower/insert", keys[lo:lo+20_000])
			resp.Body.Close()
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("insert at %d: status %d", lo, resp.StatusCode)
		}
	}
	migrated := false
	for i := 0; i < 3 && !migrated; i++ {
		for _, res := range reg.AutotuneOnce() {
			if res.Err != "" {
				t.Fatalf("autotune: %s", res.Err)
			}
			migrated = migrated || res.Migrated
		}
	}
	if !migrated {
		t.Fatal("autotune never migrated the outgrown filter")
	}
	// The control loop's verdicts land in the decision trace: at least one
	// retained decision must be the migration that just happened.
	tr := doJSON(t, "GET", ts.URL+"/v1/filters/grower/trace", nil, http.StatusOK)
	traceMigrated := false
	for _, raw := range tr["decisions"].([]any) {
		if raw.(map[string]any)["migrated"] == true {
			traceMigrated = true
		}
	}
	if !traceMigrated {
		t.Fatalf("no migrated decision in the trace after autotune: %v", tr)
	}
	// Every acknowledged key is still present.
	resp := postBinary(t, ts.URL+"/v1/filters/grower/probe", keys)
	buf := new(bytes.Buffer)
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if buf.Len() != 4*len(keys) {
		t.Fatalf("%d of %d keys present after autotune migration", buf.Len()/4, len(keys))
	}
	// The post-migration size must be accounted: a fresh create that
	// would collide with the grown usage is still budget-checked (smoke:
	// usedBits is consistent enough to not underflow on delete).
	doJSON(t, "DELETE", ts.URL+"/v1/filters/grower", nil, http.StatusOK)
}

// counter reads one unlabeled counter from a /metrics scrape.
func counter(t *testing.T, ts *httptest.Server, name string) (n uint64) {
	t.Helper()
	for _, line := range strings.Split(scrape(t, ts), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, _ = strconv.ParseUint(v, 10, 64)
		}
	}
	return n
}

// TestAutotuneRecordsEveryPass pins that the server's control loop is
// the adaptive one: every autotune pass and empty-body migrate is one
// Reoptimize pass, so each lands in the decision trace with its modeled
// overheads and the policy's reason, and moves the evaluation and
// rejection counters, declines included. A pass whose target does not
// fit the memory budget is refused, recorded, and changes no accounting.
func TestAutotuneRecordsEveryPass(t *testing.T) {
	const evals, rejects = "perfilter_adaptive_evaluations_total", "perfilter_adaptive_rejections_total"
	reg := newQuiet(Options{})
	ts := httptest.NewServer(reg.Handler())
	defer ts.Close()
	doJSON(t, "POST", ts.URL+"/v1/filters", CreateRequest{
		Name: "grower", Advise: &AdviseRequest{N: 4096, Tw: 100, BitsPerKey: 16},
	}, http.StatusCreated)
	evals0, rejects0 := counter(t, ts, evals), counter(t, ts, rejects)
	var reasons []string // the policy's reason, one per pass
	declines := 0
	sweep := func() bool {
		res := reg.AutotuneOnce()
		if len(res) != 1 || res[0].Err != "" {
			t.Fatalf("autotune results: %+v", res)
		}
		reasons = append(reasons, res[0].Reason)
		if !res[0].Migrated {
			declines++
		}
		return res[0].Migrated
	}
	// The TestAutotuneOnce scenario: outgrow the filter, then sweep until
	// it migrates, then once more (a decline), then migrate over HTTP.
	r := rng.NewMT19937(99)
	keys := make([]uint32, 200_000)
	for i := range keys {
		keys[i] = r.Uint32()
	}
	for lo := 0; lo < len(keys); lo += 20_000 {
		resp := postBinary(t, ts.URL+"/v1/filters/grower/insert", keys[lo:lo+20_000])
		resp.Body.Close()
		if resp.StatusCode == http.StatusInsufficientStorage {
			sweep()
			resp = postBinary(t, ts.URL+"/v1/filters/grower/insert", keys[lo:lo+20_000])
			resp.Body.Close()
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("insert at %d: status %d", lo, resp.StatusCode)
		}
	}
	migrated := false
	for i := 0; i < 3 && !migrated; i++ {
		migrated = sweep()
	}
	if !migrated || sweep() {
		t.Fatalf("want one migration, then a decline: %q", reasons)
	}
	out := doJSON(t, "POST", ts.URL+"/v1/filters/grower/migrate", nil, http.StatusOK)
	if reasons = append(reasons, out["reason"].(string)); out["migrated"] != true {
		declines++
	}

	tr := doJSON(t, "GET", ts.URL+"/v1/filters/grower/trace", nil, http.StatusOK)
	decisions := tr["decisions"].([]any)
	if len(decisions) != len(reasons) {
		t.Fatalf("trace holds %d decisions after %d passes: %v", len(decisions), len(reasons), decisions)
	}
	for i, raw := range decisions {
		d := raw.(map[string]any)
		if d["current_rho"].(float64) <= 0 || d["best_rho"].(float64) <= 0 || d["reason"] != reasons[i] {
			t.Errorf("decision %d = %v, want modeled overheads and the reason %q", i, d, reasons[i])
		}
		// A migration's decision carries its cost; a decline has none.
		replayed, _ := d["replayed_keys"].(float64)
		ns, _ := d["migration_ns"].(float64)
		if migrated := d["migrated"] == true; migrated != (replayed > 0 && ns > 0) {
			t.Errorf("decision %d (migrated %v) reports %v replayed keys in %v ns", i, migrated, replayed, ns)
		}
	}
	if got := counter(t, ts, evals) - evals0; got != uint64(len(reasons)) {
		t.Errorf("%s rose by %d over %d passes", evals, got, len(reasons))
	}
	if got := counter(t, ts, rejects) - rejects0; got != uint64(declines) {
		t.Errorf("%s rose by %d over %d declines", rejects, got, declines)
	}

	// A budget too small for the recommended growth.
	tight := newQuiet(Options{MaxTotalBits: 1 << 17})
	tts := httptest.NewServer(tight.Handler())
	defer tts.Close()
	doJSON(t, "POST", tts.URL+"/v1/filters", CreateRequest{Name: "capped", Kind: "bloom", MBits: 1 << 16}, http.StatusCreated)
	resp := postBinary(t, tts.URL+"/v1/filters/capped/insert", keys[:50_000])
	resp.Body.Close()
	used := tight.usedBits
	res := tight.AutotuneOnce()
	if len(res) != 1 || res[0].Migrated || !strings.Contains(res[0].Err, "remaining budget") {
		t.Fatalf("over-budget autotune pass: %+v", res)
	}
	if tight.usedBits != used {
		t.Errorf("used bits %d -> %d across a refused migration", used, tight.usedBits)
	}
	tr = doJSON(t, "GET", tts.URL+"/v1/filters/capped/trace", nil, http.StatusOK)
	if d := tr["decisions"].([]any); len(d) != 1 || !strings.Contains(d[0].(map[string]any)["reason"].(string), "remaining budget") {
		t.Fatalf("refused pass not recorded: %v", tr)
	}
}

// BenchmarkProbeHandlerAllocs measures allocations on the binary probe
// hot path (the satellite fix pools the body, key and selection buffers;
// before pooling every request allocated all three).
func BenchmarkProbeHandlerAllocs(b *testing.B) {
	s := newQuiet(Options{})
	handler := s.Handler()
	// Create a filter and fill it through the handler stack.
	createBody, _ := json.Marshal(CreateRequest{Name: "bench", Kind: "bloom", MBits: 1 << 22, Shards: 2})
	req := httptest.NewRequest("POST", "/v1/filters", bytes.NewReader(createBody))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, req)
	if rec.Code != http.StatusCreated {
		b.Fatalf("create: %d %s", rec.Code, rec.Body)
	}
	r := rng.NewMT19937(123)
	keys := make([]uint32, 4096)
	for i := range keys {
		keys[i] = r.Uint32()
	}
	body := leBytes(keys)
	ins := httptest.NewRequest("POST", "/v1/filters/bench/insert", bytes.NewReader(body))
	ins.Header.Set("Content-Type", "application/octet-stream")
	rec = httptest.NewRecorder()
	handler.ServeHTTP(rec, ins)
	if rec.Code != http.StatusOK {
		b.Fatalf("insert: %d", rec.Code)
	}

	rdr := bytes.NewReader(body)
	rec = httptest.NewRecorder()
	rec.Body = bytes.NewBuffer(make([]byte, 0, 4*len(keys)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rdr.Reset(body)
		rec.Body.Reset()
		req := httptest.NewRequest("POST", "/v1/filters/bench/probe", rdr)
		req.Header.Set("Content-Type", "application/octet-stream")
		handler.ServeHTTP(rec, req)
	}
}

// TestSnapshotWithoutDataDir pins the error path: snapshotting on a
// server with no data dir is a client error, not a crash.
func TestSnapshotWithoutDataDir(t *testing.T) {
	ts := newTestServer(t)
	doJSON(t, "POST", ts.URL+"/v1/filters", CreateRequest{
		Name: "f", Kind: "bloom", MBits: 1 << 16,
	}, http.StatusCreated)
	doJSON(t, "POST", ts.URL+"/v1/filters/f/snapshot", nil, http.StatusBadRequest)
	doJSON(t, "POST", ts.URL+"/v1/filters/missing/snapshot", nil, http.StatusNotFound)
}

// TestXorMigrateEndpoint drives the immutable family through the HTTP
// surface: create a Bloom filter, load keys, migrate it to kind "xor"
// explicitly (the key-log replay seals the new generation), verify the
// stats endpoint reports the xor kind plus the read-mostly window, keep
// probing (members still selected), and migrate back to bloom.
func TestXorMigrateEndpoint(t *testing.T) {
	ts := newTestServer(t)
	doJSON(t, "POST", ts.URL+"/v1/filters",
		map[string]any{"name": "xr", "kind": "bloom", "mbits": 4 << 20}, http.StatusCreated)

	keys := make([]uint32, 20_000)
	for i := range keys {
		keys[i] = uint32(i + 1)
	}
	resp := postBinary(t, ts.URL+"/v1/filters/xr/insert", keys)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert status %d", resp.StatusCode)
	}
	resp.Body.Close()

	out := doJSON(t, "POST", ts.URL+"/v1/filters/xr/migrate",
		map[string]any{"kind": "xor", "fingerprint_bits": 16, "fuse": true}, http.StatusOK)
	if out["migrated"] != true {
		t.Fatalf("migrate response %v", out)
	}

	stats := doJSON(t, "GET", ts.URL+"/v1/filters/xr", nil, http.StatusOK)
	info := stats["filter"].(map[string]any)
	if info["kind"] != "xor" {
		t.Fatalf("stats kind %v after migration, want xor", info["kind"])
	}
	if _, ok := stats["read_mostly"]; !ok {
		t.Fatal("stats missing the read_mostly verdict")
	}
	if _, ok := stats["window_insert_fraction"]; !ok {
		t.Fatal("stats missing window_insert_fraction")
	}

	// Members must still be selected on the sealed xor generation.
	resp = postBinary(t, ts.URL+"/v1/filters/xr/probe", keys[:1000])
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("probe status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(body) != 4*1000 {
		t.Fatalf("probe selected %d of 1000 members on the xor generation", len(body)/4)
	}

	// Inserts during the xor generation are acknowledged (overflow+log)…
	late := []uint32{900_001, 900_002, 900_003}
	resp = postBinary(t, ts.URL+"/v1/filters/xr/insert", late)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("xor-era insert status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// …and survive the migration back to a mutable family.
	out = doJSON(t, "POST", ts.URL+"/v1/filters/xr/migrate",
		map[string]any{"kind": "bloom", "mbits": 4 << 20}, http.StatusOK)
	if out["migrated"] != true {
		t.Fatalf("migrate-back response %v", out)
	}
	resp = postBinary(t, ts.URL+"/v1/filters/xr/probe", late)
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(body) != 4*len(late) {
		t.Fatalf("xor-era inserts lost: %d of %d selected after migrating back", len(body)/4, len(late))
	}

	// kind "xor" also works at create time (starts in the building phase).
	doJSON(t, "POST", ts.URL+"/v1/filters",
		map[string]any{"name": "xr2", "kind": "xor", "mbits": 1 << 20}, http.StatusCreated)
	list := doJSON(t, "GET", ts.URL+"/v1/filters/xr2", nil, http.StatusOK)
	if list["filter"].(map[string]any)["kind"] != "xor" {
		t.Fatal("created xor filter does not report its kind")
	}
}
