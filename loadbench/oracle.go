package main

// The output oracle: every response the benchmark receives is checked
// against what the benchmark knows it sent. Each check is a pure function
// so the tests can feed it tampered responses.

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"sync"
)

// probeTally is what one checked probe response contributes to the run.
type probeTally struct {
	positives int // selected positions (X-Selected)
	falsePos  int // selected positions holding absent keys
}

// checkProbe validates one binary probe response for a batch of n keys,
// present[i] marking the positions that hold acknowledged keys: the
// headers and body pass decodeSelection and the positions checkPositions.
func checkProbe(n int, present []bool, probedHdr, selectedHdr string, body []byte, pos []uint32) ([]uint32, probeTally, error) {
	pos, err := decodeSelection(n, probedHdr, selectedHdr, body, pos)
	if err != nil {
		return pos, probeTally{}, err
	}
	t, err := checkPositions(n, present, pos)
	return pos, t, err
}

// decodeSelection checks that X-Probed-Keys equals n and the body is
// exactly 4·X-Selected bytes, and decodes the positions into pos.
func decodeSelection(n int, probedHdr, selectedHdr string, body []byte, pos []uint32) ([]uint32, error) {
	probed, err := strconv.Atoi(probedHdr)
	if err != nil || probed != n {
		return pos, fmt.Errorf("X-Probed-Keys %q, want %d", probedHdr, n)
	}
	selected, err := strconv.Atoi(selectedHdr)
	if err != nil || selected < 0 {
		return pos, fmt.Errorf("bad X-Selected %q", selectedHdr)
	}
	if len(body) != 4*selected {
		return pos, fmt.Errorf("body is %d bytes, want 4·X-Selected = %d", len(body), 4*selected)
	}
	pos = pos[:0]
	for i := 0; i < selected; i++ {
		pos = append(pos, binary.LittleEndian.Uint32(body[4*i:]))
	}
	return pos, nil
}

// checkPositions validates a selection vector for a batch of n keys: the
// positions are strictly increasing and below n, and every present
// position is selected.
func checkPositions(n int, present []bool, pos []uint32) (probeTally, error) {
	t := probeTally{positives: len(pos)}
	next := 0 // first position not yet accounted for
	for _, p32 := range pos {
		p := int(p32)
		if p >= n {
			return t, fmt.Errorf("position %d out of range for a %d-key batch", p, n)
		}
		if p < next {
			return t, fmt.Errorf("position %d not strictly increasing (after %d)", p, next-1)
		}
		for ; next < p; next++ {
			if present[next] {
				return t, fmt.Errorf("present key at position %d probed negative", next)
			}
		}
		if !present[p] {
			t.falsePos++
		}
		next = p + 1
	}
	for ; next < n; next++ {
		if present[next] {
			return t, fmt.Errorf("present key at position %d probed negative", next)
		}
	}
	return t, nil
}

// checkInsert validates an insert response: every key of the batch was
// inserted.
func checkInsert(n int, body []byte) error {
	var resp struct {
		Inserted *int `json:"inserted"`
	}
	if err := json.Unmarshal(body, &resp); err != nil || resp.Inserted == nil {
		return fmt.Errorf("bad insert response %q", truncate(body))
	}
	if *resp.Inserted != n {
		return fmt.Errorf("inserted %d of a %d-key batch", *resp.Inserted, n)
	}
	return nil
}

// filterInfo is the part of GET /v1/filters/{name} the benchmark reads.
type filterInfo struct {
	Filter struct {
		Kind       string  `json:"kind"`
		SizeBits   uint64  `json:"size_bits"`
		Shards     int     `json:"shards"`
		Count      uint64  `json:"count"`
		Generation uint64  `json:"generation"`
		FPR        float64 `json:"fpr_at_count"`
	} `json:"filter"`
	KeyLogBits uint64 `json:"key_log_bits"`
}

// checkFinalInfo validates the filter's state after a run against its
// state at the start: same kind and generation, and a count equal to the
// number of distinct acknowledged keys.
func checkFinalInfo(start, end filterInfo, acked uint64) error {
	if end.Filter.Kind != start.Filter.Kind || end.Filter.Generation != start.Filter.Generation {
		return fmt.Errorf("filter changed during the run: kind %s→%s, generation %d→%d",
			start.Filter.Kind, end.Filter.Kind, start.Filter.Generation, end.Filter.Generation)
	}
	if end.Filter.Count != acked {
		return fmt.Errorf("count %d, want %d acknowledged keys", end.Filter.Count, acked)
	}
	return nil
}

// fprLimit is the most false positives n absent probes may return against
// a filter whose model predicts rate f: the mean at twice the model (the
// slack the repository's own FPR test allows) plus five standard
// deviations and a constant, so binomial noise never fails a run.
func fprLimit(n int, f float64) float64 {
	lambda := 2 * float64(n) * f
	return lambda + 5*math.Sqrt(lambda) + 5
}

func checkFPR(falsePos, n int, model float64) error {
	if limit := fprLimit(n, model); float64(falsePos) > limit {
		return fmt.Errorf("%d false positives in %d absent probes exceeds the model bound %.1f (model fpr %.3g)",
			falsePos, n, limit, model)
	}
	return nil
}

// filterCounters are the server's per-filter counters from /metrics.
type filterCounters struct {
	probeKeys, positives, insertKeys uint64
}

// filterCountersFrom reads one filter's data-plane counters from a
// parsed /metrics scrape.
func filterCountersFrom(m map[string]float64, filter string) filterCounters {
	label := `{filter="` + filter + `"}`
	return filterCounters{
		probeKeys:  uint64(m["perfilter_server_filter_probe_keys_total"+label]),
		positives:  uint64(m["perfilter_server_filter_probe_positives_total"+label]),
		insertKeys: uint64(m["perfilter_server_filter_insert_keys_total"+label]),
	}
}

// checkCounters compares the server's counters with the client's tallies;
// they must agree exactly.
func checkCounters(server, client filterCounters) error {
	if server != client {
		return fmt.Errorf("server counters probe_keys=%d positives=%d insert_keys=%d, client counted %d/%d/%d",
			server.probeKeys, server.positives, server.insertKeys,
			client.probeKeys, client.positives, client.insertKeys)
	}
	return nil
}

// violations collects oracle failures from concurrent workers.
type violations struct {
	mu   sync.Mutex
	n    int
	msgs []string
}

func (v *violations) add(err error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.n++
	if len(v.msgs) < 20 {
		v.msgs = append(v.msgs, err.Error())
	}
}

func (v *violations) count() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.n
}

func truncate(b []byte) string {
	if len(b) > 200 {
		b = b[:200]
	}
	return string(b)
}
