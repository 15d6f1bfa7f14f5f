package main

import (
	"encoding/binary"
	"strconv"
	"strings"
	"testing"
)

// response encodes positions as a binary probe body with matching headers.
func response(n int, pos ...uint32) (probed, selected string, body []byte) {
	body = make([]byte, 4*len(pos))
	for i, p := range pos {
		binary.LittleEndian.PutUint32(body[4*i:], p)
	}
	return strconv.Itoa(n), strconv.Itoa(len(pos)), body
}

// present marks positions 0 and 2 of a 5-key batch as acknowledged keys.
var present = []bool{true, false, true, false, false}

func TestCheckProbeAcceptsValid(t *testing.T) {
	probed, sel, body := response(5, 0, 2, 4)
	_, tally, err := checkProbe(5, present, probed, sel, body, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tally.positives != 3 || tally.falsePos != 1 {
		t.Fatalf("tally %+v, want 3 positives, 1 false positive", tally)
	}
}

func TestCheckProbeFiresOnTamperedResponses(t *testing.T) {
	cases := []struct {
		name, want string
		tamper     func(probed, sel string, body []byte) (string, string, []byte)
	}{
		{"dropped position", "probed negative", func(p, s string, b []byte) (string, string, []byte) {
			// Drop the second selected position (present key 2).
			return p, "2", append(append([]byte{}, b[:4]...), b[8:]...)
		}},
		{"out-of-order position", "strictly increasing", func(p, s string, b []byte) (string, string, []byte) {
			b = append([]byte{}, b...)
			binary.LittleEndian.PutUint32(b[8:], 1) // 0, 2, 1
			return p, s, b
		}},
		{"repeated position", "strictly increasing", func(p, s string, b []byte) (string, string, []byte) {
			b = append([]byte{}, b...)
			binary.LittleEndian.PutUint32(b[8:], 2) // 0, 2, 2
			return p, s, b
		}},
		{"position out of range", "out of range", func(p, s string, b []byte) (string, string, []byte) {
			b = append([]byte{}, b...)
			binary.LittleEndian.PutUint32(b[8:], 5)
			return p, s, b
		}},
		{"short body", "4·X-Selected", func(p, s string, b []byte) (string, string, []byte) {
			return p, s, b[:len(b)-2]
		}},
		{"wrong X-Probed-Keys", "X-Probed-Keys", func(p, s string, b []byte) (string, string, []byte) {
			return "4", s, b
		}},
		{"missing present key", "probed negative", func(p, s string, b []byte) (string, string, []byte) {
			// A response selecting nothing at all.
			return p, "0", nil
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			probed, sel, body := c.tamper(response(5, 0, 2, 4))
			_, _, err := checkProbe(5, present, probed, sel, body, nil)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want one mentioning %q", err, c.want)
			}
		})
	}
}

func TestCheckInsert(t *testing.T) {
	if err := checkInsert(3, []byte(`{"inserted":3,"count":9}`)); err != nil {
		t.Fatal(err)
	}
	for _, body := range []string{`{"inserted":2,"count":9}`, `{"count":9}`, `not json`} {
		if err := checkInsert(3, []byte(body)); err == nil {
			t.Errorf("checkInsert accepted %s", body)
		}
	}
}

func TestCheckFinalInfo(t *testing.T) {
	var start filterInfo
	start.Filter.Kind, start.Filter.Generation, start.Filter.Count = "cuckoo", 1, 10
	end := start
	end.Filter.Count = 30
	if err := checkFinalInfo(start, end, 30); err != nil {
		t.Fatal(err)
	}
	if err := checkFinalInfo(start, end, 29); err == nil {
		t.Error("count mismatch accepted")
	}
	end.Filter.Generation = 2
	if err := checkFinalInfo(start, end, 30); err == nil {
		t.Error("generation change accepted")
	}
	end.Filter.Generation, end.Filter.Kind = 1, "bloom"
	if err := checkFinalInfo(start, end, 30); err == nil {
		t.Error("kind change accepted")
	}
}

func TestCheckFPR(t *testing.T) {
	const n = 1 << 20
	if err := checkFPR(35, n, 3e-5); err != nil { // mean 31.5
		t.Fatal(err)
	}
	if err := checkFPR(150, n, 3e-5); err == nil {
		t.Error("4.7x the model accepted")
	}
	if err := checkFPR(1, n, 1e-12); err != nil {
		t.Errorf("a single false positive against a negligible model failed: %v", err)
	}
}

func TestCounters(t *testing.T) {
	metrics := strings.Join([]string{
		`perfilter_server_filter_probe_keys_total{filter="a"} 100`,
		`perfilter_server_filter_probe_keys_total{filter="b"} 7`,
		`perfilter_server_filter_probe_positives_total{filter="a"} 60`,
		`perfilter_server_filter_insert_keys_total{filter="a"} 50`,
	}, "\n")
	got := filterCountersFrom(parseExposition(metrics), "a")
	if err := checkCounters(got, filterCounters{100, 60, 50}); err != nil {
		t.Fatal(err)
	}
	if err := checkCounters(got, filterCounters{100, 61, 50}); err == nil {
		t.Error("positives mismatch accepted")
	}
}

func TestPermIsInjectiveOnASample(t *testing.T) {
	p := newPerm(7)
	seen := make(map[uint32]bool, 1<<16)
	for _, base := range []uint32{presentBase, absentBase, fprBase} {
		for i := uint32(0); i < 1<<14; i++ {
			k := p.key(base + i)
			if seen[k] {
				t.Fatalf("key %d repeats", k)
			}
			seen[k] = true
		}
	}
}

func TestProbeBatchIsHalfPresent(t *testing.T) {
	p, r := newPerm(1), rng{s: 1}
	keys, pres := make([]uint32, 64), make([]bool, 64)
	probeBatch(p, &r, keys, pres, 1000)
	n := 0
	for _, b := range pres {
		if b {
			n++
		}
	}
	if n != 32 {
		t.Fatalf("%d present keys, want 32", n)
	}
}
