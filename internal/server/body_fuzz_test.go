package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// fuzzMaxBatch is the batch limit of the fuzzed server: small, so the
// fuzzer reaches bodies over the limit.
const fuzzMaxBatch = 64

// cutBody delivers data and then fails the way net/http's body reader
// does when the client hangs up before its declared Content-Length
// arrived.
type cutBody struct{ r io.Reader }

func (b cutBody) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return n, err
}

// fuzzRequest builds a data-plane request whose Content-Length header
// says declared (a lie whenever it differs from len(data)) and whose body
// is cut short with an error when cut is set.
func fuzzRequest(path string, data []byte, declared int64, cut, asJSON bool) *http.Request {
	var body io.Reader = bytes.NewReader(data)
	if cut {
		body = cutBody{body}
	}
	req := httptest.NewRequest(http.MethodPost, path, body)
	req.ContentLength = declared
	if asJSON {
		req.Header.Set("Content-Type", "application/json")
	}
	return req
}

// FuzzReadKeys drives the batch-plane body decoder, directly and through
// the insert and probe handlers, with arbitrary bodies, lying
// Content-Length headers, truncated bodies and the JSON form. A complete
// binary body whose length is a multiple of 4 and within the batch limit
// must decode to exactly its little-endian keys and be served with 200;
// every other binary body must get a 400. JSON bodies get 200 or 400.
// Nothing may panic.
func FuzzReadKeys(f *testing.F) {
	f.Add([]byte{}, int64(0), false, false)
	f.Add([]byte{1, 0, 0, 0, 2, 0, 0, 0}, int64(8), false, false)
	f.Add([]byte{1, 0, 0, 0, 2}, int64(5), false, false)                              // odd length
	f.Add(make([]byte, fuzzMaxBatch), int64(fuzzMaxBatch), false, false)              // at the limit
	f.Add(make([]byte, fuzzMaxBatch+4), int64(fuzzMaxBatch+4), false, false)          // over the limit
	f.Add([]byte{1, 0, 0, 0}, int64(1<<40), false, false)                             // claims more
	f.Add([]byte{1, 0, 0, 0, 2, 0, 0, 0}, int64(3), false, false)                     // claims less
	f.Add([]byte{1, 0, 0, 0, 2, 0}, int64(8), true, false)                            // truncated
	f.Add([]byte{1, 0, 0, 0}, int64(-1), false, false)                                // unknown length
	f.Add([]byte(`{"keys":[1,2,3]}`), int64(16), false, true)                         // JSON
	f.Add([]byte(`{"keys":[1,`), int64(40), true, true)                               // truncated JSON
	f.Add([]byte(`{"keys":[4294967296]}`), int64(21), false, true)                    // key out of range
	f.Add([]byte(`{"keys":[`+strings.Repeat("1,", 40)+`1]}`), int64(92), false, true) // over the limit

	s := newQuiet(Options{MaxBatchBytes: fuzzMaxBatch})
	h := s.Handler()
	create := httptest.NewRequest(http.MethodPost, "/v1/filters",
		bytes.NewReader([]byte(`{"name":"f","kind":"bloom","mbits":65536,"shards":1}`)))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, create)
	if rec.Code != http.StatusCreated {
		f.Fatalf("create: %d %s", rec.Code, rec.Body)
	}

	f.Fuzz(func(t *testing.T, data []byte, declared int64, cut, asJSON bool) {
		valid := !asJSON && !cut && len(data)%4 == 0 && len(data) <= fuzzMaxBatch

		keys, err := s.readKeys(fuzzRequest("/", data, declared, cut, asJSON), new(probeBuffers))
		switch {
		case valid && err != nil:
			t.Fatalf("valid %d-byte body rejected: %v", len(data), err)
		case valid:
			if len(keys) != len(data)/4 {
				t.Fatalf("decoded %d keys from %d bytes", len(keys), len(data))
			}
			for i, k := range keys {
				if want := binary.LittleEndian.Uint32(data[4*i:]); k != want {
					t.Fatalf("key %d = %#x, want %#x", i, k, want)
				}
			}
		case !asJSON && err == nil:
			t.Fatalf("invalid %d-byte body (cut=%v) accepted", len(data), cut)
		}

		for _, op := range []string{"probe", "insert"} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, fuzzRequest("/v1/filters/f/"+op, data, declared, cut, asJSON))
			switch {
			case valid && rec.Code != http.StatusOK:
				t.Fatalf("%s of a valid %d-byte body: status %d %s", op, len(data), rec.Code, rec.Body)
			case !valid && !asJSON && rec.Code != http.StatusBadRequest:
				t.Fatalf("%s of an invalid %d-byte body (cut=%v): status %d, want 400", op, len(data), cut, rec.Code)
			case asJSON && rec.Code != http.StatusOK && rec.Code != http.StatusBadRequest:
				t.Fatalf("%s of a JSON body: status %d, want 200 or 400", op, rec.Code)
			}
			if !valid {
				continue
			}
			var got int
			if op == "probe" {
				got, _ = strconv.Atoi(rec.Header().Get("X-Probed-Keys"))
			} else {
				var resp struct{ Inserted int }
				json.Unmarshal(rec.Body.Bytes(), &resp)
				got = resp.Inserted
			}
			if got != len(data)/4 {
				t.Fatalf("%s handled %d keys of a %d-byte body", op, got, len(data))
			}
		}
	})
}
