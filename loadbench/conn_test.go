package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestBatchConnAgainstNetHTTP round-trips small (Content-Length) and large
// (chunked) bodies over one keep-alive connection to a net/http server.
func TestBatchConnAgainstNetHTTP(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		w.Header().Set("X-Probed-Keys", "7")
		w.Header().Set("X-Selected", "3")
		w.WriteHeader(http.StatusOK)
		for i := 0; i < 2; i++ { // echo twice: large echoes arrive chunked
			w.Write(body)
		}
	}))
	defer srv.Close()
	bc := &batchConn{addr: strings.TrimPrefix(srv.URL, "http://")}
	defer bc.close()
	for _, n := range []int{0, 12, 100 << 10, 12} {
		body := bytes.Repeat([]byte{byte(n)}, n)
		resp, got, err := bc.post("/x", body, nil)
		if err != nil {
			t.Fatalf("%d-byte body: %v", n, err)
		}
		if resp.status != 200 || resp.probed != "7" || resp.selected != "3" {
			t.Fatalf("%d-byte body: response %+v", n, resp)
		}
		if want := append(append([]byte{}, body...), body...); !bytes.Equal(got, want) {
			t.Fatalf("%d-byte body: got %d bytes back, want %d", n, len(got), len(want))
		}
	}
}
