package main

// The control-plane HTTP client: create, stats, /metrics and traces. It
// opens a connection per request, so between phases the generator holds
// no connection besides the workers' batch connections (conn.go).

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{DisableKeepAlives: true, DisableCompression: true}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: requestTimeout}}
}

// do sends one request and reads the whole response body.
func (c *client) do(method, path string, body []byte) (*http.Response, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp, b, err
}

// getJSON decodes a 200 JSON response into out.
func (c *client) getJSON(path string, out any) error {
	resp, body, err := c.do(http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s: %s", path, resp.Status, truncate(body))
	}
	return json.Unmarshal(body, out)
}

func (c *client) info(name string) (filterInfo, error) {
	var fi filterInfo
	err := c.getJSON("/v1/filters/"+name, &fi)
	return fi, err
}

func (c *client) create(name, kind string, mbits uint64) error {
	req, _ := json.Marshal(map[string]any{"name": name, "kind": kind, "mbits": mbits})
	resp, body, err := c.do(http.MethodPost, "/v1/filters", req)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("create %s: %s: %s", name, resp.Status, truncate(body))
	}
	return nil
}

// scrape fetches /metrics as a map from series (name plus labels) to value.
func (c *client) scrape() (map[string]float64, error) {
	resp, body, err := c.do(http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return parseExposition(string(body)), nil
}

func parseExposition(text string) map[string]float64 {
	m := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			m[line[:i]] = v
		}
	}
	return m
}

// encodeKeys writes keys as little-endian uint32s into dst.
func encodeKeys(dst []byte, keys []uint32) []byte {
	dst = dst[:0]
	for _, k := range keys {
		dst = binary.LittleEndian.AppendUint32(dst, k)
	}
	return dst
}
