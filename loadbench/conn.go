package main

// A minimal synchronous HTTP/1.1 keep-alive client for the batch plane.
// Each worker owns one connection and waits for every reply (a closed
// loop), so there is no need for net/http's per-connection goroutines,
// whose CPU the 2-CPU host would otherwise take from the server.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"time"
)

const requestTimeout = 60 * time.Second

// batchConn is one keep-alive connection; it redials after an error.
type batchConn struct {
	addr string // host:port
	c    net.Conn
	br   *bufio.Reader
	hdr  []byte
}

// batchResp is the part of a batch-plane response the oracle reads.
type batchResp struct {
	status           int
	probed, selected string // X-Probed-Keys, X-Selected
}

func (bc *batchConn) close() {
	if bc.c != nil {
		bc.c.Close()
		bc.c = nil
	}
}

// post sends body to path and reads the whole response body into buf.
func (bc *batchConn) post(path string, body, buf []byte) (batchResp, []byte, error) {
	if bc.c == nil {
		c, err := net.Dial("tcp", bc.addr)
		if err != nil {
			return batchResp{}, buf, err
		}
		bc.c, bc.br = c, bufio.NewReaderSize(c, 64<<10)
	}
	bc.hdr = append(bc.hdr[:0], "POST "...)
	bc.hdr = append(bc.hdr, path...)
	bc.hdr = append(bc.hdr, " HTTP/1.1\r\nHost: "...)
	bc.hdr = append(bc.hdr, bc.addr...)
	bc.hdr = append(bc.hdr, "\r\nContent-Type: application/octet-stream\r\nContent-Length: "...)
	bc.hdr = strconv.AppendInt(bc.hdr, int64(len(body)), 10)
	bc.hdr = append(bc.hdr, "\r\n\r\n"...)
	// A hung server fails the request instead of stalling the run.
	if err := bc.c.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		bc.close()
		return batchResp{}, buf, err
	}
	bufs := net.Buffers{bc.hdr, body}
	if _, err := bufs.WriteTo(bc.c); err != nil {
		bc.close()
		return batchResp{}, buf, err
	}
	resp, buf, keep, err := readResponse(bc.br, buf[:0])
	if err != nil || !keep {
		bc.close()
	}
	return resp, buf, err
}

// readResponse parses one HTTP/1.1 response: the status line, the headers
// the benchmark needs, and a Content-Length or chunked body.
func readResponse(br *bufio.Reader, buf []byte) (batchResp, []byte, bool, error) {
	var r batchResp
	line, err := readLine(br)
	if err != nil {
		return r, buf, false, err
	}
	proto, rest, _ := strings.Cut(line, " ")
	code, _, _ := strings.Cut(rest, " ")
	if r.status, err = strconv.Atoi(code); err != nil || !strings.HasPrefix(proto, "HTTP/1.") {
		return r, buf, false, fmt.Errorf("bad status line %q", line)
	}
	length, chunked, keep := -1, false, true
	for {
		line, err := readLine(br)
		if err != nil {
			return r, buf, false, err
		}
		if line == "" {
			break
		}
		k, v, _ := strings.Cut(line, ":")
		v = strings.TrimSpace(v)
		switch strings.ToLower(k) {
		case "content-length":
			if length, err = strconv.Atoi(v); err != nil {
				return r, buf, false, fmt.Errorf("bad Content-Length %q", v)
			}
		case "transfer-encoding":
			chunked = strings.EqualFold(v, "chunked")
		case "connection":
			keep = !strings.EqualFold(v, "close")
		case "x-probed-keys":
			r.probed = v
		case "x-selected":
			r.selected = v
		}
	}
	switch {
	case chunked:
		for {
			line, err := readLine(br)
			if err != nil {
				return r, buf, false, err
			}
			size, err := strconv.ParseInt(strings.TrimSpace(strings.SplitN(line, ";", 2)[0]), 16, 64)
			if err != nil {
				return r, buf, false, fmt.Errorf("bad chunk size %q", line)
			}
			if size == 0 {
				// Trailers, if any, end with a blank line.
				for line != "" {
					if line, err = readLine(br); err != nil {
						return r, buf, false, err
					}
				}
				return r, buf, keep, nil
			}
			if buf, err = readN(br, buf, int(size)); err != nil {
				return r, buf, false, err
			}
			if crlf, err := readLine(br); err != nil || crlf != "" {
				return r, buf, false, errors.New("chunk not terminated by CRLF")
			}
		}
	case length >= 0:
		buf, err = readN(br, buf, length)
		return r, buf, keep && err == nil, err
	default:
		return r, buf, false, errors.New("response has neither Content-Length nor chunked body")
	}
}

func readLine(br *bufio.Reader) (string, error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		return "", err
	}
	return string(bytes.TrimRight(line, "\r\n")), nil
}

// readN appends exactly n bytes from br to buf.
func readN(br *bufio.Reader, buf []byte, n int) ([]byte, error) {
	start := len(buf)
	buf = append(buf, make([]byte, n)...)
	_, err := io.ReadFull(br, buf[start:])
	return buf, err
}
