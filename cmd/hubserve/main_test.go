package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hublab/internal/index/indextest"
	"hublab/internal/server"
)

// TestHTTPDistanceAndValidation pins the HTTP door's answers: valid
// queries, unreachable pairs, and the out-of-range / malformed requests
// that used to reach the index and panic.
func TestHTTPDistanceAndValidation(t *testing.T) {
	srv := server.New(&indextest.Fixed{N: 100}, server.Options{Shards: 1})
	defer srv.Close()
	mux := newMux(srv, nil)
	for _, tc := range []struct {
		url  string
		code int
		body string
	}{
		{"/distance?u=3&v=17", http.StatusOK, `{"u":3,"v":17,"distance":14}`},
		{"/distance?u=0&v=0", http.StatusOK, `{"u":0,"v":0,"distance":0}`},
		{"/distance?u=-1&v=3", http.StatusBadRequest, ""},
		{"/distance?u=3&v=100", http.StatusBadRequest, ""},
		{"/distance?u=99999999&v=3", http.StatusBadRequest, ""},
		{"/distance?u=abc&v=3", http.StatusBadRequest, ""},
		{"/distance?u=3", http.StatusBadRequest, ""},
		{"/healthz", http.StatusOK, "ok"},
	} {
		req := httptest.NewRequest("GET", tc.url, nil)
		req.RemoteAddr = "10.0.0.9:1234"
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		if rec.Code != tc.code {
			t.Errorf("%s: code = %d, want %d", tc.url, rec.Code, tc.code)
		}
		if tc.body != "" && !strings.Contains(rec.Body.String(), tc.body) {
			t.Errorf("%s: body = %q, want %q", tc.url, rec.Body.String(), tc.body)
		}
	}
}

// TestHTTPOverloadAnswers429 saturates a single blocked worker behind a
// depth-1 queue and checks overflow requests get 429 + Retry-After
// instead of blocking the handler (the old door blocked forever).
func TestHTTPOverloadAnswers429(t *testing.T) {
	release := make(chan struct{})
	srv := server.New(&indextest.Fixed{N: 100, Gate: release}, server.Options{Shards: 1, QueueDepth: 1})
	defer srv.Close()
	mux := newMux(srv, nil)
	const attempts = 12
	codes := make(chan int, attempts)
	var retryAfter atomic.Uint64
	var wg sync.WaitGroup
	for i := 0; i < attempts; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := httptest.NewRequest("GET", fmt.Sprintf("/distance?u=0&v=%d", i%100), nil)
			req.RemoteAddr = fmt.Sprintf("10.0.0.%d:999", i)
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, req)
			if rec.Code == http.StatusTooManyRequests && rec.Header().Get("Retry-After") != "" {
				retryAfter.Add(1)
			}
			codes <- rec.Code
		}(i)
	}
	// The worker absorbs one coalesced group (≤3) plus one queue slot;
	// wait for the guaranteed rejections before opening the gate.
	deadline := time.After(10 * time.Second)
	for {
		st := srv.Stats()
		if st.Rejected >= attempts-4 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("stuck at %d rejections, want ≥ %d", st.Rejected, attempts-4)
		case <-time.After(time.Millisecond):
		}
	}
	close(release)
	wg.Wait()
	close(codes)
	var ok, busy int
	for c := range codes {
		switch c {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			busy++
		default:
			t.Errorf("unexpected status %d", c)
		}
	}
	if busy < attempts-4 {
		t.Errorf("%d of %d answered 429, want ≥ %d", busy, attempts, attempts-4)
	}
	if ok+busy != attempts {
		t.Errorf("ok %d + busy %d != %d attempts", ok, busy, attempts)
	}
	if retryAfter.Load() != uint64(busy) {
		t.Errorf("%d of %d 429s carried Retry-After", retryAfter.Load(), busy)
	}
}

// TestHTTPSlowlorisDoesNotBlockHealthz starts the real hubserve
// http.Server (with its per-phase timeouts scaled down) and checks that
// a client stalled mid-header neither blocks /healthz nor holds its
// connection past ReadHeaderTimeout.
func TestHTTPSlowlorisDoesNotBlockHealthz(t *testing.T) {
	srv := server.New(&indextest.Fixed{N: 100}, server.Options{Shards: 1})
	defer srv.Close()
	to := httpTimeouts{
		readHeader: 300 * time.Millisecond,
		read:       500 * time.Millisecond,
		write:      500 * time.Millisecond,
		idle:       500 * time.Millisecond,
	}
	hs := newHTTPServer(srv, nil, "127.0.0.1:0", to)
	ln, err := net.Listen("tcp", hs.Addr)
	if err != nil {
		t.Fatal(err)
	}
	go hs.Serve(ln)
	defer hs.Close()
	addr := ln.Addr().String()

	// The slowloris connection: open, send half a request line, stall.
	stalled, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	if _, err := stalled.Write([]byte("GET /distance?u=0&v=1 HTTP/1.1\r\nHost: x\r\n")); err != nil {
		t.Fatal(err)
	}

	// While it stalls, /healthz must answer promptly.
	hc := &http.Client{Timeout: 2 * time.Second}
	resp, err := hc.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatalf("healthz while slowloris active: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d while slowloris active", resp.StatusCode)
	}

	// And the stalled connection must be torn down by ReadHeaderTimeout,
	// not held forever: draining it must reach EOF (any timeout response
	// the server writes first counts as teardown too) well before the
	// read deadline.
	stalled.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.Copy(io.Discard, stalled); err != nil {
		t.Fatalf("stalled connection not closed after ReadHeaderTimeout (drain err = %v)", err)
	}
}

// TestDefaultTimeoutsConfigured pins that the production HTTP server
// actually carries the anti-slowloris timeouts.
func TestDefaultTimeoutsConfigured(t *testing.T) {
	srv := server.New(&indextest.Fixed{N: 10}, server.Options{Shards: 1})
	defer srv.Close()
	hs := newHTTPServer(srv, nil, ":0", defaultHTTPTimeouts)
	if hs.ReadHeaderTimeout <= 0 || hs.ReadTimeout <= 0 || hs.WriteTimeout <= 0 || hs.IdleTimeout <= 0 {
		t.Fatalf("missing timeouts: header=%v read=%v write=%v idle=%v",
			hs.ReadHeaderTimeout, hs.ReadTimeout, hs.WriteTimeout, hs.IdleTimeout)
	}
}

// TestServeLines drives the line protocol through malformed, hostile
// and valid queries — the out-of-range ones used to panic the process
// inside the index.
func TestServeLines(t *testing.T) {
	srv := server.New(&indextest.Fixed{N: 50}, server.Options{Shards: 1})
	defer srv.Close()
	in := strings.NewReader("3 17\n\nbad line\n1 2 3\n-1 5\n5 50\n0 0\nquit\n9 9\n")
	var out strings.Builder
	if err := serveLines(srv, in, &out, nil); err != nil {
		t.Fatalf("serveLines: %v", err)
	}
	want := []string{
		"3 17 14",
		`error: bad query "bad line" (want: u v)`,
		`error: bad query "1 2 3" (want: u v | PATH u v | ECC v)`,
		"error: vertex out of range",
		"error: vertex out of range",
		"0 0 0",
	}
	got := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(got) != len(want) {
		t.Fatalf("serveLines wrote %d lines %q, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("line %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestServeLinesBusy checks the line door answers BUSY (not a hang, not
// a panic) when the queue is saturated. The saturation is deterministic:
// one filler occupies the worker behind the gate, a second verifiably
// occupies the single queue slot (Stats().Queued), and the worker cannot
// drain it until the gate opens — so every line query must bounce.
func TestServeLinesBusy(t *testing.T) {
	release := make(chan struct{})
	gate := &indextest.Fixed{N: 10, Gate: release}
	srv := server.New(gate, server.Options{Shards: 1, QueueDepth: 1})
	defer srv.Close()
	var wg sync.WaitGroup
	waitFor := func(desc string, cond func() bool) {
		t.Helper()
		deadline := time.After(10 * time.Second)
		for !cond() {
			select {
			case <-deadline:
				close(release)
				wg.Wait()
				t.Fatalf("timed out waiting for %s", desc)
			case <-time.After(time.Millisecond):
			}
		}
	}
	// Filler 1: absorbed alone into a worker group, blocks on the gate.
	wg.Add(1)
	go func() { defer wg.Done(); srv.TryQuery("filler", 0, 1) }()
	waitFor("worker to pick up filler 1", func() bool { return gate.Started.Load() == 1 })
	// Filler 2: takes the single queue slot; the worker is blocked inside
	// its current group, so the slot stays taken until the gate opens.
	wg.Add(1)
	go func() { defer wg.Done(); srv.TryQuery("filler", 0, 1) }()
	waitFor("filler 2 to occupy the queue slot", func() bool { return srv.Stats().Queued == 1 })

	in := strings.NewReader("1 2\n3 4\n5 6\nquit\n")
	var out strings.Builder
	if err := serveLines(srv, in, &out, nil); err != nil {
		t.Fatalf("serveLines: %v", err)
	}
	close(release)
	wg.Wait()
	got := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(got) != 3 {
		t.Fatalf("serveLines wrote %q, want 3 lines", got)
	}
	for i, line := range got {
		if line != "BUSY" {
			t.Errorf("line %d = %q, want BUSY", i, line)
		}
	}
	if st := srv.Stats(); st.Rejected < 3 {
		t.Errorf("Stats.Rejected = %d, want ≥ 3", st.Rejected)
	}
}
