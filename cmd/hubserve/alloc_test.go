package main

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"hublab/internal/flowctl"
	"hublab/internal/graph"
	"hublab/internal/index/indextest"
	"hublab/internal/server"
)

// shedServer builds a server whose admission controller deterministically
// sheds every request from "flooder": MaxDrop 1 + Inc 1 means a single
// queue-full observation pins that client's drop probability at 1.
func shedServer(t *testing.T) *server.Server {
	t.Helper()
	srv := server.New(&indextest.Fixed{N: 64}, server.Options{
		Shards:    1,
		Admission: &flowctl.Options{MaxDrop: 1, Inc: 1},
	})
	t.Cleanup(srv.Close)
	srv.AdmissionController().OnQueueFull("flooder")
	if p := srv.AdmissionController().Probability("flooder"); p != 1 {
		t.Fatalf("flooder drop probability %v, want 1", p)
	}
	return srv
}

// TestServeLineShedZeroAlloc pins that rejecting a flooded line-protocol
// query costs the server zero heap allocations: the line is split into a
// stack array (not strings.Fields), the admission verdict comes from the
// lock-free controller, and the BUSY answer is a constant write. A
// per-shed allocation would hand a flooding client a memory-pressure
// lever precisely when the server is trying to shed it.
func TestServeLineShedZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops Puts; allocation counts are meaningless")
	}
	srv := shedServer(t)

	// Prove the path under measurement actually answers BUSY.
	var probe bytes.Buffer
	var pathBuf []graph.NodeID
	serveLine(srv, "flooder", "3 9", &pathBuf, &probe)
	serveLine(srv, "flooder", "PATH 3 9", &pathBuf, &probe)
	serveLine(srv, "flooder", "ECC 3", &pathBuf, &probe)
	if got := probe.String(); got != "BUSY\nBUSY\nBUSY\n" {
		t.Fatalf("flooder answers %q, want three BUSY lines", got)
	}

	w := bufio.NewWriter(io.Discard)
	for _, line := range []string{"3 9", "PATH 3 9", "ECC 3"} {
		allocs := testing.AllocsPerRun(200, func() {
			serveLine(srv, "flooder", line, &pathBuf, w)
			w.Reset(io.Discard)
		})
		if allocs != 0 {
			t.Errorf("shedding %q costs %v allocs/op, want 0", line, allocs)
		}
	}
}

// nullResponseWriter is a ResponseWriter with a persistent header map
// and discarded body, so measured allocations belong to the handler
// under test rather than the recorder.
type nullResponseWriter struct {
	h    http.Header
	code int
}

func (w *nullResponseWriter) Header() http.Header         { return w.h }
func (w *nullResponseWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *nullResponseWriter) WriteHeader(code int)        { w.code = code }

// WriteString matches the io.StringWriter fast path the real
// net/http response writer provides — without it, io.WriteString's
// []byte fallback would charge the measurement a conversion the
// production path never pays.
func (w *nullResponseWriter) WriteString(s string) (int, error) { return len(s), nil }

// TestHTTPShedZeroAlloc pins the 429 path of every HTTP query endpoint
// at zero handler allocations: parameters are parsed straight from
// RawQuery (no url.Values map), the Retry-After and Content-Type
// headers are shared slices, and the body is a constant.
func TestHTTPShedZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops Puts; allocation counts are meaningless")
	}
	srv := shedServer(t)
	mux := newMux(srv, nil)

	for _, target := range []string{"/distance?u=3&v=9", "/path?u=3&v=9", "/ecc?v=3"} {
		r := httptest.NewRequest(http.MethodGet, target, nil)
		r.RemoteAddr = "flooder:9999" // clientID strips the port
		h, _ := mux.Handler(r)

		// Prove the path under measurement actually answers 429.
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		if rec.Code != http.StatusTooManyRequests {
			t.Fatalf("%s: flooder got %d, want 429", target, rec.Code)
		}
		if rec.Header().Get("Retry-After") != "1" {
			t.Fatalf("%s: 429 without Retry-After", target)
		}
		if !strings.Contains(rec.Body.String(), "overloaded") {
			t.Fatalf("%s: 429 body %q", target, rec.Body.String())
		}

		w := &nullResponseWriter{h: make(http.Header)}
		h.ServeHTTP(w, r) // warm the header map once
		allocs := testing.AllocsPerRun(200, func() {
			h.ServeHTTP(w, r)
		})
		if allocs != 0 {
			t.Errorf("shedding %s costs %v allocs/op, want 0", target, allocs)
		}
		if w.code != http.StatusTooManyRequests {
			t.Errorf("%s: measured path answered %d, want 429", target, w.code)
		}
	}
}

// TestQueryParam pins the no-alloc RawQuery parser against the url
// package's answer for the shapes the doors serve, plus the corner
// cases that must fail closed.
func TestQueryParam(t *testing.T) {
	cases := []struct{ raw, key, want string }{
		{"u=3&v=9", "u", "3"},
		{"u=3&v=9", "v", "9"},
		{"v=9", "u", ""},
		{"", "u", ""},
		{"uu=3", "u", ""},
		{"u=", "u", ""},
		{"x=1&u=42", "u", "42"},
		{"u=1&u=2", "u", "1"}, // first wins, same as url.Values.Get
	}
	for _, c := range cases {
		if got := queryParam(c.raw, c.key); got != c.want {
			t.Errorf("queryParam(%q, %q) = %q, want %q", c.raw, c.key, got, c.want)
		}
	}
}
