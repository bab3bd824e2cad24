package main

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"hublab/internal/gen"
	"hublab/internal/graph"
	"hublab/internal/index"
	"hublab/internal/index/indextest"
	"hublab/internal/server"
	"hublab/internal/wire"
)

// pathTestServer builds a small real hub-labels index (with parent
// column) behind a server.
func pathTestServer(t testing.TB) (*graph.Graph, *server.Server) {
	t.Helper()
	g, err := gen.Gnm(80, 150, 9)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := index.Build(index.KindHubLabels, g, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(idx, server.Options{Shards: 1})
	t.Cleanup(srv.Close)
	return g, srv
}

// TestServeLinesPathAndEcc drives the new verbs through the line door:
// well-formed answers, strict parsing, and range checks.
func TestServeLinesPathAndEcc(t *testing.T) {
	g, srv := pathTestServer(t)
	in := strings.NewReader("PATH 0 7\nECC 3\nPATH 0\nPATH x 7\nECC -1\nPATH 0 99\nECC\nquit\n")
	var out strings.Builder
	if err := serveLines(srv, in, &out, nil); err != nil {
		t.Fatalf("serveLines: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 7 {
		t.Fatalf("got %d lines %q, want 7", len(lines), lines)
	}
	// Line 0: a path from 0 to 7 — validate it against the graph.
	fields := strings.Fields(lines[0])
	if len(fields) < 4 || fields[0] != "path" || fields[1] != "0" || fields[2] != "7" {
		t.Fatalf("path line = %q", lines[0])
	}
	var path []graph.NodeID
	for _, f := range fields[3:] {
		x, err := strconv.Atoi(f)
		if err != nil {
			t.Fatalf("path line has non-integer %q", f)
		}
		path = append(path, graph.NodeID(x))
	}
	d, err := srv.TryQuery("t", 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if msg := indextest.CheckPath(g, 0, 7, path, d); msg != "" {
		t.Fatalf("line-door path invalid: %s", msg)
	}
	// Line 1: ecc with farthest; spot-check the distance equation.
	fields = strings.Fields(lines[1])
	if len(fields) != 4 || fields[0] != "ecc" || fields[1] != "3" {
		t.Fatalf("ecc line = %q", lines[1])
	}
	ecc, _ := strconv.Atoi(fields[2])
	far, _ := strconv.Atoi(fields[3])
	if fd, err := srv.TryQuery("t", 3, graph.NodeID(far)); err != nil || int(fd) != ecc {
		t.Fatalf("ecc line inconsistent: d(3,%d)=%d/%v, ecc %d", far, fd, err, ecc)
	}
	for i, want := range []string{
		`error: bad query "PATH 0" (want: PATH u v)`,
		`error: bad query "PATH x 7" (want: PATH u v)`,
		"error: vertex out of range",
		"error: vertex out of range",
		`error: bad query "ECC" (want: ECC v)`,
	} {
		if lines[2+i] != want {
			t.Errorf("line %d = %q, want %q", 2+i, lines[2+i], want)
		}
	}
}

// TestServeLinesUnsupportedVerbs: an index without the capabilities
// answers a clean error line, not a hang or panic.
func TestServeLinesUnsupportedVerbs(t *testing.T) {
	srv := server.New(&indextest.Fixed{N: 10}, server.Options{Shards: 1})
	defer srv.Close()
	in := strings.NewReader("PATH 0 5\nECC 2\nquit\n")
	var out strings.Builder
	if err := serveLines(srv, in, &out, nil); err != nil {
		t.Fatalf("serveLines: %v", err)
	}
	got := strings.Split(strings.TrimSpace(out.String()), "\n")
	want := []string{
		"error: query kind unsupported by the served index",
		"error: query kind unsupported by the served index",
	}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("lines = %q, want %q", got, want)
	}
}

// TestHTTPPathAndEcc exercises the new endpoints: valid answers,
// validation failures, and 501 on capability-less indexes.
func TestHTTPPathAndEcc(t *testing.T) {
	_, srv := pathTestServer(t)
	mux := newMux(srv, nil)
	do := func(url string) *httptest.ResponseRecorder {
		req := httptest.NewRequest("GET", url, nil)
		req.RemoteAddr = "10.0.0.9:1234"
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		return rec
	}
	if rec := do("/path?u=0&v=7"); rec.Code != http.StatusOK ||
		!strings.Contains(rec.Body.String(), `"path":[0,`) {
		t.Errorf("/path = %d %q", rec.Code, rec.Body.String())
	}
	if rec := do("/path?u=0&v=0"); rec.Code != http.StatusOK ||
		!strings.Contains(rec.Body.String(), `"path":[0]`) {
		t.Errorf("/path self = %d %q", rec.Code, rec.Body.String())
	}
	if rec := do("/ecc?v=3"); rec.Code != http.StatusOK ||
		!strings.Contains(rec.Body.String(), `"eccentricity":`) {
		t.Errorf("/ecc = %d %q", rec.Code, rec.Body.String())
	}
	for _, url := range []string{"/path?u=-1&v=3", "/path?u=abc&v=3", "/path?u=0&v=999",
		"/ecc?v=-2", "/ecc?v=abc", "/ecc"} {
		if rec := do(url); rec.Code != http.StatusBadRequest {
			t.Errorf("%s = %d, want 400", url, rec.Code)
		}
	}

	fixed := server.New(&indextest.Fixed{N: 10}, server.Options{Shards: 1})
	defer fixed.Close()
	muxFixed := newMux(fixed, nil)
	for _, url := range []string{"/path?u=0&v=5", "/ecc?v=2"} {
		req := httptest.NewRequest("GET", url, nil)
		req.RemoteAddr = "10.0.0.9:1234"
		rec := httptest.NewRecorder()
		muxFixed.ServeHTTP(rec, req)
		if rec.Code != http.StatusNotImplemented {
			t.Errorf("%s on fixed index = %d, want 501", url, rec.Code)
		}
	}
}

// brokenPaths is a path-capable index whose unpacking always fails — the
// stand-in for an inconsistent parent column that passed structural
// validation.
type brokenPaths struct{ indextest.Fixed }

func (b *brokenPaths) AppendPath(dst []graph.NodeID, u, v graph.NodeID) ([]graph.NodeID, error) {
	return dst, errors.New("synthetic unpack failure")
}

// TestHTTPPathErrorIsNot503: a persistent path-query failure must answer
// 500 (StatusInternal), not masquerade as a 503 shutdown (which load
// balancers would retry forever while /healthz stays green).
func TestHTTPPathErrorIsNot503(t *testing.T) {
	srv := server.New(&brokenPaths{indextest.Fixed{N: 10}}, server.Options{Shards: 1})
	defer srv.Close()
	mux := newMux(srv, nil)
	req := httptest.NewRequest("GET", "/path?u=0&v=5", nil)
	req.RemoteAddr = "10.0.0.9:1234"
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("/path with failing backend = %d, want 500", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), wire.StatusText(wire.StatusInternal)) {
		t.Fatalf("500 body %q is not the StatusInternal text", rec.Body.String())
	}
}
