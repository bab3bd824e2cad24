package main

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hublab/internal/gen"
	"hublab/internal/graph"
	"hublab/internal/hub"
	"hublab/internal/index"
	"hublab/internal/pll"
	"hublab/internal/server"
)

// reloadFixture builds two different aligned containers covering the
// same graph (PLL under two vertex orders: different labels, identical
// exact answers) and returns the serving path primed with the first,
// plus the second for the swap, plus the graph.
func reloadFixture(t *testing.T) (servingPath, nextPath string, g *graph.Graph) {
	t.Helper()
	g, err := gen.Gnm(200, 380, 23)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name, order string) string {
		l, err := pll.Build(g, pll.Options{OrderBy: order, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.Freeze().WriteContainer(f, hub.ContainerOptions{}); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	return write("serving.hli", "degree"), write("next.hli", "random"), g
}

// TestHTTPReload drives the hot-swap door end to end: identical answers
// before and after a reload to a different container of the same graph,
// method and failure handling, and the previous index surviving a bad
// replacement.
func TestHTTPReload(t *testing.T) {
	servingPath, nextPath, g := reloadFixture(t)
	load := func() (*index.HubLabels, error) { return index.LoadMmap(servingPath) }
	idx, err := load()
	if err != nil {
		t.Fatal(err)
	}
	if idx.Owned() {
		t.Fatal("fixture did not produce a view")
	}
	srv := server.New(idx, server.Options{Shards: 2, OwnIndex: true})
	defer srv.Close()
	rl := &reloader{load: load, srv: srv, g: g, selfcheck: 50}
	mux := newMux(srv, rl)

	get := func(url string) (int, string) {
		req := httptest.NewRequest("GET", url, nil)
		req.RemoteAddr = "10.0.0.9:1234"
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		return rec.Code, rec.Body.String()
	}
	post := func(url string) (int, string) {
		req := httptest.NewRequest("POST", url, nil)
		req.RemoteAddr = "10.0.0.9:1234"
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		return rec.Code, rec.Body.String()
	}

	queries := []string{"/distance?u=0&v=17", "/distance?u=3&v=199", "/distance?u=40&v=41"}
	before := make([]string, len(queries))
	for i, q := range queries {
		code, body := get(q)
		if code != 200 {
			t.Fatalf("%s = %d before reload", q, code)
		}
		before[i] = body
	}

	// GET is refused — reload is a state change.
	if code, _ := get("/reload"); code != 405 {
		t.Fatalf("GET /reload = %d, want 405", code)
	}

	// Atomic-rename replacement, then reload: answers must be identical
	// (different labels, same exact metric, pinned by the selfcheck too).
	if err := os.Rename(nextPath, servingPath); err != nil {
		t.Fatal(err)
	}
	code, body := post("/reload")
	if code != 200 || !strings.Contains(body, `"reloaded":true`) {
		t.Fatalf("POST /reload = %d %q", code, body)
	}
	for i, q := range queries {
		if code, got := get(q); code != 200 || got != before[i] {
			t.Fatalf("%s after reload = %d %q, want %q", q, code, got, before[i])
		}
	}

	// A corrupt replacement is rejected with the cause; the previous
	// index keeps serving. The garbage arrives by atomic rename like any
	// replacement must — an in-place overwrite would truncate the inode
	// the live index is mapped from (the exact hazard the rename rule in
	// the docs exists for).
	garbage := filepath.Join(filepath.Dir(servingPath), "garbage.hli")
	if err := os.WriteFile(garbage, []byte("not a container"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(garbage, servingPath); err != nil {
		t.Fatal(err)
	}
	if code, body := post("/reload"); code != 500 || !strings.Contains(body, "reload failed") {
		t.Fatalf("POST /reload on garbage = %d %q, want 500", code, body)
	}
	for i, q := range queries {
		if code, got := get(q); code != 200 || got != before[i] {
			t.Fatalf("%s after failed reload = %d %q, want %q", q, code, got, before[i])
		}
	}
}

// TestReloadCooldownAnswers429: the HTTP door is rate-limited — a
// reload is expensive and unauthenticated, so attempts inside the
// cooldown window bounce with 429 + Retry-After without touching the
// container; the SIGHUP door (rl.reload) bypasses the cooldown.
func TestReloadCooldownAnswers429(t *testing.T) {
	servingPath, _, _ := reloadFixture(t)
	load := func() (*index.HubLabels, error) { return index.LoadMmap(servingPath) }
	idx, err := load()
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(idx, server.Options{Shards: 1, OwnIndex: true})
	defer srv.Close()
	rl := &reloader{load: load, srv: srv, cooldown: time.Hour}
	mux := newMux(srv, rl)

	post := func() *httptest.ResponseRecorder {
		req := httptest.NewRequest("POST", "/reload", nil)
		req.RemoteAddr = "10.0.0.9:1234"
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		return rec
	}
	if rec := post(); rec.Code != 200 {
		t.Fatalf("first POST /reload = %d %q", rec.Code, rec.Body.String())
	}
	rec := post()
	if rec.Code != 429 || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("POST /reload inside cooldown = %d (Retry-After %q), want 429",
			rec.Code, rec.Header().Get("Retry-After"))
	}
	// SIGHUP-equivalent reloads are privileged and exempt.
	if _, err := rl.reload(); err != nil {
		t.Fatalf("SIGHUP reload inside cooldown: %v", err)
	}
}

// TestReloadRejectsVertexMismatch: with a reference graph configured, a
// replacement container covering a different vertex count must be
// refused (and released) rather than swapped in.
func TestReloadRejectsVertexMismatch(t *testing.T) {
	g, err := gen.Gnm(50, 90, 3)
	if err != nil {
		t.Fatal(err)
	}
	small, err := index.Build(index.KindHubLabels, g, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(small, server.Options{Shards: 1})
	defer srv.Close()

	big, err := gen.Gnm(60, 100, 4)
	if err != nil {
		t.Fatal(err)
	}
	rl := &reloader{
		load: func() (*index.HubLabels, error) {
			bigIdx, err := index.Build(index.KindHubLabels, big, index.Options{})
			if err != nil {
				return nil, err
			}
			return bigIdx.(*index.HubLabels), nil
		},
		srv: srv,
		g:   g,
	}
	if _, err := rl.reload(); err == nil {
		t.Fatal("reload accepted a container of the wrong vertex count")
	}
	if n := srv.Meta().Vertices; n != 50 {
		t.Fatalf("served index changed to n=%d after a rejected reload", n)
	}
}

// TestReloadUnderLineProtocol: a SIGHUP-style reload between line
// queries keeps the stream coherent (the vertex bound is re-read per
// line).
func TestReloadUnderLineProtocol(t *testing.T) {
	servingPath, nextPath, _ := reloadFixture(t)
	load := func() (*index.HubLabels, error) { return index.LoadMmap(servingPath) }
	idx, err := load()
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(idx, server.Options{Shards: 1, OwnIndex: true})
	defer srv.Close()
	rl := &reloader{load: load, srv: srv}

	var out1 strings.Builder
	if err := serveLines(srv, strings.NewReader("0 17\nquit\n"), &out1, nil); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(nextPath, servingPath); err != nil {
		t.Fatal(err)
	}
	if _, err := rl.reload(); err != nil {
		t.Fatal(err)
	}
	var out2 strings.Builder
	if err := serveLines(srv, strings.NewReader("0 17\nquit\n"), &out2, nil); err != nil {
		t.Fatal(err)
	}
	if out1.String() != out2.String() {
		t.Fatalf("line answers changed across reload: %q vs %q", out1.String(), out2.String())
	}
}
