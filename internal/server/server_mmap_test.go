package server

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hublab/internal/gen"
	"hublab/internal/graph"
	"hublab/internal/hub"
	"hublab/internal/index"
	"hublab/internal/pll"
)

// The mmap lifecycle tests: a served snapshot backed by a memory-mapped
// container must never be unmapped while a query can still touch it, and
// every mapping the server owned must be released by the time Close
// returns. The viewIndex wrapper instruments a real mmap-loaded index
// with refcount hooks — every query entry/exit is counted, and Release
// (the munmap) records any violation it could observe: a release racing
// an in-flight query, a double release, or a query arriving after
// release. The queries also genuinely touch the mapped arrays, so an
// early munmap would crash the test outright.

// alignedContainerPath builds a PLL labeling (with parents) over a small
// Gnm and writes it as an aligned (v3) container.
func alignedContainerPath(tb testing.TB) string {
	tb.Helper()
	g, err := gen.Gnm(150, 280, 11)
	if err != nil {
		tb.Fatal(err)
	}
	l, err := pll.Build(g, pll.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	path := filepath.Join(tb.TempDir(), "view.hli")
	f, err := os.Create(path)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := l.Freeze().WriteContainer(f, hub.ContainerOptions{}); err != nil {
		tb.Fatal(err)
	}
	if err := f.Close(); err != nil {
		tb.Fatal(err)
	}
	return path
}

// viewIndex wraps a view-backed HubLabels with lifecycle instrumentation.
type viewIndex struct {
	x        *index.HubLabels
	gate     <-chan struct{} // optional: holds every Distance open
	started  atomic.Int64
	inFlight atomic.Int64
	released atomic.Bool
	// violations counts every observable lifecycle break; the test
	// asserts it stays zero.
	violations *atomic.Int64
}

func openViewIndex(tb testing.TB, path string, violations *atomic.Int64) *viewIndex {
	tb.Helper()
	x, err := index.LoadMmap(path)
	if err != nil {
		tb.Fatal(err)
	}
	if x.Owned() {
		tb.Fatal("LoadMmap of an aligned container returned an owned index")
	}
	return &viewIndex{x: x, violations: violations}
}

func (w *viewIndex) enter() {
	w.started.Add(1)
	if w.released.Load() {
		w.violations.Add(1)
	}
	w.inFlight.Add(1)
}

func (w *viewIndex) exit() {
	w.inFlight.Add(-1)
	if w.released.Load() {
		w.violations.Add(1)
	}
}

func (w *viewIndex) Distance(u, v graph.NodeID) graph.Weight {
	w.enter()
	defer w.exit()
	if w.gate != nil {
		<-w.gate
	}
	return w.x.Distance(u, v)
}

func (w *viewIndex) DistanceBatch(pairs [][2]graph.NodeID, out []graph.Weight) {
	w.enter()
	defer w.exit()
	w.x.DistanceBatch(pairs, out)
}

func (w *viewIndex) AppendPath(dst []graph.NodeID, u, v graph.NodeID) ([]graph.NodeID, error) {
	w.enter()
	defer w.exit()
	return w.x.AppendPath(dst, u, v)
}

func (w *viewIndex) SpaceBytes() int64 { return w.x.SpaceBytes() }
func (w *viewIndex) Name() string      { return w.x.Name() }
func (w *viewIndex) Meta() index.Meta  { return w.x.Meta() }

// Release implements index.Releaser: the server must call it exactly
// once, with nothing in flight.
func (w *viewIndex) Release() error {
	if w.inFlight.Load() != 0 {
		w.violations.Add(1)
	}
	if w.released.Swap(true) {
		w.violations.Add(1) // double release
	}
	return w.x.Release()
}

var (
	_ index.Index        = (*viewIndex)(nil)
	_ index.Batcher      = (*viewIndex)(nil)
	_ index.PathReporter = (*viewIndex)(nil)
	_ index.Releaser     = (*viewIndex)(nil)
)

// TestSwapRetireReleasesAfterDrain is the deterministic half of the
// lifecycle contract: a SwapRetire while a query is verifiably inside
// the old snapshot must not release it; the release must land after that
// query drains, and Close must release the final snapshot.
func TestSwapRetireReleasesAfterDrain(t *testing.T) {
	path := alignedContainerPath(t)
	var violations atomic.Int64
	gate := make(chan struct{})
	old := openViewIndex(t, path, &violations)
	old.gate = gate
	srv := New(old, Options{Shards: 1, OwnIndex: true})

	done := make(chan graph.Weight, 1)
	go func() {
		d, _ := srv.TryQuery("c", 0, 17)
		done <- d
	}()
	waitFor(t, "query to enter the old snapshot", func() bool { return old.started.Load() == 1 })

	next := openViewIndex(t, path, &violations)
	srv.SwapRetire(next)
	// The old snapshot has a pinned in-flight query: it must not release.
	time.Sleep(20 * time.Millisecond)
	if old.released.Load() {
		t.Fatal("old snapshot released while a query was inside it")
	}
	close(gate)
	d := <-done
	waitFor(t, "old snapshot to release after the drain", func() bool { return old.released.Load() })

	// The new snapshot serves, and Close releases it.
	d2, err := srv.TryQuery("c", 0, 17)
	if err != nil || d2 != d {
		t.Fatalf("after retire: TryQuery = (%d,%v), want (%d,nil)", d2, err, d)
	}
	srv.Close()
	if !next.released.Load() {
		t.Fatal("Close left the owned final snapshot mapped")
	}
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d lifecycle violations", v)
	}
}

// TestMmapSwapRetireUnderLoad is the hammer: many clients stream
// TryQuery/TryPath against view-backed snapshots while a swapper
// replaces the served mapping dozens of times, then the server closes.
// Every answer must match the decode-loaded reference (all snapshots
// serve the same container), no mapping may be released with a query in
// flight, and after Close every mapping the server owned must be
// released exactly once. CI runs this with -race -count=2.
func TestMmapSwapRetireUnderLoad(t *testing.T) {
	path := alignedContainerPath(t)
	ref, err := index.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	n := ref.Meta().Vertices

	var violations atomic.Int64
	var created []*viewIndex
	srv := New(openViewIndexTracked(t, path, &violations, &created), Options{Shards: 4, OwnIndex: true})

	const clients = 8
	stop := make(chan struct{})
	var wrong atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			var buf []graph.NodeID
			for {
				select {
				case <-stop:
					return
				default:
				}
				u := graph.NodeID(rng.Intn(n))
				v := graph.NodeID(rng.Intn(n))
				if d, err := srv.TryQuery("c", u, v); err == nil && d != ref.Distance(u, v) {
					wrong.Add(1)
				}
				var err error
				buf, err = srv.TryPath("c", u, v, buf[:0])
				if err == nil && len(buf) > 0 && (buf[0] != u || buf[len(buf)-1] != v) {
					wrong.Add(1)
				}
			}
		}(c)
	}

	for i := 0; i < 40; i++ {
		srv.SwapRetire(openViewIndexTracked(t, path, &violations, &created))
		time.Sleep(500 * time.Microsecond)
	}
	close(stop)
	wg.Wait()
	srv.Close()

	for i, w := range created {
		if !w.released.Load() {
			t.Errorf("snapshot %d of %d never released: mapping leaked past Close", i, len(created))
		}
	}
	if v := violations.Load(); v != 0 {
		t.Errorf("%d lifecycle violations (release racing queries / double release)", v)
	}
	if w := wrong.Load(); w != 0 {
		t.Errorf("%d answers disagreed with the decode-loaded reference", w)
	}
}

// openViewIndexTracked is openViewIndex plus bookkeeping of every
// wrapper ever installed, so the leak check after Close is exhaustive.
// The slice is only appended from the test goroutine (New and the
// swapper loop), so no lock is needed.
func openViewIndexTracked(t *testing.T, path string, violations *atomic.Int64, created *[]*viewIndex) *viewIndex {
	w := openViewIndex(t, path, violations)
	*created = append(*created, w)
	return w
}

// waitFor polls cond with a deadline, for lifecycle transitions driven
// by other goroutines.
func waitFor(t *testing.T, desc string, cond func() bool) {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for !cond() {
		select {
		case <-deadline:
			t.Fatalf("timed out waiting for %s", desc)
		case <-time.After(time.Millisecond):
		}
	}
}

// TestSwapReleasesOnIdleServer: every shard holds a pin on the snapshot
// its owners serve on, and a swap wakes the workers to move those pins,
// so with no traffic at all after the swap the retired index is still
// released promptly — not at each shard's next query. Both doors are
// checked: SwapRetire releases the index it retires, and a plain Swap
// away from an owned snapshot releases that one.
func TestSwapReleasesOnIdleServer(t *testing.T) {
	path := alignedContainerPath(t)
	var violations atomic.Int64
	first := openViewIndex(t, path, &violations)
	srv := New(first, Options{Shards: 2, OwnIndex: true})
	defer srv.Close()
	// Pin the snapshot on both shards: a wave spreads over the workers,
	// the lone queries serve their callers' shards.
	load := func() {
		pairs := [][2]graph.NodeID{{0, 17}, {3, 40}, {5, 99}, {8, 120}}
		srv.TryQueryBatch("c", pairs, make([]graph.Weight, len(pairs)), make([]error, len(pairs)))
		for _, p := range pairs {
			srv.TryQuery("c", p[0], p[1])
		}
	}
	load()
	second := openViewIndex(t, path, &violations)
	srv.SwapRetire(second)
	waitFor(t, "SwapRetire to release the retired index with no traffic", func() bool { return first.released.Load() })
	load()
	srv.Swap(openViewIndex(t, path, &violations))
	waitFor(t, "Swap to release the owned snapshot it replaced with no traffic", func() bool { return second.released.Load() })
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d lifecycle violations", v)
	}
}

// TestTruncatedMappingFaultsContained: a container truncated under a
// live mapping loses its pages, and the next touch of one raises SIGBUS.
// Whoever serves the group — a worker, or a lone caller serving itself —
// runs it with panic-on-fault, so the fault is a contained backend
// panic: the query resolves ErrBackendFault, the health state goes
// Failed, the accounting identity holds and the process lives on.
func TestTruncatedMappingFaultsContained(t *testing.T) {
	path := alignedContainerPath(t)
	x, err := index.LoadMmap(path)
	if err != nil {
		t.Fatal(err)
	}
	if x.Owned() {
		t.Fatal("LoadMmap of an aligned container returned an owned index")
	}
	n := x.Meta().Vertices
	srv := New(x, Options{Shards: 2, OwnIndex: true})
	defer srv.Close()

	stop := make(chan struct{})
	var submitted, faults, wrong atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			// Caller 0 sends waves, served by the workers; the others
			// send lone queries, served on their own goroutines.
			size := 1
			if c == 0 {
				size = 4
			}
			pairs := make([][2]graph.NodeID, size)
			out, errs := make([]graph.Weight, size), make([]error, size)
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := range pairs {
					pairs[i] = [2]graph.NodeID{graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))}
				}
				if size > 1 {
					srv.TryQueryBatch("c", pairs, out, errs)
				} else {
					out[0], errs[0] = srv.TryQuery("c", pairs[0][0], pairs[0][1])
				}
				submitted.Add(int64(len(pairs)))
				for _, err := range errs {
					switch {
					case err == nil:
					case errors.Is(err, ErrBackendFault):
						faults.Add(1)
					default:
						wrong.Add(1)
					}
				}
			}
		}(c)
	}
	waitFor(t, "traffic before the truncation", func() bool { return submitted.Load() > 200 })
	if err := os.Truncate(path, 0); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "faults after the truncation", func() bool {
		h, _ := srv.Health()
		return faults.Load() > 20 && h == Failed
	})
	close(stop)
	wg.Wait()
	if w := wrong.Load(); w != 0 {
		t.Errorf("%d queries failed with something other than ErrBackendFault", w)
	}
	st := srv.Stats()
	if st.Panics == 0 || st.Faulted < uint64(faults.Load()) {
		t.Errorf("faults not accounted: %+v, %d seen", st, faults.Load())
	}
	if got := st.Served + st.Rejected + st.Shed + st.Faulted + st.Timeouts; got != uint64(submitted.Load()) {
		t.Errorf("accounting identity: %d counted, %d submitted (%+v)", got, submitted.Load(), st)
	}
}
