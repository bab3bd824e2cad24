package server

import (
	"errors"
	"testing"
	"time"

	"hublab/internal/flowctl"
	"hublab/internal/graph"
	"hublab/internal/index/indextest"
	"hublab/internal/sssp"
)

// TestTryQueryBatchMatchesBFS pushes waves through the batched queue
// door and checks every answer against ground truth and against the
// single-query door.
func TestTryQueryBatchMatchesBFS(t *testing.T) {
	g, idx := buildIndex(t, 300, 540, 11)
	truth := sssp.AllPairs(g)
	srv := New(idx, Options{Shards: 4})
	defer srv.Close()
	const batch = 64
	pairs := make([][2]graph.NodeID, batch)
	out := make([]graph.Weight, batch)
	errs := make([]error, batch)
	for round := 0; round < 50; round++ {
		for i := range pairs {
			pairs[i] = [2]graph.NodeID{
				graph.NodeID((round*131 + i*17) % 300),
				graph.NodeID((round*37 + i*101) % 300),
			}
		}
		srv.TryQueryBatch("batch-client", pairs, out, errs)
		for i := range pairs {
			if errs[i] != nil {
				t.Fatalf("round %d slot %d: %v", round, i, errs[i])
			}
			if want := truth[pairs[i][0]][pairs[i][1]]; out[i] != want {
				t.Fatalf("round %d (%d,%d): got %d want %d", round, pairs[i][0], pairs[i][1], out[i], want)
			}
		}
	}
	st := srv.Stats()
	if st.Served != 50*batch {
		t.Errorf("served %d, want %d", st.Served, 50*batch)
	}
	// The wave enters the queues together, so workers must have coalesced
	// well past one query per merge group.
	if st.Batches >= st.Served {
		t.Errorf("no coalescing: %d batches for %d served", st.Batches, st.Served)
	}
}

// TestTryQueryBatchZeroAlloc pins the allocation contract of the
// batched door in steady state.
func TestTryQueryBatchZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops Puts; allocation counts are meaningless")
	}
	_, idx := buildIndex(t, 200, 400, 5)
	srv := New(idx, Options{Shards: 2, Admission: &flowctl.Options{}, QueryTimeout: time.Second})
	defer srv.Close()
	pairs := make([][2]graph.NodeID, 16)
	for i := range pairs {
		pairs[i] = [2]graph.NodeID{graph.NodeID(i), graph.NodeID(199 - i)}
	}
	out := make([]graph.Weight, 16)
	errs := make([]error, 16)
	srv.TryQueryBatch("warm", pairs, out, errs) // warm the pools
	allocs := testing.AllocsPerRun(100, func() {
		srv.TryQueryBatch("warm", pairs, out, errs)
	})
	if allocs != 0 {
		t.Errorf("TryQueryBatch allocates %.1f/op in steady state", allocs)
	}
}

// TestTryQueryBatchSheds checks that the batch door flips a shed coin
// per query, not per frame: with every bucket pumped to 1.0 and
// MaxDrop=1, every slot in the wave answers ErrOverloaded and the
// accounting identity counts each one.
func TestTryQueryBatchSheds(t *testing.T) {
	_, idx := buildIndex(t, 100, 200, 7)
	srv := New(idx, Options{Shards: 2, Admission: &flowctl.Options{MaxDrop: 1, Inc: 1}})
	defer srv.Close()
	srv.AdmissionController().OnQueueFull("flooder")
	if !srv.AdmissionController().Shed("flooder") {
		t.Fatal("controller not saturated")
	}
	pairs := make([][2]graph.NodeID, 32)
	out := make([]graph.Weight, 32)
	errs := make([]error, 32)
	srv.TryQueryBatch("flooder", pairs, out, errs)
	for i := range errs {
		if !errors.Is(errs[i], ErrOverloaded) {
			t.Fatalf("slot %d: %v, want ErrOverloaded", i, errs[i])
		}
		if out[i] != graph.Infinity {
			t.Fatalf("slot %d: shed query carried distance %d", i, out[i])
		}
	}
	if st := srv.Stats(); st.Shed != 32 {
		t.Errorf("Shed = %d, want 32", st.Shed)
	}
	// An innocent client on the same server is untouched.
	srv.TryQueryBatch("polite", pairs[:4], out[:4], errs[:4])
	for i := 0; i < 4; i++ {
		if errs[i] != nil {
			t.Fatalf("polite slot %d: %v", i, errs[i])
		}
	}
}

// TestTryQueryBatchOverflow fills the queues with a stalled backend and
// checks partial waves: rejected slots answer ErrOverloaded while
// admitted slots still complete, and the identity Served + Rejected +
// Shed + Faulted + Timeouts covers every slot submitted.
func TestTryQueryBatchOverflow(t *testing.T) {
	gate := make(chan struct{})
	idx := &indextest.Fixed{N: 1000, Gate: gate}
	srv := New(idx, Options{Shards: 1, QueueDepth: 2})
	pairs := make([][2]graph.NodeID, 16)
	for i := range pairs {
		pairs[i] = [2]graph.NodeID{0, graph.NodeID(i + 1)}
	}
	out := make([]graph.Weight, 16)
	errs := make([]error, 16)
	done := make(chan struct{})
	go func() {
		srv.TryQueryBatch("c", pairs, out, errs)
		close(done)
	}()
	// Let the wave hit the 2-slot queue, then release the backend.
	time.Sleep(50 * time.Millisecond)
	close(gate)
	<-done
	served, rejected := 0, 0
	for i := range errs {
		switch {
		case errs[i] == nil:
			served++
			if want := graph.Weight(i + 1); out[i] != want {
				t.Fatalf("slot %d: got %d want %d", i, out[i], want)
			}
		case errors.Is(errs[i], ErrOverloaded):
			rejected++
		default:
			t.Fatalf("slot %d: unexpected %v", i, errs[i])
		}
	}
	if rejected == 0 {
		t.Error("no slot rejected despite a 2-deep queue and a stalled worker")
	}
	st := srv.Stats()
	if got := st.Served + st.Rejected + st.Shed + st.Faulted + st.Timeouts; got != 16 {
		t.Errorf("identity: %d counted, want 16 (served=%d rejected=%d)", got, st.Served, st.Rejected)
	}
	if int(st.Served) != served || int(st.Rejected) != rejected {
		t.Errorf("stats (%d,%d) disagree with caller view (%d,%d)", st.Served, st.Rejected, served, rejected)
	}
	srv.Close()
}

// TestTryQueryBatchDeadline stalls the backend past the wave deadline
// and checks every admitted slot answers ErrTimeout without the call
// blocking on the stalled worker.
func TestTryQueryBatchDeadline(t *testing.T) {
	gate := make(chan struct{})
	idx := &indextest.Fixed{N: 100, Gate: gate}
	srv := New(idx, Options{Shards: 1, QueueDepth: 64, QueryTimeout: 30 * time.Millisecond})
	pairs := make([][2]graph.NodeID, 8)
	out := make([]graph.Weight, 8)
	errs := make([]error, 8)
	start := time.Now()
	srv.TryQueryBatch("c", pairs, out, errs)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("wave took %v against a 30ms deadline", elapsed)
	}
	for i := range errs {
		if !errors.Is(errs[i], ErrTimeout) {
			t.Fatalf("slot %d: %v, want ErrTimeout", i, errs[i])
		}
	}
	if st := srv.Stats(); st.Timeouts != 8 {
		t.Errorf("Timeouts = %d, want 8", st.Timeouts)
	}
	close(gate)
	srv.Close()
}

// TestTryQueryBatchClosed checks the typed error after Close.
func TestTryQueryBatchClosed(t *testing.T) {
	_, idx := buildIndex(t, 50, 100, 1)
	srv := New(idx, Options{Shards: 1})
	srv.Close()
	pairs := [][2]graph.NodeID{{1, 2}}
	out := make([]graph.Weight, 1)
	errs := make([]error, 1)
	srv.TryQueryBatch("c", pairs, out, errs)
	if !errors.Is(errs[0], ErrClosed) {
		t.Fatalf("after Close: %v, want ErrClosed", errs[0])
	}
}
