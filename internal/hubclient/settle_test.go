package hubclient

import (
	"runtime"
	"sync/atomic"
	"testing"

	"hublab/internal/graph"
	"hublab/internal/wire"
)

// settleRound is one race of TestSettleExactlyOnce: two resolutions of
// one call meet at a spin barrier, then each waits its offset before
// resolving.
type settleRound struct {
	cl      *call
	arrived atomic.Int32
	offset  [2]int
}

// settleSinks are the delay loops' side effects, one per racer.
var settleSinks [2]uint64

// TestSettleExactlyOnce races two answers to one call — a primary and
// its hedge both delivering — through call.complete, round after
// round. The two meet at a spin barrier, and one of them then waits an
// offset swept across the rounds, so in some rounds their settles
// overlap however far apart the barrier lets them go. Exactly one must
// win each round: the submission's countdown reaches zero once (one
// token on done), both attempts retire, the winner's answer is the one
// kept, and the loser is counted in lateDrops, exactly once per round.
// This kills mutant M10 — the CompareAndSwap(callPending, callDone) in
// settle split into a load and a store, which lets both answers win, so
// the countdown drops below zero and a late drop goes uncounted.
// Catching that needs two Ps running at once; at GOMAXPROCS 1 the test
// only checks the accounting.
func TestSettleExactlyOnce(t *testing.T) {
	const rounds = 10000
	parallel := runtime.GOMAXPROCS(0) > 1
	c := &Client{}
	var start [2]chan *settleRound
	finished := make(chan struct{}, 2)
	for k := range start {
		start[k] = make(chan *settleRound, 1)
		go func(k int) {
			for r := range start[k] {
				r.arrived.Add(1)
				for r.arrived.Load() < 2 {
					if !parallel {
						runtime.Gosched()
					}
				}
				for i := r.offset[k]; i > 0; i-- {
					settleSinks[k]++
				}
				r.cl.complete(c, wire.Result{Status: wire.StatusOK, Dist: graph.Weight(k + 1)}, k == 1)
				finished <- struct{}{}
			}
		}(k)
	}
	defer func() {
		for _, ch := range start {
			close(ch)
		}
	}()
	for i := 0; i < rounds; i++ {
		sub := newSubmission(make([]call, 1))
		cl := &sub.calls[0]
		cl.attempts.Store(2)
		r := &settleRound{cl: cl}
		r.offset[i%2] = (i / 2) % 64
		start[0] <- r
		start[1] <- r
		<-finished
		<-finished
		if p := sub.pending.Load(); p != 0 {
			t.Fatalf("round %d: countdown at %d, want 0 — the call resolved %d times", i, p, 1-p)
		}
		if n := len(sub.done); n != 1 {
			t.Fatalf("round %d: %d completion tokens, want 1", i, n)
		}
		<-sub.done
		if a := cl.attempts.Load(); a != 0 {
			t.Fatalf("round %d: %d attempts left in flight, want 0", i, a)
		}
		if cl.err != nil || cl.hedgeWon != (cl.res.Dist == 2) {
			t.Fatalf("round %d: kept answer %d (err %v) with hedgeWon %v", i, cl.res.Dist, cl.err, cl.hedgeWon)
		}
		if got := c.lateDrops.Load(); got != uint64(i+1) {
			t.Fatalf("round %d: lateDrops %d, want %d — one loser per round", i, got, i+1)
		}
	}
}
