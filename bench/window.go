package main

import (
	"os"
	"sync"
	"time"

	"hublab/internal/graph"
)

// recorder is the account of one phase: per-verb call latencies, the
// queries answered, and the error counts. Nothing in it grows with the
// number of calls.
type recorder struct {
	lat       [3]hist // by verb, nanoseconds per call
	answered  uint64
	attempted uint64
	failed    uint64 // refused, timed out, non-200, transport
	wrong     uint64 // answered, but not the expected answer
}

func (r *recorder) merge(o *recorder) {
	for v := range r.lat {
		r.lat[v].merge(&o.lat[v])
	}
	r.answered += o.answered
	r.addErrors(o)
}

// addErrors adds o's attempt and error counts to r's: a refusal counts
// against the run whichever phase met it.
func (r *recorder) addErrors(o *recorder) {
	r.attempted += o.attempted
	r.failed += o.failed
	r.wrong += o.wrong
}

// loop drives one door with one workload's stream.
type loop struct {
	sp      *spec
	fx      *fixture
	d       door
	callers int
	// only, when set, replaces the workload's verb schedule with one verb
	// on every call (the verb probe).
	only *int
}

// verbAt is the verb of call k.
func (lp *loop) verbAt(k int) int {
	if lp.only != nil {
		return *lp.only
	}
	return lp.sp.verbAt(k)
}

// eccVertex is the pool index of call k's vertex when that call is an
// eccentricity call: successive eccentricity calls walk the pool.
func (lp *loop) eccVertex(k int) int {
	if lp.only == nil {
		k /= eccEvery
	}
	return k % len(lp.fx.eccV)
}

// call issues call k of stream st as verb on connection conn, checks the
// answer against the key and records the outcome (latency and block are
// the phase's business). It returns the queries answered.
func (lp *loop) call(st *stream, conn, k, verb int, sc *scratch, rec *recorder) (answered uint64) {
	switch verb {
	case verbDist:
		b := lp.sp.batch
		for i := 0; i < b; i++ {
			sc.idx[i] = st.at(k*b + i)
			sc.pairs[i] = st.pool[sc.idx[i]]
		}
		failed := lp.d.distance(conn, sc.pairs[:b], sc.out[:b])
		rec.attempted += uint64(b)
		rec.failed += uint64(failed)
		if failed == 0 {
			for i := 0; i < b; i++ {
				if sc.out[i] != st.truth[sc.idx[i]] {
					rec.wrong++
				}
			}
		}
		return uint64(b - failed)
	case verbPath:
		i := st.at(k)
		p := st.pool[i]
		var err error
		sc.path, err = lp.d.path(conn, p[0], p[1], sc.path[:0])
		rec.attempted++
		if err != nil {
			rec.failed++
			return 0
		}
		if !pathMatches(lp.fx.g, p[0], p[1], sc.path, st.truth[i]) {
			rec.wrong++
		}
	default:
		i := lp.eccVertex(k)
		ecc, err := lp.d.ecc(conn, lp.fx.eccV[i])
		rec.attempted++
		if err != nil {
			rec.failed++
			return 0
		}
		if ecc != lp.fx.eccTruth[i] {
			rec.wrong++
		}
	}
	return 1
}

// pathMatches reports whether path is a shortest u→v path of the
// expected length (empty exactly when v is unreachable).
func pathMatches(g *graph.Graph, u, v graph.NodeID, path []graph.NodeID, want graph.Weight) bool {
	if want >= graph.Infinity {
		return len(path) == 0
	}
	w, ok := pathWeight(g, u, v, path)
	return ok && w == want
}

// scratch is a caller's reusable call storage.
type scratch struct {
	pairs [][2]graph.NodeID
	out   []graph.Weight
	idx   []int
	path  []graph.NodeID
}

func newScratch(batch int) *scratch {
	return &scratch{pairs: make([][2]graph.NodeID, batch), out: make([]graph.Weight, batch), idx: make([]int, batch)}
}

// phase runs the closed loop: every caller issues its next call the
// moment the previous one returns — callers of a distance oracle wait
// for their answer — taking calls from, from+callers, … of st, until dur
// has passed and the callers together have made at least minCalls
// calls. It returns the merged account, the first call index no caller
// used, and the time until the last caller's last call returned.
func (lp *loop) phase(st *stream, from, minCalls int, dur time.Duration) (*recorder, int, time.Duration) {
	recs := make([]recorder, lp.callers)
	next := make([]int, lp.callers)
	ended := make([]int64, lp.callers)
	perCaller := (minCalls + lp.callers - 1) / lp.callers
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < lp.callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rec, sc := &recs[c], newScratch(lp.sp.batch)
			k, calls := from+c, 0
			var prev int64
			for {
				verb := lp.verbAt(k)
				rec.answered += lp.call(st, c, k, verb, sc, rec)
				now := time.Since(start).Nanoseconds()
				rec.lat[verb].add(now - prev)
				prev = now
				k += lp.callers
				calls++
				if now >= dur.Nanoseconds() && calls >= perCaller {
					break
				}
			}
			next[c], ended[c] = k, prev
		}(c)
	}
	wg.Wait()
	total := &recorder{}
	end, elapsed := from, int64(1)
	for c := range recs {
		total.merge(&recs[c])
		end = max(end, next[c]-c)
		elapsed = max(elapsed, ended[c])
	}
	return total, end, time.Duration(elapsed)
}

// warmPassCap bounds the warm-up pass: 2^15 queries touch every label of
// the largest fixture several times over (a vertex of gnm10k stays
// untouched with probability e^-6.5), and a full pass over a 2^18 pool
// through the HTTP door would take longer than the measured window.
const warmPassCap = 1 << 15

// The verb probe: where the window's schedule is distance-only, every
// block of the window is followed by a slice of eccentricity calls and
// a slice of path calls from the same callers through the same door, so
// that every workload reports what those verbs cost on its fixture
// under its own concurrency, sampled over the whole window like the
// window's own metrics (a half-second probe after the window read 50 %
// high whenever the box was slow for that one second). Over a window the
// slices make one pass over the eccentricity pool and probePathCalls
// path calls — the same calls in every run where a call takes
// milliseconds — and at least probeBudget of each verb where it takes
// microseconds (an eccentricity call is 27 ms on gnm10k, 15 us on
// rmat14).
const (
	probeBudget    = 500 * time.Millisecond
	probePathCalls = 1 << 12
	minVerbSamples = 8
)

// windowResult is what one measured window yields: one account per
// one-second block, from which the window's metrics are medians, and
// the account of all blocks and verb slices together, which also
// carries the errors of the warm-up.
type windowResult struct {
	blocks     []*recorder
	blockRates []float64 // answered queries per second
	blockCPUus []float64 // process CPU microseconds per answered query
	total      *recorder
	residentMB float64
}

// measure runs warm-up (one pass over the pool, capped, then cfg.warm
// seconds of the stream) and the measured window, block by block.
func (lp *loop) measure(cfg config) (*windowResult, error) {
	st := lp.fx.st
	// The pool in order, whatever the stream's order: under a Zipf order
	// a few hot pairs would decide a path median.
	pass := *st
	pass.order = nil
	res := &windowResult{total: &recorder{}}
	passCalls := min(len(st.pool), warmPassCap) / lp.sp.batch
	warm, next, _ := lp.phase(&pass, 0, passCalls, 0)
	res.total.addErrors(warm)
	warm, next, _ = lp.phase(st, next, 0, secondsDur(cfg.warm))
	res.total.addErrors(warm)

	pids := []int{os.Getpid()}
	if pid := lp.d.childPID(); pid != 0 {
		pids = append(pids, pid)
	}
	// The serving process's memory is read here, warmed up, and not at
	// the window's end: by then the verb slices have made it build the
	// inverted eccentricity lists (60 MB on road64, more than twice the
	// mmapped labels), which a distance server never holds. The first
	// eccentricity call, which builds them, is not timed.
	var err error
	if res.residentMB, err = residentMB(pids[len(pids)-1]); err != nil {
		return nil, err
	}
	var first recorder
	lp.call(&pass, 0, 0, verbEcc, newScratch(lp.sp.batch), &first)
	res.total.addErrors(&first)

	blockDur := secondsDur(cfg.window) / time.Duration(cfg.blocks)
	for b := 0; b < cfg.blocks; b++ {
		cpu0, err := cpuTotal(pids)
		if err != nil {
			return nil, err
		}
		var rec *recorder
		var took time.Duration
		rec, next, took = lp.phase(st, next, 0, blockDur)
		cpu1, err := cpuTotal(pids)
		if err != nil {
			return nil, err
		}
		res.blocks = append(res.blocks, rec)
		res.total.merge(rec)
		res.blockRates = append(res.blockRates, float64(rec.answered)/took.Seconds())
		res.blockCPUus = append(res.blockCPUus, (cpu1-cpu0)*1e6/float64(max(rec.answered, 1)))
		if !lp.sp.mixed {
			lp.probeSlice(&pass, b, cfg.blocks, res.total)
		}
	}
	// A toy-scale mixed window is too short for its schedule to reach
	// the verbs often enough to take a median of.
	if res.total.lat[verbPath].n < minVerbSamples || res.total.lat[verbEcc].n < minVerbSamples {
		lp.probeSlice(&pass, 0, 1, res.total)
	}
	return res, nil
}

// probeSlice issues slice b of n of the verb probe into rec.
func (lp *loop) probeSlice(st *stream, b, n int, rec *recorder) {
	for _, pr := range [][2]int{{verbEcc, len(lp.fx.eccV)}, {verbPath, probePathCalls}} {
		verb, calls := pr[0], pr[1]
		only := *lp
		only.only = &verb
		r, _, _ := only.phase(st, b*calls/n, (b+1)*calls/n-b*calls/n, probeBudget/time.Duration(n))
		rec.merge(r)
	}
}

func secondsDur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func cpuTotal(pids []int) (float64, error) {
	var sum float64
	for _, pid := range pids {
		s, err := cpuSeconds(pid)
		if err != nil {
			return 0, err
		}
		sum += s
	}
	return sum, nil
}
