package pll

import (
	"math/bits"

	"hublab/internal/graph"
	"hublab/internal/hub"
	"hublab/internal/par"
	"hublab/internal/pqueue"
)

// Batched shared-memory parallel PLL.
//
// Roots are processed in rank order, in batches of at most 64 (one bit per
// root in a machine word). Each batch runs three strictly separated
// phases, so no phase ever needs a lock:
//
//  1. Search (parallel): one pruned BFS/Dijkstra per batch root against
//     the snapshot of labels committed by all earlier batches, producing a
//     candidate list (vertex, true distance) per root. Labels are
//     read-only here, so any number of searches run concurrently; every
//     worker owns a reusable scratch (dist arrays, queue, heap), making
//     steady-state allocation ~0.
//  2. Commit (sequential, rank order): each root's candidates are
//     re-checked against the labels its *batch-mates* just committed — the
//     only certificates the snapshot search could not see — and the
//     survivors are appended. The membership of a batch root in a
//     vertex's fresh entries is tracked bit-parallel: commitMask[v] holds
//     one bit per batch root (64 roots per word), and the k-th set bit
//     maps to the k-th entry of the vertex's delta run
//     labels[v][deltaStart[v]:], so a re-check is a mask intersection
//     plus popcount-indexed loads instead of a label merge.
//  3. Parents (parallel): each root's kept entries receive their
//     order-canonical parent (canonicalPred) into slots reserved during
//     commit. The rule is a pure function of the kept set, so the phase
//     parallelizes over roots with no coordination.
//
// Rank-ordered commits make the kept set provably equal to the canonical
// labeling — which is also exactly what the sequential builder emits — so
// the two builders agree byte for byte after Canonicalize. DESIGN.md
// ("Parallel build: the commit-order invariant") gives the argument.

// maxBatch is the widest batch: one root per bit of a uint64.
const maxBatch = 64

// batchSize picks the batch width at a given rank. Early roots search
// nearly the whole graph (the snapshot has almost no labels to prune
// with), so wide early batches would multiply that near-full work per
// batch-mate and hold 64 near-n candidate lists at once; later roots are
// cheap and narrow batches would serialize them. Widths double from 8 as
// rank grows, never below the worker count (no idle workers), never above
// 64.
func batchSize(rank, workers int) int {
	s := maxBatch
	switch {
	case rank < 64:
		s = 8
	case rank < 256:
		s = 16
	case rank < 1024:
		s = 32
	}
	if s < workers {
		s = workers
	}
	if s > maxBatch {
		s = maxBatch
	}
	return s
}

// candidate is a vertex reached un-pruned by a root's snapshot search,
// with its true distance from the root.
type candidate struct {
	v graph.NodeID
	d graph.Weight
}

// keptRef records a committed entry for the parent phase: the vertex, its
// distance, and the slot of parents[v] reserved for the canonical parent.
type keptRef struct {
	v   graph.NodeID
	pos int32
	d   graph.Weight
}

// scratch is one worker's reusable search state. All arrays are n-sized
// and restored to their idle state (Infinity / stamped-out) after each
// search, so a worker allocates nothing after warm-up.
type scratch struct {
	rootDist  []graph.Weight // current root's label, scattered by hub id
	dist      []graph.Weight // tentative distances of the current search
	queue     []graph.NodeID // BFS queue (doubles as the visited list)
	visited   []graph.NodeID // Dijkstra visited list
	heap      *pqueue.IndexedHeap
	predDist  []graph.Weight // kept-entry distances for the parent phase
	predStamp []int32        // stamp[v] == global rank ⇔ v kept by that root
}

func newScratch(n int, weighted bool) *scratch {
	ws := &scratch{
		rootDist:  make([]graph.Weight, n),
		dist:      make([]graph.Weight, n),
		predDist:  make([]graph.Weight, n),
		predStamp: make([]int32, n),
	}
	for i := 0; i < n; i++ {
		ws.rootDist[i] = graph.Infinity
		ws.dist[i] = graph.Infinity
		ws.predStamp[i] = -1
	}
	if weighted {
		ws.heap = pqueue.New(n)
		ws.visited = make([]graph.NodeID, 0, 64)
	}
	ws.queue = make([]graph.NodeID, 0, 64)
	return ws
}

// searchUnweighted runs the pruned BFS for one root against the committed
// snapshot, appending candidates (in nondecreasing distance) to out.
func (ws *scratch) searchUnweighted(g *graph.Graph, root graph.NodeID, labels [][]hub.Hub, out []candidate) []candidate {
	for _, h := range labels[root] {
		ws.rootDist[h.Node] = h.Dist
	}
	ws.dist[root] = 0
	ws.queue = append(ws.queue[:0], root)
	for qi := 0; qi < len(ws.queue); qi++ {
		u := ws.queue[qi]
		du := ws.dist[u]
		if Certified(labels[u], ws.rootDist, du) {
			continue
		}
		out = append(out, candidate{v: u, d: du})
		for _, v := range g.Neighbors(u) {
			if ws.dist[v] == graph.Infinity {
				ws.dist[v] = du + 1
				ws.queue = append(ws.queue, v)
			}
		}
	}
	for _, h := range labels[root] {
		ws.rootDist[h.Node] = graph.Infinity
	}
	for _, v := range ws.queue {
		ws.dist[v] = graph.Infinity
	}
	return out
}

// searchWeighted is the pruned-Dijkstra twin of searchUnweighted.
func (ws *scratch) searchWeighted(g *graph.Graph, root graph.NodeID, labels [][]hub.Hub, out []candidate) []candidate {
	for _, e := range labels[root] {
		ws.rootDist[e.Node] = e.Dist
	}
	ws.dist[root] = 0
	ws.visited = append(ws.visited[:0], root)
	h := ws.heap
	h.Reset()
	h.Push(root, 0)
	for h.Len() > 0 {
		u, du := h.Pop()
		if du > ws.dist[u] {
			continue
		}
		if Certified(labels[u], ws.rootDist, du) {
			continue
		}
		out = append(out, candidate{v: u, d: du})
		wsl := g.NeighborWeights(u)
		for i, v := range g.Neighbors(u) {
			w := graph.Weight(1)
			if wsl != nil {
				w = wsl[i]
			}
			if nd := du + w; nd < ws.dist[v] {
				if ws.dist[v] == graph.Infinity {
					ws.visited = append(ws.visited, v)
				}
				ws.dist[v] = nd
				h.Push(v, nd)
			}
		}
	}
	for _, e := range labels[root] {
		ws.rootDist[e.Node] = graph.Infinity
	}
	for _, v := range ws.visited {
		ws.dist[v] = graph.Infinity
	}
	return out
}

// assignPreds fills the reserved parent slots of one root's kept entries
// with their order-canonical parent. cur is the root's global rank — used
// as the stamp value, it never collides across roots, so the stamp array
// needs no clearing.
func (ws *scratch) assignPreds(g *graph.Graph, root graph.NodeID, kept []keptRef, cur int32, parents [][]graph.NodeID) {
	for _, k := range kept {
		ws.predStamp[k.v] = cur
		ws.predDist[k.v] = k.d
	}
	for _, k := range kept {
		if k.v == root {
			continue // self entry: the reserved slot already holds -1
		}
		parents[k.v][k.pos] = canonicalPred(g, k.v, k.d, ws.predDist, ws.predStamp, cur)
	}
}

// buildParallel is the batched engine behind Build for Workers ≥ 2. It
// returns raw (labels, parents) slices whose canonicalized form is
// byte-identical to buildSequential's for the same order.
func buildParallel(g *graph.Graph, order []graph.NodeID, workers int, progress func(Progress)) ([][]hub.Hub, [][]graph.NodeID) {
	n := g.NumNodes()
	labels := make([][]hub.Hub, n)
	parents := make([][]graph.NodeID, n)
	if n == 0 {
		return labels, parents
	}
	weighted := g.Weighted()
	if workers > n {
		workers = n
	}

	// Per-vertex commit tracking. epoch guards commitMask/deltaStart so
	// neither needs clearing between batches.
	epoch := make([]int32, n)
	deltaStart := make([]int32, n)
	commitMask := make([]uint64, n)
	for i := range epoch {
		epoch[i] = -1
	}

	// Worker scratches live in a channel; a phase task borrows one for its
	// duration. At most `workers` tasks run at once, so the channel never
	// blocks a running worker.
	pool := make(chan *scratch, workers)
	for i := 0; i < workers; i++ {
		pool <- newScratch(n, weighted)
	}

	cands := make([][]candidate, maxBatch)
	kept := make([][]keptRef, maxBatch)
	var total int64
	curEpoch := int32(-1)

	for start := 0; start < n; {
		size := batchSize(start, workers)
		if start+size > n {
			size = n - start
		}
		batch := order[start : start+size]
		curEpoch++

		// Phase 1 — snapshot searches, in parallel. labels is read-only
		// until every search of the batch has returned.
		par.ForN(workers, size, func(j int) {
			ws := <-pool
			defer func() { pool <- ws }()
			if weighted {
				cands[j] = ws.searchWeighted(g, batch[j], labels, cands[j][:0])
			} else {
				cands[j] = ws.searchUnweighted(g, batch[j], labels, cands[j][:0])
			}
		})

		// Phase 2 — rank-ordered commits with the bit-parallel intra-batch
		// re-check. Single goroutine; this is the only code that mutates
		// labels/parents structure.
		for j, rj := range batch {
			// Distances from each earlier batch-mate to this root, read off
			// this root's own delta run: the k-th set bit of commitMask[rj]
			// is the batch-mate whose entry is the k-th of the delta.
			var rd [maxBatch]graph.Weight
			var rdMask uint64
			if epoch[rj] == curEpoch {
				cm := commitMask[rj]
				base := int(deltaStart[rj])
				k := 0
				for mm := cm; mm != 0; mm &= mm - 1 {
					i := bits.TrailingZeros64(mm)
					rd[i] = labels[rj][base+k].Dist
					rdMask |= uint64(1) << i
					k++
				}
			}
			kj := kept[j][:0]
			for _, c := range cands[j] {
				v, d := c.v, c.d
				if epoch[v] == curEpoch {
					cm := commitMask[v]
					base := int(deltaStart[v])
					drop := false
					for mm := cm & rdMask; mm != 0; mm &= mm - 1 {
						i := bits.TrailingZeros64(mm)
						pos := base + bits.OnesCount64(cm&((uint64(1)<<i)-1))
						if rd[i]+labels[v][pos].Dist <= d {
							drop = true
							break
						}
					}
					if drop {
						continue
					}
				} else {
					epoch[v] = curEpoch
					commitMask[v] = 0
					deltaStart[v] = int32(len(labels[v]))
				}
				labels[v] = append(labels[v], hub.Hub{Node: rj, Dist: d})
				parents[v] = append(parents[v], -1)
				commitMask[v] |= uint64(1) << uint(j)
				kj = append(kj, keptRef{v: v, pos: int32(len(parents[v]) - 1), d: d})
			}
			kept[j] = kj
			total += int64(len(kj))
		}

		// Phase 3 — canonical parents, in parallel. Every task writes only
		// the slots reserved for its own root during commit.
		base := start
		par.ForN(workers, size, func(j int) {
			ws := <-pool
			defer func() { pool <- ws }()
			ws.assignPreds(g, batch[j], kept[j], int32(base+j), parents)
		})

		start += size
		if progress != nil {
			progress(Progress{RootsDone: start, Roots: n, Labels: total})
		}
	}
	return labels, parents
}
