package server

// Env-gated measured sweep of the shard coalescing bound (batchSize) at
// the merge: it feeds DistanceBatch groups of each size directly, with
// the serving envelope out of the picture, and reports ns/query; sizes
// alternate inside each round so thermal drift hits all candidates
// equally, best round kept. Run with:
//
//	BATCHSIZE_SWEEP=1 go test -count=1 -run TestBatchSizeSweep -v ./internal/server/
//
// Recorded on the reference box (single-core Xeon, gnm 10000/18000,
// best of 6 rounds):
//
//	group=1      3133 ns/q   (scalar fallback)
//	group=2      3161 ns/q   (still below the 3-stream fill)
//	group=3      2345 ns/q   (fills the interleave — best)
//	group=4      2406 ns/q   ┐
//	group=6      2374 ns/q   ├ plateau: the interleave refills
//	group=8      2410 ns/q   ┘ streams continuously anyway
//
// When queues back up, a group is worth 25% per query at size 3 and
// nothing more beyond it — hub.QueryBatch refills its three streams
// continuously, so a size-6 group is just two fills of the same
// pipeline. batchSize stays 3: the smallest size on the plateau, so
// deeper coalescing cannot buy merge throughput but would add queueing
// delay for the requests at the back of the group. The merge alone
// decides it: end to end (64 blocking clients, 2 shards) the group
// factor read 1.00 at every size from 1 to 8, because a blocking door
// hands off sender→receiver before a queue can back up.
import (
	"os"
	"testing"
	"time"

	"hublab/internal/graph"
)

func TestBatchSizeSweep(t *testing.T) {
	if os.Getenv("BATCHSIZE_SWEEP") == "" {
		t.Skip("set BATCHSIZE_SWEEP=1 to run the measured sweep")
	}
	const n = 10000
	_, idx := buildIndex(t, n, 18000, 17)
	sizes := []int{1, 2, 3, 4, 6, 8}
	const rounds = 6
	pairs := make([][2]graph.NodeID, 1024)
	for i := range pairs {
		pairs[i] = [2]graph.NodeID{graph.NodeID((i * 7919) % n), graph.NodeID((i * 104729) % n)}
	}
	out := make([]graph.Weight, len(pairs))
	bestNs := map[int]float64{}
	for r := 0; r < rounds; r++ {
		for _, size := range sizes {
			t0 := time.Now()
			const reps = 20
			for rep := 0; rep < reps; rep++ {
				for off := 0; off < len(pairs); off += size {
					end := off + size
					if end > len(pairs) {
						end = len(pairs)
					}
					idx.DistanceBatch(pairs[off:end], out[off:end])
				}
			}
			ns := float64(time.Since(t0).Nanoseconds()) / float64(reps*len(pairs))
			if bestNs[size] == 0 || ns < bestNs[size] {
				bestNs[size] = ns
			}
		}
	}
	for _, size := range sizes {
		t.Logf("group=%d  %6.0f ns/q", size, bestNs[size])
	}
}
