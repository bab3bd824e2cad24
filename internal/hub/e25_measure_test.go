package hub_test

// The compact-vs-expanded comparison on the Gnm(10k) PLL labeling: the
// resident-bytes bar (always checked) and a manual A/B premium
// measurement for E25, which alternates timed rounds of the expanded
// and compact batched kernels so thermal drift hits both sides
// equally. Run the measurement with:
//
//	E25_MEASURE=1 go test -run TestE25PremiumMeasure -v ./internal/hub/
import (
	"math/rand"
	"os"
	"sync"
	"testing"
	"time"

	"hublab/internal/gen"
	"hublab/internal/graph"
	"hublab/internal/hub"
	"hublab/internal/pll"
)

var measure10k struct {
	once  sync.Once
	c     *hub.CompactLabeling
	f     *hub.FlatLabeling
	pairs [][2]graph.NodeID
	err   error
}

func measureFixture(t testing.TB) (*hub.FlatLabeling, *hub.CompactLabeling, [][2]graph.NodeID) {
	t.Helper()
	measure10k.once.Do(func() {
		g, err := gen.Gnm(10000, 18000, 17)
		if err != nil {
			measure10k.err = err
			return
		}
		labels, err := pll.Build(g, pll.Options{})
		if err != nil {
			measure10k.err = err
			return
		}
		measure10k.f = labels.Freeze()
		measure10k.c = hub.CompactFromFlat(measure10k.f)
		rng := rand.New(rand.NewSource(5))
		measure10k.pairs = make([][2]graph.NodeID, 1024)
		for i := range measure10k.pairs {
			measure10k.pairs[i] = [2]graph.NodeID{
				graph.NodeID(rng.Intn(10000)), graph.NodeID(rng.Intn(10000))}
		}
	})
	if measure10k.err != nil {
		t.Fatal(measure10k.err)
	}
	return measure10k.f, measure10k.c, measure10k.pairs
}

func TestE25PremiumMeasure(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the Gnm(10k) PLL labeling")
	}
	flat, compact, pairs := measureFixture(t)
	// The compact layout's resident-bytes bar, on the labeling it was set
	// on: a distance-only workload must touch at least 3x fewer bytes
	// than on the expanded columns. Deterministic, so checked every run.
	if r := float64(flat.QueryBytes()) / float64(compact.QueryBytes()); r < 3 {
		t.Fatalf("compact QueryBytes %d vs expanded %d: %.2fx smaller, want >= 3x",
			compact.QueryBytes(), flat.QueryBytes(), r)
	}
	if os.Getenv("E25_MEASURE") == "" {
		return // the timed rounds below are a manual measurement
	}
	out := make([]graph.Weight, len(pairs))
	const rounds = 10
	const reps = 30
	minE, minC := time.Duration(1<<62), time.Duration(1<<62)
	for r := 0; r < rounds; r++ {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			flat.QueryBatch(pairs, out)
		}
		if e := time.Since(t0); e < minE {
			minE = e
		}
		t0 = time.Now()
		for i := 0; i < reps; i++ {
			compact.QueryBatch(pairs, out)
		}
		if c := time.Since(t0); c < minC {
			minC = c
		}
	}
	var ids0, ids1 []graph.NodeID
	var ds0, ds1 []graph.Weight
	minD := time.Duration(1 << 62)
	for r := 0; r < rounds; r++ {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			for _, p := range pairs {
				ids0, ds0 = compact.DecodeRunForTest(p[0], ids0, ds0)
				ids1, ds1 = compact.DecodeRunForTest(p[1], ids1, ds1)
			}
		}
		if d := time.Since(t0); d < minD {
			minD = d
		}
	}
	_ = ids0
	_ = ids1
	perQ := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(reps*len(pairs)) }
	t.Logf("expanded       %6.0f ns/q", perQ(minE))
	t.Logf("decode-only    %6.0f ns/q", perQ(minD))
	t.Logf("compact        %6.0f ns/q  premium %.3f", perQ(minC), float64(minC)/float64(minE))
}
