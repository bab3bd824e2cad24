package pll_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"hublab/internal/gen"
	"hublab/internal/graph"
	"hublab/internal/pll"
)

// buildGolden maps "<fixture>/<order>" to the SHA-256 of the
// expanded-layout container, parent column included, as emitted by the
// builder of the commit before the build kernel was reworked (branch-free
// prune predicate, relaxation-time parents, packed-key assembly sort). PLL's
// output is the canonical hierarchical labeling of its order, so no kernel
// change may move one of these: a differing hash means the predicate or
// the parent rule changed, not just its cost.
var buildGolden = map[string]string{
	"gnm500/degree":          "8c8e10251e7e4798fec653e3e95bc448c75d10f5dea3fa05b3e295f9309a0bbf",
	"gnm500/betweenness":     "8e3ffbc158945ff5e6dce2d7604e914c3146f49ccb3357c59d130d2b7d011c05",
	"road16x16w/degree":      "b134ef30802d763490a191a8393c89703b527d002cd429fdf6af9e7bd45d906d",
	"road16x16w/betweenness": "aaf72104190361d89a4589ad0723b1874f7bea12278adfa975594e55d21fa728",
	"rmat9/degree":           "ceb3f750d27e56d4dcbd2e5f4321401648a72cbdba4dfe45092d6c54fcb20016",
	"rmat9/betweenness":      "3e99981ec5a1a32656158304acad85f3e7096b4e365302c1533e13ecfd11fc59",
}

func TestBuildGoldenHashes(t *testing.T) {
	fixtures := []struct {
		name string
		gen  func() (*graph.Graph, error)
	}{
		{"gnm500", func() (*graph.Graph, error) { return gen.Gnm(500, 900, 17) }},
		{"road16x16w", func() (*graph.Graph, error) { return gen.RoadLike(16, 16, 4, 3) }},
		{"rmat9", func() (*graph.Graph, error) { return gen.RMAT(9, 1500, 3) }},
	}
	for _, fx := range fixtures {
		g, err := fx.gen()
		if err != nil {
			t.Fatalf("%s: %v", fx.name, err)
		}
		for _, order := range []string{"degree", "betweenness"} {
			key := fx.name + "/" + order
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/w%d", key, workers), func(t *testing.T) {
					l, err := pll.Build(g, pll.Options{OrderBy: order, Seed: 1, Workers: workers})
					if err != nil {
						t.Fatalf("Build: %v", err)
					}
					sum := sha256.Sum256(containerBytes(t, l))
					if got := hex.EncodeToString(sum[:]); got != buildGolden[key] {
						t.Errorf("container hash %s, want %s", got, buildGolden[key])
					}
				})
			}
		}
	}
}
