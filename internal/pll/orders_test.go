package pll

import (
	"errors"
	"testing"

	"hublab/internal/gen"
)

func TestGridSeparatorOrderIsPermutation(t *testing.T) {
	for _, tc := range []struct{ rows, cols int }{{1, 1}, {2, 3}, {8, 8}, {7, 13}} {
		order, err := GridSeparatorOrder(tc.rows, tc.cols)
		if err != nil {
			t.Fatalf("GridSeparatorOrder(%d,%d): %v", tc.rows, tc.cols, err)
		}
		n := tc.rows * tc.cols
		if len(order) != n {
			t.Fatalf("(%d,%d): %d vertices, want %d", tc.rows, tc.cols, len(order), n)
		}
		seen := make([]bool, n)
		for _, v := range order {
			if int(v) < 0 || int(v) >= n || seen[v] {
				t.Fatalf("(%d,%d): invalid or repeated vertex %d", tc.rows, tc.cols, v)
			}
			seen[v] = true
		}
	}
	if _, err := GridSeparatorOrder(0, 3); !errors.Is(err, ErrBadOrder) {
		t.Errorf("GridSeparatorOrder(0,3) err = %v, want ErrBadOrder", err)
	}
}

func TestRoadHighwayOrderIsPermutation(t *testing.T) {
	order, err := RoadHighwayOrder(10, 10, 4)
	if err != nil {
		t.Fatalf("RoadHighwayOrder: %v", err)
	}
	if len(order) != 100 {
		t.Fatalf("len = %d, want 100", len(order))
	}
	// The first vertex must be a double-highway intersection.
	r, c := int(order[0])/10, int(order[0])%10
	if r%4 != 0 || c%4 != 0 {
		t.Errorf("first vertex (%d,%d) is not a highway intersection", r, c)
	}
	if _, err := RoadHighwayOrder(5, 5, 0); !errors.Is(err, ErrBadOrder) {
		t.Errorf("period 0 err = %v, want ErrBadOrder", err)
	}
}

// TestSeparatorOrderBeatsDegreeOnGrid is the E12 ablation in miniature:
// the separator order must produce meaningfully smaller labels on a grid.
func TestSeparatorOrderBeatsDegreeOnGrid(t *testing.T) {
	g, err := gen.Grid(16, 16)
	if err != nil {
		t.Fatalf("Grid: %v", err)
	}
	sep, err := GridSeparatorOrder(16, 16)
	if err != nil {
		t.Fatalf("GridSeparatorOrder: %v", err)
	}
	bySep, err := Build(g, Options{Custom: sep})
	if err != nil {
		t.Fatalf("Build(separator): %v", err)
	}
	if err := bySep.VerifyCover(g); err != nil {
		t.Fatalf("separator labeling invalid: %v", err)
	}
	byDeg, err := Build(g, Options{OrderBy: "degree"})
	if err != nil {
		t.Fatalf("Build(degree): %v", err)
	}
	sepAvg := bySep.ComputeStats().Avg
	degAvg := byDeg.ComputeStats().Avg
	if sepAvg >= degAvg {
		t.Errorf("separator order avg %.1f not below degree order avg %.1f", sepAvg, degAvg)
	}
}

func TestHighwayOrderBeatsDegreeOnRoad(t *testing.T) {
	g, err := gen.RoadLike(16, 16, 4, 3)
	if err != nil {
		t.Fatalf("RoadLike: %v", err)
	}
	hwy, err := RoadHighwayOrder(16, 16, 4)
	if err != nil {
		t.Fatalf("RoadHighwayOrder: %v", err)
	}
	byHwy, err := Build(g, Options{Custom: hwy})
	if err != nil {
		t.Fatalf("Build(highway): %v", err)
	}
	if err := byHwy.VerifyCover(g); err != nil {
		t.Fatalf("highway labeling invalid: %v", err)
	}
	byDeg, err := Build(g, Options{OrderBy: "degree"})
	if err != nil {
		t.Fatalf("Build(degree): %v", err)
	}
	if h, d := byHwy.ComputeStats().Avg, byDeg.ComputeStats().Avg; h >= d {
		t.Errorf("highway order avg %.1f not below degree order avg %.1f", h, d)
	}
}

func TestOrdersWorkOnMatchingGraph(t *testing.T) {
	// The custom orders must be valid PLL inputs for the exact graphs they
	// target (dimension mismatch should fail the permutation check).
	g, err := gen.Grid(4, 4)
	if err != nil {
		t.Fatalf("Grid: %v", err)
	}
	order, err := GridSeparatorOrder(5, 5) // wrong size for g
	if err != nil {
		t.Fatalf("GridSeparatorOrder: %v", err)
	}
	if _, err := Build(g, Options{Custom: order}); !errors.Is(err, ErrBadOrder) {
		t.Errorf("mismatched order err = %v, want ErrBadOrder", err)
	}
}
