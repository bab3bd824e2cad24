package approx

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"testing"
	"testing/quick"

	"hublab/internal/gen"
	"hublab/internal/graph"
	"hublab/internal/hub"
	"hublab/internal/pll"
)

// labelingHash is the SHA-256 of l's expanded-layout container.
func labelingHash(t *testing.T, l *hub.Labeling) string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := l.Freeze().WriteContainer(&buf, hub.ContainerOptions{}); err != nil {
		t.Fatalf("WriteContainer: %v", err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// TestLabelingsGolden pins both constructions' output on the package's
// own fixtures to the hashes recorded before the degree order moved from
// an O(n²) insertion sort to pll's stable "degree" order and SlackPLL's
// prune check moved onto pll.Certified: same permutation, same predicate,
// same bytes.
func TestLabelingsGolden(t *testing.T) {
	gnm, err := gen.Gnm(150, 270, 1)
	if err != nil {
		t.Fatalf("Gnm: %v", err)
	}
	reg, err := gen.RandomRegular(200, 3, 7)
	if err != nil {
		t.Fatalf("RandomRegular: %v", err)
	}
	slack := func(g *graph.Graph) *hub.Labeling {
		l, err := SlackPLL(g, Options{Slack: 2})
		if err != nil {
			t.Fatalf("SlackPLL: %v", err)
		}
		return l
	}
	res, err := Collapse(gnm)
	if err != nil {
		t.Fatalf("Collapse: %v", err)
	}
	for _, tc := range []struct {
		name string
		l    *hub.Labeling
		want string
	}{
		{"slack2/gnm150", slack(gnm), "eb0c1b4e47801ae00a91f08445698a2210a8f1907123b707ba0228d3d3b4069d"},
		{"slack2/reg200", slack(reg), "51dacdc9356ae905d65d7afa95dfe70d342c1fa054d2efb79181c15514b14e70"},
		{"collapse/gnm150", res.Labeling, "3114daf7e0ec559bde1253c331b9ec106106f08137da937a71485aa6fee0ff7c"},
	} {
		if got := labelingHash(t, tc.l); got != tc.want {
			t.Errorf("%s: container hash %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCollapseErrorAtMostTwo(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		g, err := gen.Gnm(150, 270, seed)
		if err != nil {
			t.Fatalf("Gnm: %v", err)
		}
		res, err := Collapse(g)
		if err != nil {
			t.Fatalf("Collapse: %v", err)
		}
		_, maxErr, err := VerifyError(g, res.Labeling)
		if err != nil {
			t.Fatalf("VerifyError: %v", err)
		}
		if maxErr > 2 {
			t.Errorf("seed %d: max error %d exceeds the guaranteed 2", seed, maxErr)
		}
	}
}

// TestCollapseErrorProperty: the +2 guarantee is a theorem of the
// construction; check it across random graphs.
func TestCollapseErrorProperty(t *testing.T) {
	f := func(seed int64) bool {
		n := 10 + int(uint64(seed)%60)
		g, err := gen.Gnm(n, 2*n, seed)
		if err != nil {
			return false
		}
		res, err := Collapse(g)
		if err != nil {
			return false
		}
		_, maxErr, err := VerifyError(g, res.Labeling)
		return err == nil && maxErr <= 2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestCollapseShrinksLabels(t *testing.T) {
	g, err := gen.RandomRegular(300, 3, 5)
	if err != nil {
		t.Fatalf("RandomRegular: %v", err)
	}
	res, err := Collapse(g)
	if err != nil {
		t.Fatalf("Collapse: %v", err)
	}
	if res.ApproxAvg >= res.ExactAvg {
		t.Errorf("collapsed labels (%.1f) not smaller than exact (%.1f)", res.ApproxAvg, res.ExactAvg)
	}
	// The dominating set must actually dominate.
	dominated := make([]bool, g.NumNodes())
	for _, r := range res.Dominators {
		dominated[r] = true
		for _, u := range g.Neighbors(r) {
			dominated[u] = true
		}
	}
	for v, ok := range dominated {
		if !ok {
			t.Errorf("vertex %d not dominated", v)
		}
	}
}

func TestCollapseRejectsWeighted(t *testing.T) {
	b := graph.NewBuilder(3, 2)
	b.AddWeightedEdge(0, 1, 4)
	wg, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if _, err := Collapse(wg); !errors.Is(err, ErrBadParam) {
		t.Errorf("weighted err = %v, want ErrBadParam", err)
	}
}

func TestSlackPLLRejectsBadInput(t *testing.T) {
	g, err := gen.Path(5)
	if err != nil {
		t.Fatalf("Path: %v", err)
	}
	if _, err := SlackPLL(g, Options{Slack: 0}); !errors.Is(err, ErrBadParam) {
		t.Errorf("slack 0 err = %v, want ErrBadParam", err)
	}
	// du ≤ n-1 = 4 here: the largest slack that keeps du+Slack below
	// Infinity is accepted, the next one is refused.
	if _, err := SlackPLL(g, Options{Slack: graph.Infinity - 6}); err != nil {
		t.Errorf("slack Infinity-6 on 5 vertices: %v", err)
	}
	if _, err := SlackPLL(g, Options{Slack: graph.Infinity - 5}); !errors.Is(err, ErrBadParam) {
		t.Errorf("slack Infinity-5 on 5 vertices err = %v, want ErrBadParam", err)
	}
	b := graph.NewBuilder(3, 2)
	b.AddWeightedEdge(0, 1, 4)
	wg, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if _, err := SlackPLL(wg, Options{Slack: 2}); !errors.Is(err, ErrBadParam) {
		t.Errorf("weighted err = %v, want ErrBadParam", err)
	}
}

func TestSlackPLLNeverUnderestimates(t *testing.T) {
	f := func(seed int64) bool {
		n := 10 + int(uint64(seed)%50)
		g, err := gen.Gnm(n, 2*n, seed)
		if err != nil {
			return false
		}
		l, err := SlackPLL(g, Options{Slack: 2})
		if err != nil {
			return false
		}
		_, _, err = VerifyError(g, l)
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestSlackPLLErrorDistribution pins the heuristic's measured behaviour:
// errors can exceed the slack for non-root pairs (this is why Collapse
// exists), but stay bounded on the tested family.
func TestSlackPLLErrorDistribution(t *testing.T) {
	g, err := gen.RandomRegular(200, 3, 7)
	if err != nil {
		t.Fatalf("RandomRegular: %v", err)
	}
	const slack = 2
	l, err := SlackPLL(g, Options{Slack: slack})
	if err != nil {
		t.Fatalf("SlackPLL: %v", err)
	}
	hist, maxErr, err := VerifyError(g, l)
	if err != nil {
		t.Fatalf("VerifyError: %v", err)
	}
	if maxErr > 4*slack {
		t.Errorf("max error %d out of regression band (hist %v)", maxErr, hist)
	}
}

func TestSlackShrinksLabels(t *testing.T) {
	g, err := gen.RandomRegular(300, 3, 5)
	if err != nil {
		t.Fatalf("RandomRegular: %v", err)
	}
	exact, err := pll.Build(g, pll.Options{})
	if err != nil {
		t.Fatalf("pll.Build: %v", err)
	}
	approx2, err := SlackPLL(g, Options{Slack: 2})
	if err != nil {
		t.Fatalf("SlackPLL(2): %v", err)
	}
	approx4, err := SlackPLL(g, Options{Slack: 4})
	if err != nil {
		t.Fatalf("SlackPLL(4): %v", err)
	}
	e, a2, a4 := exact.ComputeStats().Avg, approx2.ComputeStats().Avg, approx4.ComputeStats().Avg
	if a2 >= e {
		t.Errorf("slack-2 labels (%.1f) not smaller than exact (%.1f)", a2, e)
	}
	if a4 > a2 {
		t.Errorf("slack-4 labels (%.1f) larger than slack-2 (%.1f)", a4, a2)
	}
}

func TestCorrectionBits(t *testing.T) {
	if got := CorrectionBits(0, 2); got != 0 {
		t.Errorf("CorrectionBits(0,2) = %v, want 0", got)
	}
	// slack 2 → 2 bits per pair entry (values 0..2), (n-1)/2 pairs per
	// vertex on average.
	if got, want := CorrectionBits(101, 2), 50.0*2; got != want {
		t.Errorf("CorrectionBits(101,2) = %v, want %v", got, want)
	}
	if got, want := CorrectionBits(101, 1), 50.0*1; got != want {
		t.Errorf("CorrectionBits(101,1) = %v, want %v", got, want)
	}
}

func TestDisconnectedStaysCorrect(t *testing.T) {
	b := graph.NewBuilder(14, 12)
	for i := 0; i < 6; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
		b.AddEdge(graph.NodeID(7+i), graph.NodeID(7+(i+1)%7))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	l, err := SlackPLL(g, Options{Slack: 2})
	if err != nil {
		t.Fatalf("SlackPLL: %v", err)
	}
	if _, _, err := VerifyError(g, l); err != nil {
		t.Errorf("VerifyError: %v", err)
	}
	res, err := Collapse(g)
	if err != nil {
		t.Fatalf("Collapse: %v", err)
	}
	if _, maxErr, err := VerifyError(g, res.Labeling); err != nil || maxErr > 2 {
		t.Errorf("Collapse on disconnected: maxErr=%d err=%v", maxErr, err)
	}
}
