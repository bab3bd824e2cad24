// Package oracle frames the paper's Section 1 discussion of centralized
// distance oracles: data structures using space S answering exact queries
// in time T, with the conjectured barrier S·T = Õ(n²) for sparse graphs.
// The three concrete points on the curve — the full distance matrix
// (S = n², T = O(1)), hub labels (S = Σ|S(v)|, T = |S(u)|+|S(v)|), and
// plain bidirectional search (S = O(m), T = Õ(m)) — are implemented as
// registered backends of internal/index; this package keeps the paper-
// facing names and builds the cross-checked S·T table.
package oracle

import (
	"fmt"

	"hublab/internal/graph"
	"hublab/internal/index"
)

// ErrTooLarge reports inputs beyond an implementation's size limit.
var ErrTooLarge = index.ErrTooLarge

// Oracle answers exact distance queries over a fixed graph. It is the
// index.Index interface under the paper's name.
type Oracle = index.Index

// The three tradeoff endpoints, now index backends.
type (
	// Matrix is the S = n² endpoint: the full distance matrix.
	Matrix = index.Matrix
	// Labels is the hub labeling point of the tradeoff.
	Labels = index.HubLabels
	// Search is the S = O(m) endpoint: search the stored graph per query.
	Search = index.Search
)

// maxMatrixVertices caps matrix oracles at ~1 GiB.
const maxMatrixVertices = index.MaxMatrixVertices

// NewMatrix precomputes all pairwise distances.
func NewMatrix(g *graph.Graph) (*Matrix, error) { return index.NewMatrix(g) }

// NewLabels builds a PLL-backed oracle.
func NewLabels(g *graph.Graph) (*Labels, error) { return index.NewHubLabels(g) }

// NewSearch wraps the graph.
func NewSearch(g *graph.Graph) *Search { return index.NewSearch(g) }

// TradeoffPoint is one row of the S·T table.
type TradeoffPoint struct {
	Name string
	// SpaceBytes is the oracle's storage.
	SpaceBytes int64
	// AvgQueryOps approximates T: operations touched per query (matrix: 1;
	// labels: average merged label length; search: edges scanned estimate).
	AvgQueryOps float64
	// SpaceTimeProduct = SpaceBytes · AvgQueryOps, the S·T figure.
	SpaceTimeProduct float64
}

// tradeoffKinds fixes the table order: densest to sparsest storage.
var tradeoffKinds = []string{index.KindMatrix, index.KindHubLabels, index.KindSearch}

// Tradeoff builds all three registered oracle backends, cross-checks them
// against each other on sample pairs, and returns the S·T table.
func Tradeoff(g *graph.Graph, samplePairs int) ([]TradeoffPoint, error) {
	n := g.NumNodes()
	if n == 0 {
		return nil, fmt.Errorf("oracle: empty graph")
	}
	if samplePairs <= 0 {
		return nil, fmt.Errorf("oracle: samplePairs must be positive, got %d", samplePairs)
	}
	oracles := make([]Oracle, len(tradeoffKinds))
	for i, kind := range tradeoffKinds {
		o, err := index.Build(kind, g, index.Options{})
		if err != nil {
			return nil, err
		}
		oracles[i] = o
	}
	// Cross-check: all backends must agree with the matrix ground truth.
	truth := oracles[0]
	step := n*n/samplePairs + 1
	for idx := 0; idx < n*n; idx += step {
		u, v := graph.NodeID(idx/n), graph.NodeID(idx%n)
		want := truth.Distance(u, v)
		for _, o := range oracles[1:] {
			if got := o.Distance(u, v); got != want {
				return nil, fmt.Errorf("oracle: %s disagrees with %s on (%d,%d): %d vs %d",
					o.Name(), truth.Name(), u, v, got, want)
			}
		}
	}
	points := make([]TradeoffPoint, len(oracles))
	for i, o := range oracles {
		meta := o.Meta()
		points[i] = TradeoffPoint{
			Name:             o.Name(),
			SpaceBytes:       o.SpaceBytes(),
			AvgQueryOps:      meta.QueryOps,
			SpaceTimeProduct: float64(o.SpaceBytes()) * meta.QueryOps,
		}
	}
	return points, nil
}
