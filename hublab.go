// Package hublab is a library for exact distance queries in sparse graphs
// through hub labeling, reproducing "Hardness of Exact Distance Queries in
// Sparse Graphs Through Hub Labeling" (Kosowski, Uznański, Viennot,
// PODC 2019).
//
// The package re-exports the user-facing API:
//
//   - graphs, builders and generators (Graph, Builder, generator funcs);
//   - hub labelings with exact decoding and cover verification (Labeling),
//     built by pruned landmark labeling (BuildPLL), greedy 2-hop cover
//     (BuildGreedyCover), the sparse-graph scheme of ADKP16/GKU16 flavour
//     (BuildSparseHubs), or the paper's Theorem 4.1 pipeline
//     (BuildTheorem41, BuildTheorem14);
//   - the lower-bound constructions H_{b,ℓ} and G_{b,ℓ} with Lemma 2.2
//     verifiers and the triplet-count certificates (BuildLayered,
//     BuildDegree3);
//   - the Sum-Index reduction of Theorem 1.6 (NewSumIndexProtocol);
//   - bit-measured distance labelings (HubDistanceLabels,
//     EulerTourLabels, CentroidTreeLabels);
//   - the serving pipeline: a unified Index interface with buildable
//     backends (BuildIndex, IndexKinds), persistent index containers
//     (SaveIndex, LoadIndex, WriteContainer, ReadContainerStore) with a
//     constant-extra-memory streaming emission path for large builds
//     (BuildPLLUnfrozen, SaveIndexStreaming), and the
//     sharded in-process query service (NewServer) with non-blocking
//     overload-safe admission (Server.TryQuery, AdmissionOptions,
//     ErrServerOverloaded);
//   - the path-reporting and farthest-point query surface: witness-path
//     unpacking from the labels' parent column (FlatLabeling.AppendPath,
//     IndexPathReporter, Server.TryPath) and exact eccentricities
//     (NewEccIndex, IndexEccentricityReporter, Server.TryEccentricity).
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record.
package hublab

import (
	"io"

	"hublab/internal/approx"
	"hublab/internal/cover"
	"hublab/internal/dlabel"
	"hublab/internal/flowctl"
	"hublab/internal/gen"
	"hublab/internal/graph"
	"hublab/internal/hdim"
	"hublab/internal/hhl"
	"hublab/internal/hub"
	"hublab/internal/hubclient"
	"hublab/internal/index"
	"hublab/internal/lbound"
	"hublab/internal/oracle"
	"hublab/internal/pll"
	"hublab/internal/rs"
	"hublab/internal/server"
	"hublab/internal/sparsehub"
	"hublab/internal/sssp"
	"hublab/internal/sumindex"
	"hublab/internal/ubound"
	"hublab/internal/wire"
)

// Core graph types.
type (
	// Graph is an immutable undirected CSR graph.
	Graph = graph.Graph
	// Builder accumulates edges for a Graph.
	Builder = graph.Builder
	// NodeID identifies a vertex.
	NodeID = graph.NodeID
	// Weight is an edge weight or distance.
	Weight = graph.Weight
	// Edge is an undirected weighted edge.
	Edge = graph.Edge
)

// Infinity is the unreachable-distance sentinel.
const Infinity = graph.Infinity

// NewBuilder returns a graph builder sized for n vertices and m edges.
func NewBuilder(n, m int) *Builder { return graph.NewBuilder(n, m) }

// WriteGraph serializes g in the text format ReadGraph parses.
func WriteGraph(w io.Writer, g *Graph) error { return graph.Write(w, g) }

// ReadGraph parses a graph written by WriteGraph.
func ReadGraph(r io.Reader) (*Graph, error) { return graph.Read(r) }

// ReadGraphDimacs parses a DIMACS shortest-path ".gr" file (the 9th
// Implementation Challenge format) into an undirected Graph, merging
// asymmetric arc pairs at their minimum weight. Malformed input returns
// an error wrapping ErrDimacsFormat, never a panic.
func ReadGraphDimacs(r io.Reader) (*Graph, error) { return graph.ReadGr(r) }

// ErrDimacsFormat reports malformed DIMACS .gr input to ReadGraphDimacs.
var ErrDimacsFormat = graph.ErrGrFormat

// Hub labeling types.
type (
	// Labeling is a hub labeling (2-hop cover) with exact distances. It is
	// the mutable builder form; call Freeze to obtain the immutable flat
	// CSR form (FlatLabeling) used for zero-allocation merge queries. All
	// Build* constructors return labelings that are already frozen, except
	// BuildPLLUnfrozen, which defers freezing so SaveIndexStreaming can
	// emit the container without a second in-memory copy.
	Labeling = hub.Labeling
	// FlatLabeling is the frozen CSR/structure-of-arrays labeling: one
	// contiguous offsets array over parallel hub-id and distance columns,
	// with sentinel-terminated per-vertex runs. Queries on it allocate
	// nothing and it is safe for concurrent use.
	FlatLabeling = hub.FlatLabeling
	// CompactLabeling is the queryable compressed labeling: hubs are
	// frequency-rank remapped and stored as delta-encoded byte columns
	// with escape slots, and every query decodes on the fly — answers
	// are byte-identical to FlatLabeling's at a fraction of the resident
	// bytes. Obtain one with CompactFromFlat, ReadContainerStore or
	// OpenStoreMmap (compact v4 containers).
	CompactLabeling = hub.CompactLabeling
	// LabelStore is the representation-generic query interface both
	// FlatLabeling and CompactLabeling satisfy: distance merges, batched
	// queries, witness paths, eccentricity support, space accounting and
	// container serialization, independent of how labels are stored.
	LabelStore = hub.LabelStore
	// Hub is one label entry.
	Hub = hub.Hub
	// PLLOptions configures BuildPLL (landmark order, worker count,
	// progress callback).
	PLLOptions = pll.Options
	// PLLOrderFunc computes a landmark processing order; register one
	// under a name with RegisterPLLOrder to make it selectable through
	// PLLOptions.OrderBy (and hubgen -order).
	PLLOrderFunc = pll.OrderFunc
	// PLLProgress is the snapshot passed to PLLOptions.Progress during a
	// build (roots processed, labels committed).
	PLLProgress = pll.Progress
	// SparseHubOptions configures BuildSparseHubs.
	SparseHubOptions = sparsehub.Options
	// Theorem41Options configures the upper-bound pipeline.
	Theorem41Options = ubound.Options
	// Theorem41Result carries the pipeline's size decomposition.
	Theorem41Result = ubound.Result
)

// BuildPLL computes a pruned landmark labeling — the standard practical
// hub labeling construction. With PLLOptions.Workers > 1 the batched
// parallel engine runs; its output is byte-identical to the sequential
// build (see "Parallel build: the commit-order invariant" in DESIGN.md).
func BuildPLL(g *Graph, opts PLLOptions) (*Labeling, error) { return pll.Build(g, opts) }

// BuildPLLUnfrozen is BuildPLL without the final Freeze: the returned
// labeling keeps only the mutable per-vertex form, so SaveIndexStreaming
// can emit the container while the build's memory is still the only
// copy. Freeze it (or wrap with NewHubLabelsIndex) before querying at
// scale.
func BuildPLLUnfrozen(g *Graph, opts PLLOptions) (*Labeling, error) {
	return pll.BuildUnfrozen(g, opts)
}

// RegisterPLLOrder adds a named landmark ordering to the registry
// consulted by PLLOptions.OrderBy. Built-ins: degree, betweenness,
// random, natural.
func RegisterPLLOrder(name string, f PLLOrderFunc) error { return pll.RegisterOrder(name, f) }

// PLLOrderNames lists the registered landmark orderings.
func PLLOrderNames() []string { return pll.OrderNames() }

// BuildGreedyCover computes a greedy 2-hop cover (small graphs only).
func BuildGreedyCover(g *Graph) (*Labeling, error) { return cover.Greedy(g) }

// BuildSparseHubs runs the sparse-graph scheme: shared random far hubs,
// near balls, exact fix-ups.
func BuildSparseHubs(g *Graph, opts SparseHubOptions) (*sparsehub.Result, error) {
	return sparsehub.Build(g, opts)
}

// BuildTheorem41 runs the paper's Theorem 4.1 construction on a
// bounded-degree graph.
func BuildTheorem41(g *Graph, opts Theorem41Options) (*Theorem41Result, error) {
	return ubound.Build(g, opts)
}

// BuildTheorem14 runs the Theorem 1.4 pipeline (degree reduction + Theorem
// 4.1 + projection) on a sparse average-degree graph.
func BuildTheorem14(g *Graph, opts Theorem41Options) (*Theorem41Result, error) {
	res, _, err := ubound.BuildForSparse(g, opts)
	return res, err
}

// Lower-bound constructions.
type (
	// LayeredParams selects an H_{b,ℓ}/G_{b,ℓ} instance.
	LayeredParams = lbound.Params
	// LayeredGraph is the weighted layered graph H_{b,ℓ}.
	LayeredGraph = lbound.Layered
	// Degree3Graph is the max-degree-3 expansion G_{b,ℓ}.
	Degree3Graph = lbound.Expanded
	// LowerBoundCertificate is the triplet-count certificate.
	LowerBoundCertificate = lbound.Certificate
)

// BuildLayered constructs H_{b,ℓ}.
func BuildLayered(p LayeredParams) (*LayeredGraph, error) { return lbound.BuildH(p) }

// BuildDegree3 constructs the max-degree-3 expansion G_{b,ℓ}.
func BuildDegree3(p LayeredParams) (*Degree3Graph, error) { return lbound.BuildG(p) }

// FigureOne reproduces the paper's Figure 1 data.
func FigureOne() (*lbound.Figure1, error) { return lbound.FigureOne() }

// Sum-Index protocol (Theorem 1.6).
type (
	// SumIndexInstance is a shared Sum-Index input.
	SumIndexInstance = sumindex.Instance
	// SumIndexProtocol is the graph-based reduction.
	SumIndexProtocol = sumindex.GraphProtocol
)

// NewSumIndexProtocol returns the Theorem 1.6 protocol for parameters
// (b, ℓ), handling strings of length m = (2^(b-1))^ℓ.
func NewSumIndexProtocol(b, l int) (*SumIndexProtocol, error) {
	return sumindex.NewGraphProtocol(b, l)
}

// NewSumIndexInstance wraps a bit string.
func NewSumIndexInstance(bits []bool) SumIndexInstance { return sumindex.NewInstance(bits) }

// Distance labelings with bit accounting.
type (
	// DistanceLabels is a set of binary distance labels with a decoder.
	DistanceLabels = dlabel.Labels
)

// HubDistanceLabels compresses a hub labeling into binary labels.
func HubDistanceLabels(l *Labeling) (*DistanceLabels, error) { return dlabel.HubLabels(l) }

// EulerTourLabels builds the log₂3-per-step distance-vector labels of a
// connected unweighted graph.
func EulerTourLabels(g *Graph) (*DistanceLabels, error) { return dlabel.EulerTour(g) }

// CentroidTreeLabels builds the Θ(log²n)-bit centroid labeling of a tree.
func CentroidTreeLabels(g *Graph) (*Labeling, error) { return dlabel.Centroid(g) }

// Ruzsa–Szemerédi substrate.

// BehrendSet returns a large progression-free subset of [0, n).
func BehrendSet(n int) []int { return rs.BehrendSet(n) }

// Generators.

// GenerateGnm returns a connected sparse uniform random graph.
func GenerateGnm(n, m int, seed int64) (*Graph, error) { return gen.Gnm(n, m, seed) }

// GenerateRandomRegular returns a connected random graph with max degree d.
func GenerateRandomRegular(n, d int, seed int64) (*Graph, error) {
	return gen.RandomRegular(n, d, seed)
}

// GenerateGrid returns the rows×cols grid.
func GenerateGrid(rows, cols int) (*Graph, error) { return gen.Grid(rows, cols) }

// GenerateRoadLike returns a weighted grid with fast highway rows/columns.
func GenerateRoadLike(rows, cols, period int, seed int64) (*Graph, error) {
	return gen.RoadLike(rows, cols, period, seed)
}

// GenerateRandomTree returns a uniform random labelled tree.
func GenerateRandomTree(n int, seed int64) (*Graph, error) { return gen.RandomTree(n, seed) }

// GenerateBalancedBinaryTree returns the complete binary tree with the
// given number of leaves (a power of two) — 2·leaves−1 vertices with
// logarithmic hub labels, the scale-test family for million-vertex
// builds.
func GenerateBalancedBinaryTree(leaves int) (*Graph, error) { return gen.BalancedBinaryTree(leaves) }

// GenerateRMAT returns a connected R-MAT graph (Graph500 parameter mix)
// on 2^scale vertices with a skewed degree distribution.
func GenerateRMAT(scale, m int, seed int64) (*Graph, error) { return gen.RMAT(scale, m, seed) }

// Shortest paths.

// ShortestDistance computes one exact distance with bidirectional search.
func ShortestDistance(g *Graph, u, v NodeID) Weight { return sssp.Distance(g, u, v) }

// AllDistancesFrom computes single-source shortest path distances.
func AllDistancesFrom(g *Graph, src NodeID) []Weight { return sssp.Search(g, src).Dist }

// Extensions.

// BuildCanonicalHHL computes the canonical hierarchical hub labeling for a
// processing order — the O(n³) reference PLL is validated against.
func BuildCanonicalHHL(g *Graph, order []NodeID) (*Labeling, error) {
	return hhl.Canonical(g, order)
}

// OracleTradeoff builds the matrix / hub-label / search oracles,
// cross-checks them, and returns the S·T table (paper §1's tradeoff
// discussion).
func OracleTradeoff(g *Graph, samplePairs int) ([]oracle.TradeoffPoint, error) {
	return oracle.Tradeoff(g, samplePairs)
}

// Index lifecycle: build → persist → load → serve.

type (
	// Index is the unified interface over distance-query structures: exact
	// queries plus space accounting and metadata. The distance matrix, hub
	// labels and bidirectional search are registered backends.
	Index = index.Index
	// IndexPathReporter is the optional witness-path capability of an
	// Index: AppendPath reconstructs one shortest u–v path (all three
	// built-in backends implement it; hub labels require the parent
	// column, present in every freshly built labeling and in version-2
	// containers).
	IndexPathReporter = index.PathReporter
	// IndexEccentricityReporter is the optional farthest-point capability
	// of an Index: exact eccentricities and a vertex attaining them.
	IndexEccentricityReporter = index.EccentricityReporter
	// EccIndex answers exact eccentricity/farthest queries from a frozen
	// labeling via farthest-first inverted hub lists with best-first
	// refinement (budgeted, with a batched-scan fallback on loose hub
	// geometries).
	EccIndex = hub.EccIndex
	// IndexMeta describes an index (backend kind, vertex count, and the
	// query-operation estimate used for the S·T table).
	IndexMeta = index.Meta
	// IndexOptions parameterizes BuildIndex.
	IndexOptions = index.Options
	// HubLabelsIndex is the hub-labeling backend — the only one with a
	// persistent container form.
	HubLabelsIndex = index.HubLabels
	// ContainerOptions configures WriteContainer/SaveIndex: Compact
	// selects the compact (v4) layout over the default expanded (v3) one.
	// Both are 64-byte aligned and servable zero-copy via LoadIndexMmap;
	// the Aligned field is inert and kept for existing callers.
	ContainerOptions = hub.ContainerOptions
	// IndexReleaser is implemented by indexes holding resources the
	// garbage collector cannot reclaim — today the mmap views of
	// LoadIndexMmap. Serving layers that own an index release it after
	// the last in-flight query drains.
	IndexReleaser = index.Releaser
	// Server is the in-process sharded query service: worker goroutines
	// coalesce request streams into interleaved-merge batches over an
	// atomically swappable index snapshot. Every query enters through
	// one core, Server.Do, which never blocks on a full queue and never
	// panics; TryQuery, TryPath, TryEccentricity and TryQueryBatch wrap
	// it and return ErrServerOverloaded / ErrServerClosed / ... instead.
	Server = server.Server
	// ServerOptions configures NewServer (shard/worker count, queue
	// depth, and the optional Admission controller).
	ServerOptions = server.Options
	// ServerStats is the served-traffic snapshot (served/batches, the
	// overload counters Rejected, Shed and PerClientHot, and the fault
	// counters Panics, Faulted and Timeouts plus the derived Health).
	ServerStats = server.Stats
	// ServerHealth is the server's fault-health state (ServerHealthy,
	// ServerDegraded, ServerFailed), derived from recent contained
	// panics and query timeouts over a sliding window — overload alone
	// never moves it. Configure the thresholds via
	// ServerOptions.Health.
	ServerHealth = server.HealthState
	// ServerHealthOptions tunes the sliding window and the degraded /
	// failed thresholds of the fault-health state machine.
	ServerHealthOptions = server.HealthOptions
	// AdmissionOptions configures the constant-memory fair admission
	// controller (Stochastic Fair BLUE flavour) attached through
	// ServerOptions.Admission: multi-level Bloom-style per-client
	// shedding probabilities that rise on queue-full events and decay on
	// successful serves.
	AdmissionOptions = flowctl.Options
	// FleetClient is the pooled, batching, hedging client for hubserve
	// -binary doors (the internal/wire framed protocol): calls from any
	// goroutine are coalesced into binary batch frames, pipelined over
	// pooled connections, round-robined across replicas, and retried on
	// the survivors when a replica dies. Construct with NewFleetClient.
	FleetClient = hubclient.Client
	// FleetClientOptions configures NewFleetClient: the replica
	// addresses, the client identity sent to admission control, pool
	// size, batching bounds, timeout, failover hold-down and optional
	// hedging delay.
	FleetClientOptions = hubclient.Options
	// FleetClientStats counts the client's traffic: queries, frames,
	// retries, hedges (and wins), pool-exhausted events and transport
	// errors.
	FleetClientStats = hubclient.Stats
)

// Server fault-health states (see ServerHealth).
const (
	ServerHealthy  = server.Healthy
	ServerDegraded = server.Degraded
	ServerFailed   = server.Failed
)

// Serving errors returned by the Server.Try* doors and, being the same
// values, by FleetClient: ErrFleetOverloaded is ErrServerOverloaded.
var (
	// ErrServerOverloaded reports a request shed by the admission
	// controller or bounced off a full shard queue; back off and retry.
	ErrServerOverloaded = server.ErrOverloaded
	// ErrServerClosed reports a request issued after (or concurrent
	// with) Server.Close.
	ErrServerClosed = server.ErrClosed
	// ErrServerUnsupported reports a path/eccentricity query against an
	// index without that capability.
	ErrServerUnsupported = server.ErrUnsupported
	// ErrServerBackendFault reports a request whose serving group hit a
	// backend panic (contained by the worker, which keeps serving) or an
	// injected fault; the answer is unusable but the server is intact.
	ErrServerBackendFault = server.ErrBackendFault
	// ErrServerTimeout reports a request abandoned at the
	// ServerOptions.QueryTimeout deadline; the backend may still
	// complete it, but the caller has its answer slot back.
	ErrServerTimeout = server.ErrTimeout
	// ErrServerBadRequest reports a vertex id outside the served index.
	ErrServerBadRequest = server.ErrBadRequest
	// ErrNoParents reports a path query against a labeling without a
	// parent column (e.g. one loaded from a version-1 container).
	ErrNoParents = hub.ErrNoParents
	// ErrLabelingViewImmutable reports an in-place mutation attempted on
	// a view-backed (mmap) labeling; CopyOwned first.
	ErrLabelingViewImmutable = hub.ErrViewImmutable
	// ErrFleetOverloaded reports a FleetClient query shed by a replica's
	// admission control (with -peers gossip, by every replica at once);
	// back off and retry.
	ErrFleetOverloaded = wire.ErrOverloaded
	// ErrFleetTimeout reports a FleetClient query that missed its
	// deadline — the replica's per-query deadline or the client's
	// FleetClientOptions.Timeout.
	ErrFleetTimeout = wire.ErrTimeout
)

// BuildIndex constructs a registered index backend ("matrix",
// "hub-labels", "search") over g.
func BuildIndex(kind string, g *Graph, opts IndexOptions) (Index, error) {
	return index.Build(kind, g, opts)
}

// IndexKinds lists the registered index backends.
func IndexKinds() []string { return index.Kinds() }

// NewHubLabelsIndex wraps a labeling as a servable hub-labels index,
// freezing it if necessary.
func NewHubLabelsIndex(l *Labeling) *HubLabelsIndex { return index.NewHubLabelsFrom(l) }

// SaveIndex persists idx at path as a versioned index container
// (checksummed, little-endian, 64-byte aligned sections). To migrate a
// legacy (version 1–2) file, re-save it:
// SaveIndex(path, LoadIndex(old), ContainerOptions{}).
func SaveIndex(path string, idx Index, opts ContainerOptions) error {
	return index.Save(path, idx, opts)
}

// SaveIndexStreaming persists an unfrozen labeling (BuildPLLUnfrozen)
// at path with the same crash-safety and byte-identical output as
// SaveIndex, but without materializing the flat form first: label runs
// stream into the file column by column, so peak memory stays at about
// one copy of the labeling.
func SaveIndexStreaming(path string, l *Labeling, opts ContainerOptions) error {
	return index.SaveStreaming(path, l, opts)
}

// LoadIndex loads an index container written by SaveIndex (or
// hubgen -out) onto the heap, fully validated, without ever rebuilding
// the mutable labeling form.
func LoadIndex(path string) (*HubLabelsIndex, error) { return index.Load(path) }

// LoadIndexMmap opens a container zero-copy: the index's columns are
// typed views of the memory-mapped region — O(1) open, no second copy in
// anonymous memory, physical pages shared between processes serving the
// same file. The view must be Released after its last query (or owned
// by a Server via OwnIndex/SwapRetire); legacy (version 1–2) containers
// fall back to the decoded load.
func LoadIndexMmap(path string) (*HubLabelsIndex, error) { return index.LoadMmap(path) }

// VerifySampledIndex spot-checks idx against graph search on pairs random
// vertex pairs — the guard for serving a loaded container, whose graph
// identity the format does not record (a stale cache can match on vertex
// count alone).
func VerifySampledIndex(idx Index, g *Graph, pairs int, seed int64) error {
	return index.VerifySampled(idx, g, pairs, seed)
}

// WriteContainer serializes a frozen labeling as an index container.
func WriteContainer(w io.Writer, f *FlatLabeling, opts ContainerOptions) (int64, error) {
	return f.WriteContainer(w, opts)
}

// ReadContainerStore parses an index container into its native
// representation: expanded (v3) and legacy files come back as a
// *FlatLabeling, compact (v4) files as a *CompactLabeling serving
// compressed. Corrupt input returns an error (wrapping
// hub.ErrContainer), never a panic.
func ReadContainerStore(r io.Reader) (LabelStore, error) { return hub.ReadContainerStore(r) }

// OpenStoreMmap opens a container file in its native representation,
// zero-copy: expanded (v3) files map as expanded views, compact (v4)
// files map as compressed views that decode per query — the resident
// working set is then the compressed bytes actually touched. See
// hub.OpenStoreMmap for the lifetime (Release) and validation contract.
func OpenStoreMmap(path string) (LabelStore, error) { return hub.OpenStoreMmap(path) }

// CompactFromFlat re-encodes a frozen labeling into the compressed
// queryable representation (identical answers, smaller resident set).
func CompactFromFlat(f *FlatLabeling) *CompactLabeling { return hub.CompactFromFlat(f) }

// NewServer starts the sharded query service over idx. Close it to
// release the workers; Swap replaces the served index under live traffic.
func NewServer(idx Index, opts ServerOptions) *Server { return server.New(idx, opts) }

// NewFleetClient connects to a fleet of hubserve -binary replicas.
// Queries load-balance across the replicas, fail over on transport
// errors, and travel as binary batch frames — 5–10× the HTTP door's
// per-connection throughput at batch sizes ≥16. Close it to release
// the connections and collectors.
func NewFleetClient(opts FleetClientOptions) (*FleetClient, error) { return hubclient.New(opts) }

// NewEccIndex inverts a frozen label store — expanded or compact —
// into the farthest-first per-hub lists that answer exact eccentricity
// and farthest-vertex queries. The index is identical across
// representations of the same labeling.
func NewEccIndex(s LabelStore) *EccIndex { return hub.NewEccIndex(s) }

// EstimateHighwayDimension returns greedy shortest-path-cover sizes per
// doubling scale (the ADF+16 highway-dimension proxy).
func EstimateHighwayDimension(g *Graph) ([]hdim.ScaleEstimate, error) {
	return hdim.Estimate(g)
}

// BuildApproxLabels builds the +2-additive-error hub labeling of §1.1
// (exact hubs collapsed onto a dominating set).
func BuildApproxLabels(g *Graph) (*approx.CollapseResult, error) {
	return approx.Collapse(g)
}
