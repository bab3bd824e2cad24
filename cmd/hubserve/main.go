// Command hubserve loads a hub-labeling index container (written by
// hubgen -out) and serves exact distance queries from it — the paper's
// stored-label query structure as a running service. Queries go through
// the sharded in-process query service (internal/server): worker
// goroutines coalesce adjacent requests into interleaved-merge batches,
// and the served index sits behind an atomic snapshot.
//
// With -mmap the container is served zero-copy: the index's columns are
// typed views of the memory-mapped file (every container hubgen writes;
// legacy version-1/2 files fall back to a decoded load), so startup is
// O(n) plus one checksum pass, no second copy of the index exists in
// anonymous memory, and multiple hubserve processes serving the same
// file share its physical pages. The served container can be replaced without
// restarting: SIGHUP — or the /reload HTTP endpoint — re-opens the
// -index path and hot-swaps the new index under live traffic with zero
// dropped queries (in-flight queries finish on the old mapping, which is
// unmapped when the last of them drains). Replace the file by atomic
// rename (mv new.hli labels.hli), never by in-place overwrite: a rename
// leaves the mapped inode intact, an overwrite rewrites live pages under
// running queries.
//
// Every front end is a codec over one request core: it decodes its
// input into wire.Query values, hands them to server.Do, and renders
// the wire.Result statuses in its own vocabulary (DESIGN.md "Request
// core" holds the table). Overload therefore degrades gracefully
// everywhere instead of blocking or crashing: Do never waits for a
// queue slot, and (unless -admission=false) a constant-memory fair
// admission controller (internal/flowctl) sheds load per client, so one
// flooding client cannot starve the rest.
//
// Faults degrade gracefully too: a backend panic is contained to the
// request group that hit it (the worker recovers and keeps serving),
// -querytimeout bounds every query ("TIMEOUT" / HTTP 504 at the
// deadline), and /healthz turns 503 with a reason when the recent panic
// or timeout rate crosses the fault-health thresholds — overload alone
// never does. SIGTERM/SIGINT drain in-flight queries (bounded) before
// exiting; a corrupt container is quarantined (renamed aside) at
// startup and on reload instead of being retried forever.
//
// Three front ends:
//
//   - line protocol (default): one "u v" pair per stdin line, answered as
//     "u v dist" ("inf" when unreachable); "PATH u v" answers "path u v
//     v0 v1 ... vk" (one shortest path, "path u v inf" when unreachable);
//     "ECC v" answers "ecc v <eccentricity> <farthest-vertex>"; "BUSY"
//     when the request was shed under overload, "TIMEOUT" past the
//     deadline, "error: ..." otherwise; "quit" stops. The grammar is
//     internal/wire's, shared with cmd/hubq, so the two diff byte for
//     byte.
//   - HTTP (-http addr): GET /distance?u=U&v=V, /path?u=U&v=V and /ecc?v=V
//     (429 + Retry-After under overload, client identity = remote
//     address; 400 for ids outside the served index; 501 when it lacks
//     the capability, e.g. a version-1 container without the parent
//     column), plus /stats,
//     /healthz and POST /reload (hot-swap to the current contents of the
//     -index path; on failure the previous index keeps serving). The
//     server carries read/write/idle timeouts so a stalled client cannot
//     hold a handler goroutine forever.
//   - binary batch protocol (-binary addr): the internal/wire framed
//     protocol — many queries per frame, varint-packed, answered through
//     the same shard queues, admission controller, deadlines and hot
//     cache as the other doors. This is the door cmd/hubq and the
//     internal/hubclient pooled client speak, and the one replicas use
//     for fleet traffic. It can run alongside -http; with neither -http
//     nor stdin traffic wanted, -binary alone parks the process until
//     SIGTERM.
//
// Fleets: -peers gossips the local admission controller's bucket state
// to the binary doors of the listed replicas every -gossipevery (see
// DESIGN.md "Shared admission"). All replicas must run the same
// admission geometry and seed; a flooding client shed on one replica
// is then throttled fleet-wide, so retrying against a different
// replica buys it nothing.
//
// With -graph the input graph is loaded too and every served distance is
// spot-checkable: -selfcheck n verifies n random queries against
// bidirectional search before serving, and again on every reload before
// the swap — a bad replacement container is rejected, not served.
//
// Usage:
//
//	hubgen -gen gnm -n 10000 -algo pll -out labels.hli -graphout g.gr
//	echo "0 17" | hubserve -index labels.hli
//	hubserve -index labels.hli -graph g.gr -selfcheck 200
//	hubserve -index labels.hli -http :8080 -mmap
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"hublab/internal/faultinject"
	"hublab/internal/flowctl"
	"hublab/internal/graph"
	"hublab/internal/index"
	"hublab/internal/netserve"
	"hublab/internal/server"
	"hublab/internal/wire"
)

// osExit is swapped out by tests that pin the drain-timeout exit path.
var osExit = os.Exit

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	indexPath := flag.String("index", "", "index container to serve (required)")
	graphPath := flag.String("graph", "", "optional graph file for self-checking")
	httpAddr := flag.String("http", "", "serve HTTP on this address instead of the line protocol")
	workers := flag.Int("workers", 0, "shard/worker count (0 = number of CPUs)")
	queue := flag.Int("queue", 0, "per-shard queue depth (0 = default)")
	admission := flag.Bool("admission", true, "fair per-client load shedding under overload")
	useMmap := flag.Bool("mmap", false, "serve the container zero-copy via mmap (legacy version-1/2 containers fall back to a decoded load)")
	simLatency := flag.Duration("simlatency", 0, "artificial per-query service time, for load and overload testing")
	selfcheck := flag.Int("selfcheck", 0, "verify this many random queries against graph search before serving and on reload (needs -graph)")
	queryTimeout := flag.Duration("querytimeout", 0, "per-query deadline (0 = none); timed-out queries answer TIMEOUT / HTTP 504")
	hotCache := flag.Int("hotcache", 0, "per-shard hot result cache entries for repeated (u,v) pairs (0 = disabled); invalidated automatically on reload")
	binaryAddr := flag.String("binary", "", "serve the length-prefixed binary batch protocol on this address (alone, or alongside -http)")
	peers := flag.String("peers", "", "comma-separated binary-door addresses of replica peers to gossip admission state to (needs admission)")
	gossipEvery := flag.Duration("gossipevery", 100*time.Millisecond, "interval between admission-gossip rounds to -peers")
	flag.Parse()
	if *indexPath == "" {
		return fmt.Errorf("hubserve: -index is required")
	}

	// Fault injection arms only from the environment, never from a flag:
	// the chaos harness and CI set HUBLAB_FAULTS, and the loud log line
	// makes an accidentally inherited spec impossible to miss.
	if spec, on, err := faultinject.EnableFromEnv(); err != nil {
		return fmt.Errorf("hubserve: %w", err)
	} else if on {
		log.Printf("hubserve: FAULT INJECTION ACTIVE (HUBLAB_FAULTS=%q) — this process will misbehave on purpose", spec)
	}

	// A crashed hubgen can strand ".hli-*" temp siblings next to the
	// container; they are never valid, so sweep them before serving.
	if removed, err := index.CleanPartials(filepath.Dir(*indexPath)); err != nil {
		log.Printf("hubserve: cleaning partial containers: %v", err)
	} else if len(removed) > 0 {
		log.Printf("hubserve: removed %d partial container file(s): %v", len(removed), removed)
	}

	load := func() (*index.HubLabels, error) {
		if *useMmap {
			return index.LoadMmap(*indexPath)
		}
		return index.Load(*indexPath)
	}
	start := time.Now()
	idx, err := load()
	if err != nil {
		// A torn or bit-rotted container will never load on retry; move it
		// aside so supervisors restarting the process fail fast on a clear
		// "no container" instead of spinning on the same corrupt bytes.
		if index.IsCorrupt(err) {
			if q, qerr := index.Quarantine(*indexPath); qerr == nil {
				return fmt.Errorf("hubserve: container is corrupt, quarantined to %s: %w", q, err)
			}
		}
		return err
	}
	meta := idx.Meta()
	fmt.Fprintf(os.Stderr, "loaded %s: %s n=%d space=%d bytes in %v (mmap view: %v)\n",
		*indexPath, meta.Kind, meta.Vertices, idx.SpaceBytes(),
		time.Since(start).Round(time.Microsecond), !idx.Owned())

	var g *graph.Graph
	if *graphPath != "" {
		f, err := os.Open(*graphPath)
		if err != nil {
			return err
		}
		g, err = graph.Read(f)
		f.Close()
		if err != nil {
			return err
		}
		if g.NumNodes() != meta.Vertices {
			return fmt.Errorf("hubserve: graph has %d vertices, index has %d", g.NumNodes(), meta.Vertices)
		}
	}

	served := index.Index(idx)
	if *simLatency > 0 {
		served = &delayIndex{Index: idx, delay: *simLatency}
	}
	// The server owns every served index (the initial one here, reloaded
	// ones via SwapRetire): a retired mmap view is unmapped after its
	// last in-flight query drains, and Close releases the final one.
	opts := server.Options{Shards: *workers, QueueDepth: *queue, OwnIndex: true, QueryTimeout: *queryTimeout, HotCache: *hotCache}
	if *admission {
		opts.Admission = &flowctl.Options{}
	}
	srv := server.New(served, opts)
	defer srv.Close()

	if *selfcheck > 0 {
		if g == nil {
			return fmt.Errorf("hubserve: -selfcheck needs -graph")
		}
		if err := index.VerifySampled(idx, g, *selfcheck, 1); err != nil {
			return fmt.Errorf("hubserve: selfcheck: %w", err)
		}
		fmt.Fprintf(os.Stderr, "selfcheck: %d random queries match graph search\n", *selfcheck)
	}

	rl := &reloader{load: load, srv: srv, g: g, path: *indexPath, selfcheck: *selfcheck, sim: *simLatency, cooldown: reloadCooldown}
	// One signal goroutine demuxes the whole repertoire: SIGHUP hot-swaps
	// the container (and keeps listening), SIGTERM/SIGINT start the
	// graceful drain exactly once and then reset to the default
	// disposition, so a second Ctrl-C force-kills a wedged drain.
	sig := make(chan os.Signal, 4)
	signal.Notify(sig, syscall.SIGHUP, syscall.SIGTERM, syscall.SIGINT)
	stop := make(chan struct{})
	go func() {
		for s := range sig {
			if s == syscall.SIGHUP {
				if m, err := rl.reload(); err != nil {
					log.Printf("hubserve: SIGHUP reload failed, previous index keeps serving: %v", err)
				} else {
					log.Printf("hubserve: reloaded %s: n=%d", *indexPath, m.Vertices)
				}
				continue
			}
			log.Printf("hubserve: %v: draining in-flight queries (again to force quit)", s)
			signal.Reset(syscall.SIGTERM, syscall.SIGINT)
			close(stop)
			return
		}
	}()

	var door *netserve.Door
	if *binaryAddr != "" {
		ln, err := net.Listen("tcp", *binaryAddr)
		if err != nil {
			return err
		}
		door = netserve.New(srv, netserve.Options{})
		defer door.Close()
		go func() {
			if serr := door.Serve(ln); serr != nil && !errors.Is(serr, net.ErrClosed) {
				log.Printf("hubserve: binary door: %v", serr)
			}
		}()
		fmt.Fprintf(os.Stderr, "serving binary protocol on %s\n", ln.Addr())
	}
	if *peers != "" {
		if !*admission {
			return fmt.Errorf("hubserve: -peers shares admission state and needs -admission=true")
		}
		gsp := netserve.NewGossiper(srv.AdmissionController(), strings.Split(*peers, ","), *gossipEvery)
		go gsp.Run(stop)
		fmt.Fprintf(os.Stderr, "gossiping admission state to %s every %v\n", *peers, *gossipEvery)
	}

	if *httpAddr != "" {
		return serveHTTP(srv, rl, *httpAddr, stop)
	}
	if door != nil {
		return serveBinary(srv, door, stop)
	}
	return serveLinesMain(srv, os.Stdin, os.Stdout, stop)
}

// serveBinary parks the main goroutine until a termination signal when
// the binary door is the only front end, then drains it: Close stops
// the listener, closes every connection and waits for the per-conn
// goroutines, so the deferred server Close runs with no query in
// flight. In-flight frames finish; clients see the connection close
// and fail over to a replica.
func serveBinary(srv *server.Server, door *netserve.Door, stop <-chan struct{}) error {
	<-stop
	door.Close()
	ds := door.Stats()
	st := srv.Stats()
	fmt.Fprintf(os.Stderr, "drained: %d frames / %d queries over binary (%d bad frames, %d gossip merges); served %d (%d rejected, %d shed, %d faulted, %d timeouts)\n",
		ds.Frames, ds.Queries, ds.BadFrames, ds.GossipMerged,
		st.Served, st.Rejected, st.Shed, st.Faulted, st.Timeouts)
	return nil
}

// reloader hot-swaps the served index from the container path. Reloads
// are serialized; a failed load, vertex-count mismatch or failed
// selfcheck rejects the replacement (releasing whatever was opened) and
// leaves the previous index serving.
type reloader struct {
	mu   sync.Mutex
	load func() (*index.HubLabels, error)
	srv  *server.Server
	g    *graph.Graph
	// path is the container file the loads read; a reload that fails
	// because the file is corrupt quarantines it (rename aside) so
	// retries don't spin on known-bad bytes. Empty disables quarantining.
	path      string
	selfcheck int
	sim       time.Duration
	// cooldown is the minimum interval the HTTP /reload door enforces
	// between reload attempts (0 disables). A reload is deliberately
	// expensive — a container open plus the optional selfcheck — and,
	// unlike queries, cannot ride the admission controller, so without a
	// cooldown any client reaching the HTTP port could loop POST /reload
	// as a cheap denial-of-service lever. SIGHUP (process-owner
	// privilege) bypasses the cooldown but still arms it.
	cooldown time.Duration
	last     time.Time
}

// reloadCooldown is the production /reload rate limit.
const reloadCooldown = time.Second

// errReloadThrottled reports a /reload attempt inside the cooldown
// window; the HTTP door answers 429 + Retry-After.
var errReloadThrottled = errors.New("hubserve: reload cooldown in effect, retry later")

// reload opens the container path again and swaps the result in under
// live traffic — the SIGHUP door, exempt from the cooldown. In-flight
// queries finish on the old snapshot; once the last of them drains the
// old index is released (for an mmap view, the munmap). It returns the
// new index's metadata.
func (rl *reloader) reload() (index.Meta, error) {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	return rl.reloadLocked()
}

// tryReload is the HTTP /reload door: reload, but refused inside the
// cooldown window.
func (rl *reloader) tryReload() (index.Meta, error) {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	if rl.cooldown > 0 && time.Since(rl.last) < rl.cooldown {
		return index.Meta{}, errReloadThrottled
	}
	return rl.reloadLocked()
}

func (rl *reloader) reloadLocked() (index.Meta, error) {
	// Arm the cooldown at attempt start: failed attempts (the expensive
	// full-open-then-reject path) must count against the rate limit too.
	rl.last = time.Now()
	if err := faultinject.Fire(faultinject.PointReload); err != nil {
		return index.Meta{}, err
	}
	idx, err := rl.load()
	if err != nil {
		// A corrupt replacement is quarantined, not just rejected: the
		// previous index keeps serving either way, but leaving torn bytes
		// at the path would make every subsequent reload fail identically.
		if rl.path != "" && index.IsCorrupt(err) {
			if q, qerr := index.Quarantine(rl.path); qerr == nil {
				return index.Meta{}, fmt.Errorf("hubserve: replacement container is corrupt, quarantined to %s: %w", q, err)
			}
		}
		return index.Meta{}, err
	}
	if rl.g != nil {
		if idx.Meta().Vertices != rl.g.NumNodes() {
			n := idx.Meta().Vertices
			idx.Release()
			return index.Meta{}, fmt.Errorf("hubserve: replacement index has %d vertices, graph has %d", n, rl.g.NumNodes())
		}
		if rl.selfcheck > 0 {
			if err := index.VerifySampled(idx, rl.g, rl.selfcheck, 1); err != nil {
				idx.Release()
				return index.Meta{}, fmt.Errorf("hubserve: reload selfcheck: %w", err)
			}
		}
	}
	served := index.Index(idx)
	if rl.sim > 0 {
		served = &delayIndex{Index: idx, delay: rl.sim}
	}
	rl.srv.SwapRetire(served)
	return idx.Meta(), nil // Meta reads only array lengths: safe past the swap
}

// delayIndex adds a fixed service time to every query — a deliberately
// throttled backend for overload and admission-control testing. It does
// not implement index.Batcher, so every request pays the delay.
type delayIndex struct {
	index.Index
	delay time.Duration
}

func (d *delayIndex) Distance(u, v graph.NodeID) graph.Weight {
	time.Sleep(d.delay)
	return d.Index.Distance(u, v)
}

// Release forwards to the wrapped index so a throttled mmap view is
// still unmapped when the serving layer retires it.
func (d *delayIndex) Release() error {
	if r, ok := d.Index.(index.Releaser); ok {
		return r.Release()
	}
	return nil
}

// lineConnSeq numbers the line-protocol connections for the admission
// controller: each serveLines call is one connection (stdin today) with
// its own identity.
var lineConnSeq atomic.Uint64

// pathBufs pools path destination buffers across HTTP handler
// goroutines, so steady-state /path traffic reuses storage instead of
// allocating per request.
var pathBufs = sync.Pool{New: func() any { return new([]graph.NodeID) }}

// lineDrainTimeout bounds how long a terminating line-protocol process
// waits for the in-flight query (there is at most one) to finish. A
// variable so the drain-timeout test doesn't take 5 real seconds.
var lineDrainTimeout = 5 * time.Second

// errDrainTimeout reports a graceful shutdown whose in-flight work did
// not finish inside the drain window.
var errDrainTimeout = errors.New("hubserve: drain timed out with queries still in flight")

// serveLinesMain runs the line protocol with a bounded graceful drain:
// when stop fires (SIGTERM/SIGINT), the current query — queries are
// answered one per line, so there is at most one — gets lineDrainTimeout
// to finish; a clean drain exits zero through the normal path, a wedged
// one exits non-zero immediately, deliberately skipping the deferred
// server Close whose no-query-in-flight contract no longer holds.
func serveLinesMain(srv *server.Server, in io.Reader, out io.Writer, stop <-chan struct{}) error {
	done := make(chan error, 1)
	go func() { done <- serveLines(srv, in, out, stop) }()
	select {
	case err := <-done:
		return err
	case <-stop:
		select {
		case err := <-done:
			return err
		case <-time.After(lineDrainTimeout):
			log.Print(errDrainTimeout)
			osExit(1)
			return errDrainTimeout // unreachable outside tests that stub osExit
		}
	}
}

// serveLines answers query lines from in until EOF, "quit" or stop, in
// the grammar of internal/wire (ParseLine / WriteAnswer). Each response
// is flushed immediately so interactive clients that wait for an answer
// before the next query don't deadlock on the buffer. Vertices are
// range-checked by the core against the snapshot that serves the line,
// so a SIGHUP reload to a different-size index re-validates correctly
// mid-stream.
func serveLines(srv *server.Server, in io.Reader, out io.Writer, stop <-chan struct{}) error {
	client := "conn-" + strconv.FormatUint(lineConnSeq.Add(1), 10)
	w := bufio.NewWriter(out)
	defer w.Flush()
	// Lines arrive through a goroutine so the loop can select against
	// stop; the goroutine itself may stay blocked in a stdin read until
	// the process exits, which is fine — it holds no server state.
	lines := make(chan string)
	scanErr := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(in)
		for sc.Scan() {
			select {
			case lines <- sc.Text():
			case <-stop:
				return
			}
		}
		scanErr <- sc.Err()
		close(lines)
	}()
	var pathBuf []graph.NodeID
loop:
	for {
		select {
		case <-stop:
			break loop
		case line, ok := <-lines:
			if !ok {
				if err := <-scanErr; err != nil {
					return err
				}
				break loop
			}
			if line == "" {
				continue
			}
			if line == "quit" {
				break loop
			}
			serveLine(srv, client, line, &pathBuf, w)
			if err := w.Flush(); err != nil {
				return err
			}
		}
	}
	st := srv.Stats()
	fmt.Fprintf(os.Stderr, "served %d queries in %d groups across %d shards (%d rejected, %d shed, %d faulted, %d timeouts, health %s)\n",
		st.Served, st.Batches, st.Shards, st.Rejected, st.Shed, st.Faulted, st.Timeouts, st.Health)
	return nil
}

// serveLine is the line codec around the core: parse one line into a
// query, Do it, render the result. Nothing on the way allocates when
// the query is shed (TestServeLineShedZeroAlloc).
func serveLine(srv *server.Server, client, line string, pathBuf *[]graph.NodeID, w io.Writer) {
	q, err := wire.ParseLine(line)
	if err != nil {
		wire.WriteRejection(w, err)
		return
	}
	qs := [1]wire.Query{q}
	rs := [1]wire.Result{{Path: (*pathBuf)[:0]}}
	srv.Do(client, qs[:], rs[:])
	*pathBuf = rs[0].Path
	wire.WriteAnswer(w, q, &rs[0])
}

// httpTimeouts bound how long a client may hold a connection in each
// phase; without them a single stalled client (slowloris) pins a handler
// goroutine forever.
type httpTimeouts struct {
	readHeader time.Duration
	read       time.Duration
	write      time.Duration
	idle       time.Duration
}

var defaultHTTPTimeouts = httpTimeouts{
	readHeader: 5 * time.Second,
	read:       10 * time.Second,
	write:      10 * time.Second,
	idle:       60 * time.Second,
}

// queryParam extracts one raw query parameter without allocating.
// r.URL.Query() builds a url.Values map per request — paid even when
// the admission controller then sheds the query, which hands a flooder
// a per-rejection allocation on the server. Vertex ids are plain
// digits, so skipping percent-decoding is sound (a percent-escaped id
// fails wire.ParseVertex and answers 400, same as any other malformed id).
func queryParam(raw, key string) string {
	for len(raw) > 0 {
		kv := raw
		if i := strings.IndexByte(raw, '&'); i >= 0 {
			kv, raw = raw[:i], raw[i+1:]
		} else {
			raw = ""
		}
		if len(kv) > len(key) && kv[len(key)] == '=' && kv[:len(key)] == key {
			return kv[len(key)+1:]
		}
	}
	return ""
}

// Shared overload-response pieces: assigning the same []string into the
// header map and writing a constant body keeps the 429 path free of
// per-shed allocations (http.Error + Header().Set allocate both), so a
// flooder being rejected costs the server no heap. Pinned by
// TestHTTPShedZeroAlloc.
const overloadedBody = "overloaded, retry later\n"

var (
	retryAfterVal = []string{"1"}
	plainTextVal  = []string{"text/plain; charset=utf-8"}
)

// answer429 is the allocation-free analogue of
// http.Error(w, overloadedBody, http.StatusTooManyRequests) with a
// Retry-After hint.
func answer429(w http.ResponseWriter) {
	h := w.Header()
	h["Retry-After"] = retryAfterVal
	h["Content-Type"] = plainTextVal
	w.WriteHeader(http.StatusTooManyRequests)
	io.WriteString(w, overloadedBody)
}

// httpCode is the HTTP door's rendering of the core's statuses (the
// bodies are wire.StatusText; DESIGN.md "Request core" has the table).
var httpCode = [...]int{
	wire.StatusOK:           http.StatusOK,
	wire.StatusOverloaded:   http.StatusTooManyRequests,
	wire.StatusTimeout:      http.StatusGatewayTimeout,
	wire.StatusBackendFault: http.StatusInternalServerError,
	wire.StatusUnsupported:  http.StatusNotImplemented,
	wire.StatusClosed:       http.StatusServiceUnavailable,
	wire.StatusBadRequest:   http.StatusBadRequest,
	wire.StatusInternal:     http.StatusInternalServerError,
}

// verbUsage is the 400 body's reminder of each endpoint's shape,
// indexed by query kind.
var verbUsage = [...]string{
	wire.QDist: "/distance?u=U&v=V",
	wire.QPath: "/path?u=U&v=V",
	wire.QEcc:  "/ecc?v=V",
}

// serveVerb is the HTTP codec around the core, shared by /distance,
// /path and /ecc: decode the query parameters into one wire.Query, Do
// it, encode the result. Ids are only parsed here; whether they name a
// vertex is the core's call, made against the snapshot that serves the
// request, so a /reload to a different-size index re-validates
// correctly without a restart.
func serveVerb(srv *server.Server, kind uint8, w http.ResponseWriter, r *http.Request) {
	qs := [1]wire.Query{{Kind: kind}}
	rs := [1]wire.Result{{Status: wire.StatusBadRequest}}
	q, okU, okV := &qs[0], false, true
	if kind == wire.QEcc {
		q.U, okU = wire.ParseVertex(queryParam(r.URL.RawQuery, "v"))
	} else {
		q.U, okU = wire.ParseVertex(queryParam(r.URL.RawQuery, "u"))
		q.V, okV = wire.ParseVertex(queryParam(r.URL.RawQuery, "v"))
	}
	if !okU || !okV {
		writeResult(w, srv, q, &rs[0])
		return
	}
	var bp *[]graph.NodeID
	if kind == wire.QPath {
		bp = pathBufs.Get().(*[]graph.NodeID)
		rs[0].Path = (*bp)[:0]
	}
	srv.Do(netserve.ClientID(r.RemoteAddr), qs[:], rs[:])
	writeResult(w, srv, q, &rs[0])
	if bp != nil {
		*bp = rs[0].Path
		pathBufs.Put(bp)
	}
}

// writeResult encodes q resolved to res: a status code and text body,
// or the verb's JSON.
func writeResult(w http.ResponseWriter, srv *server.Server, q *wire.Query, res *wire.Result) {
	switch res.Status {
	case wire.StatusOK:
	case wire.StatusOverloaded:
		answer429(w)
		return
	case wire.StatusBadRequest:
		// The vertex count is read for the error text only.
		http.Error(w, fmt.Sprintf("want %s with vertices in [0,%d)", verbUsage[q.Kind], srv.Meta().Vertices),
			http.StatusBadRequest)
		return
	default:
		http.Error(w, wire.StatusText(res.Status), httpCode[res.Status])
		return
	}
	w.Header().Set("Content-Type", "application/json")
	switch {
	case q.Kind == wire.QEcc:
		fmt.Fprintf(w, `{"v":%d,"eccentricity":%d,"farthest":%d}`+"\n", q.U, res.Dist, res.Far)
	case q.Kind == wire.QDist && res.Dist >= graph.Infinity:
		fmt.Fprintf(w, `{"u":%d,"v":%d,"distance":null}`+"\n", q.U, q.V)
	case q.Kind == wire.QDist:
		fmt.Fprintf(w, `{"u":%d,"v":%d,"distance":%d}`+"\n", q.U, q.V, res.Dist)
	case len(res.Path) == 0:
		fmt.Fprintf(w, `{"u":%d,"v":%d,"path":null}`+"\n", q.U, q.V)
	default:
		fmt.Fprintf(w, `{"u":%d,"v":%d,"hops":%d,"path":[`, q.U, q.V, len(res.Path)-1)
		for i, x := range res.Path {
			if i > 0 {
				io.WriteString(w, ",")
			}
			fmt.Fprintf(w, "%d", x)
		}
		io.WriteString(w, "]}\n")
	}
}

// newMux builds the hubserve HTTP surface over srv. rl may be nil, in
// which case /reload answers 501.
func newMux(srv *server.Server, rl *reloader) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/distance", func(w http.ResponseWriter, r *http.Request) { serveVerb(srv, wire.QDist, w, r) })
	mux.HandleFunc("/path", func(w http.ResponseWriter, r *http.Request) { serveVerb(srv, wire.QPath, w, r) })
	mux.HandleFunc("/ecc", func(w http.ResponseWriter, r *http.Request) { serveVerb(srv, wire.QEcc, w, r) })
	mux.HandleFunc("/reload", func(w http.ResponseWriter, r *http.Request) {
		if rl == nil {
			http.Error(w, "reload not configured", http.StatusNotImplemented)
			return
		}
		if r.Method != http.MethodPost {
			http.Error(w, "use POST /reload", http.StatusMethodNotAllowed)
			return
		}
		meta, err := rl.tryReload()
		switch {
		case errors.Is(err, errReloadThrottled):
			w.Header().Set("Retry-After", "1")
			http.Error(w, err.Error(), http.StatusTooManyRequests)
			return
		case err != nil:
			// The previous index keeps serving; the client learns why the
			// replacement was rejected.
			http.Error(w, "reload failed: "+err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"reloaded":true,"kind":%q,"n":%d}`+"\n", meta.Kind, meta.Vertices)
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		st := srv.Stats()
		meta := srv.Meta()
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"shards":%d,"served":%d,"batches":%d,"rejected":%d,"shed":%d,"hot_clients":%d,`+
			`"panics":%d,"faulted":%d,"timeouts":%d,"health":%q,"health_reason":%q,`+
			`"hot_hits":%d,"hot_misses":%d,"hot_evicts":%d,`+
			`"representation":%q,"resident_bytes":%d,"container_bytes":%d}`+"\n",
			st.Shards, st.Served, st.Batches, st.Rejected, st.Shed, st.PerClientHot,
			st.Panics, st.Faulted, st.Timeouts, st.Health.String(), st.HealthReason,
			st.HotHits, st.HotMisses, st.HotEvicts,
			meta.Representation, meta.ResidentBytes, meta.ContainerBytes)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		// Overload is by design NOT a health signal — a saturated server
		// still answers "ok" here; only backend panics and query timeouts
		// (the fault-health tracker) flip this to 503, telling the load
		// balancer to route away while /stats explains why.
		h, reason := srv.Health()
		if h != server.Healthy {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintf(w, `{"health":%q,"reason":%q}`+"\n", h.String(), reason)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// newHTTPServer assembles the hubserve http.Server: the mux plus the
// per-phase timeouts.
func newHTTPServer(srv *server.Server, rl *reloader, addr string, to httpTimeouts) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           newMux(srv, rl),
		ReadHeaderTimeout: to.readHeader,
		ReadTimeout:       to.read,
		WriteTimeout:      to.write,
		IdleTimeout:       to.idle,
	}
}

// httpDrainTimeout bounds the graceful HTTP drain on shutdown — both
// the signal-driven one and the one after a fatal listener error.
var httpDrainTimeout = 5 * time.Second

// serveHTTP exposes /distance, /path, /ecc, /reload, /stats and
// /healthz, and drains gracefully when stop fires (SIGTERM/SIGINT):
// in-flight handlers get httpDrainTimeout to finish — symmetric with
// the SIGHUP reload promise that no accepted query is dropped — after
// which the process exits non-zero rather than run the deferred server
// Close under live queries.
func serveHTTP(srv *server.Server, rl *reloader, addr string, stop <-chan struct{}) error {
	fmt.Fprintf(os.Stderr, "serving HTTP on %s\n", addr)
	hs := newHTTPServer(srv, rl, addr, defaultHTTPTimeouts)
	drained := make(chan error, 1)
	go func() {
		<-stop
		ctx, cancel := context.WithTimeout(context.Background(), httpDrainTimeout)
		defer cancel()
		drained <- hs.Shutdown(ctx)
	}()
	err := hs.ListenAndServe()
	if errors.Is(err, http.ErrServerClosed) {
		// Signal-driven shutdown: ListenAndServe returned because the
		// drain goroutine called Shutdown; wait for its verdict.
		if serr := <-drained; serr != nil {
			log.Printf("hubserve: %v", errDrainTimeout)
			hs.Close()
			osExit(1)
			return errDrainTimeout // unreachable outside tests that stub osExit
		}
		st := srv.Stats()
		fmt.Fprintf(os.Stderr, "drained cleanly: served %d queries (%d rejected, %d shed, %d faulted, %d timeouts)\n",
			st.Served, st.Rejected, st.Shed, st.Faulted, st.Timeouts)
		return nil
	}
	// Fatal listener error: handler goroutines may still be inside
	// srv.Do; drain them before the deferred srv.Close so its
	// no-query-in-flight contract holds. The drain is bounded — a stalled
	// client must not wedge the exit.
	ctx, cancel := context.WithTimeout(context.Background(), httpDrainTimeout)
	defer cancel()
	if serr := hs.Shutdown(ctx); serr != nil {
		// A handler survived the drain window, so the normal exit path
		// would run srv.Close under live queries; report and exit hard
		// instead (deferred cleanup is skipped deliberately).
		log.Printf("hubserve: %v (drain failed: %v)", err, serr)
		osExit(1)
	}
	return err
}
