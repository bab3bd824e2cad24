// Command hubq queries a hubserve fleet over the binary batch protocol
// (hubserve -binary) through the pooled, hedging client in
// internal/hubclient. It is the fleet-side counterpart of piping lines
// into hubserve: the same query grammar and the same answer lines, but
// transported over framed binary batches, load-balanced across
// replicas, with automatic failover and optional hedging.
//
// Line mode (default) reads queries from stdin, one per line, and
// answers on stdout exactly like hubserve's line door:
//
//	u v          ->  "u v dist" ("inf" when unreachable)
//	PATH u v     ->  "path u v v0 v1 ... vk" ("path u v inf")
//	ECC v        ->  "ecc v <eccentricity> <farthest>"
//	quit         ->  stop
//
// Overloaded requests answer "BUSY" (the fleet's admission controllers
// rejected this client — with -peers gossip, on every replica at
// once), timed-out ones "TIMEOUT". The grammar is internal/wire's
// ParseLine / WriteAnswer — the very functions hubserve's line door
// runs — and answers are printed in input order, so line mode is
// drop-in comparable with a single hubserve's output: diff the two to
// check a fleet serves exactly what one node serves.
//
// Consecutive distance lines that arrive together (a
// file or a pipe on stdin) are sent as one batch frame — one round trip
// per run of up to 64 instead of one per line — with the same answer
// lines; a line typed on its own is answered on its own.
//
// Flood mode (-flood n) issues n random distance queries over [0,
// -vertices) from -concurrency workers and reports throughput plus an
// outcome census — the load generator for the fleet chaos smoke, where
// a replica is SIGKILLed mid-flood and the surviving fleet must keep
// answering:
//
//	hubq -replicas :9001,:9002,:9003 -name smoke -flood 100000 -vertices 10000
//
// Exit status is non-zero if the flood ends with zero successes.
package main

import (
	"bufio"
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hublab/internal/graph"
	"hublab/internal/hubclient"
	"hublab/internal/wire"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	replicas := flag.String("replicas", "", "comma-separated binary-door addresses (required)")
	name := flag.String("name", "", "client identity sent to the fleet's admission controllers")
	pool := flag.Int("pool", 0, "connections per replica (0 = client default)")
	maxBatch := flag.Int("maxbatch", 0, "max queries per frame (0 = client default)")
	timeout := flag.Duration("timeout", 0, "per-request deadline (0 = client default)")
	hedge := flag.Duration("hedge", 0, "hedge to another replica after this long without an answer (0 = off)")
	flood := flag.Int("flood", 0, "flood mode: issue this many random distance queries and report throughput")
	concurrency := flag.Int("concurrency", 8, "flood worker goroutines")
	vertices := flag.Int("vertices", 0, "flood vertex bound: queries draw from [0,vertices) (required with -flood)")
	seed := flag.Int64("seed", 1, "flood query seed")
	flag.Parse()
	if *replicas == "" {
		return fmt.Errorf("hubq: -replicas is required")
	}
	cl, err := hubclient.New(hubclient.Options{
		Replicas:   strings.Split(*replicas, ","),
		Name:       *name,
		PoolSize:   *pool,
		MaxBatch:   *maxBatch,
		Timeout:    *timeout,
		HedgeAfter: *hedge,
	})
	if err != nil {
		return err
	}
	defer cl.Close()

	if *flood > 0 {
		if *vertices <= 0 {
			return fmt.Errorf("hubq: -flood needs -vertices")
		}
		return runFlood(cl, *flood, *concurrency, *vertices, *seed)
	}
	return serveLines(cl, os.Stdin, os.Stdout)
}

// maxRun bounds the distance lines answered as one batch: one frame at
// the client's default MaxBatch. A longer run would park more of this
// caller's queries in a replica's shard queues at once than any single
// frame does.
const maxRun = 64

// statusOf is the status a client-side error stands for: the replica's
// own verdict when there is one, a timeout for the client's deadline,
// StatusInternal for anything else (a transport failure, an exhausted
// pool).
func statusOf(err error) uint8 {
	if errors.Is(err, hubclient.ErrDeadline) {
		return wire.StatusTimeout
	}
	return wire.StatusOf(err)
}

// answer writes the answer line of q, resolved client-side to res and
// err. A failure with no status of its own keeps its line in the shared
// vocabulary; the cause goes to the log.
func answer(w io.Writer, q wire.Query, res *wire.Result, err error) {
	res.Status = statusOf(err)
	if res.Status == wire.StatusInternal && !errors.Is(err, wire.ErrInternal) {
		log.Printf("hubq: %v", err)
	}
	wire.WriteAnswer(w, q, res)
}

// distRun is a run of consecutive distance lines awaiting one
// DistanceBatch, with its reusable answer storage.
type distRun struct {
	qs    []wire.Query
	pairs [][2]graph.NodeID
	out   []graph.Weight
	errs  []error
}

// flush answers the run as one batch, in input order, with the same
// lines a query at a time would have produced.
func (r *distRun) flush(cl *hubclient.Client, w io.Writer) {
	if len(r.qs) == 0 {
		return
	}
	r.pairs = r.pairs[:0]
	for _, q := range r.qs {
		r.pairs = append(r.pairs, [2]graph.NodeID{q.U, q.V})
	}
	if r.out == nil {
		r.out = make([]graph.Weight, maxRun)
		r.errs = make([]error, maxRun)
	}
	cl.DistanceBatch(r.pairs, r.out, r.errs)
	for k, q := range r.qs {
		answer(w, q, &wire.Result{Dist: r.out[k]}, r.errs[k])
	}
	r.qs = r.qs[:0]
}

// lineBuffered reports whether a whole line is already in br's buffer,
// so the next read cannot block.
func lineBuffered(br *bufio.Reader) bool {
	b, _ := br.Peek(br.Buffered())
	return bytes.IndexByte(b, '\n') >= 0
}

// serveLines answers query lines from in until EOF or "quit", in input
// order, with the same grammar and answer lines as hubserve's line
// door — so a fleet's answers diff cleanly against a single node's.
// Consecutive distance lines that are already buffered travel as one
// batch (one round trip instead of one per line); the run is answered
// before any read that could block, so an interactive caller waits for
// nothing but its own query.
func serveLines(cl *hubclient.Client, in io.Reader, out io.Writer) error {
	w := bufio.NewWriter(out)
	defer w.Flush()
	br := bufio.NewReaderSize(in, 64<<10)
	var pathBuf []graph.NodeID
	var run distRun
	for {
		if len(run.qs) > 0 && (len(run.qs) == maxRun || !lineBuffered(br)) {
			run.flush(cl, w)
			if err := w.Flush(); err != nil {
				return err
			}
		}
		line, rerr := br.ReadString('\n')
		if rerr != nil && rerr != io.EOF {
			return rerr
		}
		line = strings.TrimSuffix(strings.TrimSuffix(line, "\n"), "\r")
		if line == "quit" {
			break
		}
		if line != "" {
			q, perr := wire.ParseLine(line)
			if perr == nil && q.Kind == wire.QDist {
				run.qs = append(run.qs, q)
			} else {
				run.flush(cl, w)
				if perr != nil {
					wire.WriteRejection(w, perr)
				} else {
					pathBuf = serveLine(cl, q, pathBuf, w)
				}
				if err := w.Flush(); err != nil {
					return err
				}
			}
		}
		if rerr == io.EOF {
			break
		}
	}
	run.flush(cl, w)
	st := cl.Stats()
	fmt.Fprintf(os.Stderr, "hubq: %d queries in %d frames (%d retries, %d hedges, %d hedge wins, %d pool-exhausted, %d transport errors)\n",
		st.Queries, st.Frames, st.Retries, st.Hedges, st.HedgeWins, st.PoolExhausted, st.TransportErrors)
	return nil
}

// serveLine answers one path or eccentricity query (distance queries
// travel in runs), returning the (possibly regrown) path buffer for
// reuse.
func serveLine(cl *hubclient.Client, q wire.Query, pathBuf []graph.NodeID, w io.Writer) []graph.NodeID {
	var res wire.Result
	var err error
	if q.Kind == wire.QPath {
		res.Path, err = cl.Path(q.U, q.V, pathBuf[:0])
		pathBuf = res.Path
	} else {
		res.Far, res.Dist, err = cl.Eccentricity(q.U)
	}
	answer(w, q, &res, err)
	return pathBuf
}

// runFlood hammers the fleet with total random distance queries from
// workers goroutines and prints an outcome census. It succeeds as long
// as at least one query was answered — the fleet chaos smoke kills a
// replica mid-flood and asserts on the census lines afterwards.
func runFlood(cl *hubclient.Client, total, workers, vertices int, seed int64) error {
	if workers < 1 {
		workers = 1
	}
	var (
		next    atomic.Int64
		ok      atomic.Int64
		busy    atomic.Int64
		timeout atomic.Int64
		failed  atomic.Int64
	)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)))
			for next.Add(1) <= int64(total) {
				u := graph.NodeID(rng.Intn(vertices))
				v := graph.NodeID(rng.Intn(vertices))
				_, err := cl.Distance(u, v)
				switch statusOf(err) {
				case wire.StatusOK:
					ok.Add(1)
				case wire.StatusOverloaded:
					busy.Add(1)
				case wire.StatusTimeout:
					timeout.Add(1)
				default:
					failed.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	st := cl.Stats()
	fmt.Printf("flood: %d queries in %v (%.0f q/s): %d ok, %d busy, %d timeout, %d failed\n",
		total, elapsed.Round(time.Millisecond), float64(total)/elapsed.Seconds(),
		ok.Load(), busy.Load(), timeout.Load(), failed.Load())
	fmt.Printf("client: %d frames (%.1f queries/frame), %d retries, %d hedges (%d wins), %d late drops, %d pool-exhausted, %d transport errors\n",
		st.Frames, float64(st.Queries)/float64(max(st.Frames, 1)), st.Retries,
		st.Hedges, st.HedgeWins, st.LateDrops, st.PoolExhausted, st.TransportErrors)
	if ok.Load() == 0 {
		return fmt.Errorf("hubq: flood finished with zero successful queries")
	}
	return nil
}
