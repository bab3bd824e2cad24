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
// once), timed-out ones "TIMEOUT". Because answers are printed in
// input order, line mode is drop-in comparable with a single
// hubserve's output: diff the two to check a fleet serves exactly what
// one node serves. Consecutive distance lines that arrive together (a
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
	"strconv"
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

// distRun is a run of consecutive distance lines awaiting one
// DistanceBatch, with its reusable answer storage.
type distRun struct {
	lines [][2]int // the ids as typed, echoed in the answers
	pairs [][2]graph.NodeID
	out   []graph.Weight
	errs  []error
}

// flush answers the run as one batch, in input order, with the same
// lines a query at a time would have produced.
func (r *distRun) flush(cl *hubclient.Client, w io.Writer) {
	if len(r.lines) == 0 {
		return
	}
	r.pairs = r.pairs[:0]
	for _, l := range r.lines {
		r.pairs = append(r.pairs, [2]graph.NodeID{graph.NodeID(l[0]), graph.NodeID(l[1])})
	}
	if cap(r.out) < len(r.pairs) {
		r.out = make([]graph.Weight, maxRun)
		r.errs = make([]error, maxRun)
	}
	cl.DistanceBatch(r.pairs, r.out, r.errs)
	for k, l := range r.lines {
		switch {
		case failLine(w, r.errs[k]):
		case r.out[k] >= graph.Infinity:
			fmt.Fprintf(w, "%d %d inf\n", l[0], l[1])
		default:
			fmt.Fprintf(w, "%d %d %d\n", l[0], l[1], r.out[k])
		}
	}
	r.lines = r.lines[:0]
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
		if len(run.lines) > 0 && (len(run.lines) == maxRun || !lineBuffered(br)) {
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
			fields := strings.Fields(line)
			if u, v, ok := distanceLine(fields); ok {
				run.lines = append(run.lines, [2]int{u, v})
			} else {
				run.flush(cl, w)
				pathBuf = serveLine(cl, line, fields, pathBuf, w)
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

// atoi parses a vertex id: a non-negative decimal.
func atoi(s string) (int, bool) {
	x, err := strconv.Atoi(s)
	return x, err == nil && x >= 0
}

// distanceLine reports whether fields are a well-formed "u v" distance
// query.
func distanceLine(fields []string) (u, v int, ok bool) {
	if len(fields) != 2 || fields[0] == "ECC" {
		return 0, 0, false
	}
	u, okU := atoi(fields[0])
	v, okV := atoi(fields[1])
	return u, v, okU && okV
}

// serveLine parses and answers one protocol line that is not a
// well-formed distance query (those travel in runs), returning the
// (possibly regrown) path buffer for reuse.
func serveLine(cl *hubclient.Client, line string, fields []string, pathBuf []graph.NodeID, w io.Writer) []graph.NodeID {
	switch {
	case len(fields) == 3 && fields[0] == "PATH":
		u, okU := atoi(fields[1])
		v, okV := atoi(fields[2])
		if !okU || !okV {
			fmt.Fprintf(w, "error: bad query %q (want: PATH u v)\n", line)
			return pathBuf
		}
		path, err := cl.Path(graph.NodeID(u), graph.NodeID(v), pathBuf[:0])
		pathBuf = path
		switch {
		case failLine(w, err):
		case len(path) == 0:
			fmt.Fprintf(w, "path %d %d inf\n", u, v)
		default:
			fmt.Fprintf(w, "path %d %d", u, v)
			for _, x := range path {
				fmt.Fprintf(w, " %d", x)
			}
			fmt.Fprintf(w, "\n")
		}
	case len(fields) == 2 && fields[0] == "ECC":
		v, okV := atoi(fields[1])
		if !okV {
			fmt.Fprintf(w, "error: bad query %q (want: ECC v)\n", line)
			return pathBuf
		}
		far, ecc, err := cl.Eccentricity(graph.NodeID(v))
		if !failLine(w, err) {
			fmt.Fprintf(w, "ecc %d %d %d\n", v, ecc, far)
		}
	case len(fields) == 2:
		fmt.Fprintf(w, "error: bad query %q (want: u v)\n", line)
	default:
		fmt.Fprintf(w, "error: bad query %q (want: u v | PATH u v | ECC v)\n", line)
	}
	return pathBuf
}

// failLine writes the answer line for a failed query and reports
// whether err was non-nil. The BUSY/TIMEOUT vocabulary matches
// hubserve's line door; everything else is an error line.
func failLine(w io.Writer, err error) bool {
	switch {
	case err == nil:
		return false
	case errors.Is(err, wire.ErrOverloaded):
		fmt.Fprintf(w, "BUSY\n")
	case errors.Is(err, wire.ErrTimeout), errors.Is(err, hubclient.ErrDeadline):
		fmt.Fprintf(w, "TIMEOUT\n")
	case errors.Is(err, wire.ErrUnsupported):
		fmt.Fprintf(w, "error: query kind unsupported by the served index\n")
	default:
		fmt.Fprintf(w, "error: %v\n", err)
	}
	return true
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
				switch {
				case err == nil:
					ok.Add(1)
				case errors.Is(err, wire.ErrOverloaded):
					busy.Add(1)
				case errors.Is(err, wire.ErrTimeout), errors.Is(err, hubclient.ErrDeadline):
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
