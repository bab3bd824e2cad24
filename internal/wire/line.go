package wire

import (
	"fmt"
	"io"
	"strconv"

	"hublab/internal/graph"
)

// This file is the line grammar — the text codec of the same Query and
// Result the frames carry. hubserve's line door and hubq both parse
// with ParseLine and answer with WriteAnswer, which is what makes a
// fleet's output diff byte for byte against a single node's.
//
//	u v       ->  "u v dist"               ("u v inf" when unreachable)
//	PATH u v  ->  "path u v v0 v1 ... vk"  ("path u v inf")
//	ECC v     ->  "ecc v <eccentricity> <farthest>"
//
// A non-OK status answers "BUSY" (StatusOverloaded), "TIMEOUT"
// (StatusTimeout) or "error: <StatusText>"; a line ParseLine rejects
// answers "error: <the parse error>" (WriteRejection).

// splitLine splits a protocol line into at most 4 whitespace-separated
// fields without allocating (strings.Fields heap-allocates its result
// slice on every call — on a flooded connection that is a per-shed
// allocation). ok is false when a fifth field exists; no valid query
// has more than three, so the caller rejects the line either way.
func splitLine(line string, dst *[4]string) (int, bool) {
	n, i := 0, 0
	for i < len(line) {
		for i < len(line) && (line[i] == ' ' || line[i] == '\t') {
			i++
		}
		if i >= len(line) {
			break
		}
		j := i
		for j < len(line) && line[j] != ' ' && line[j] != '\t' {
			j++
		}
		if n == len(dst) {
			return n, false
		}
		dst[n] = line[i:j]
		n++
		i = j
	}
	return n, true
}

// ParseVertex parses a decimal vertex id. Negative ids parse — whether
// an id names a vertex is the serving snapshot's call, answered as
// StatusBadRequest — but anything that is not an int32 does not.
func ParseVertex(s string) (graph.NodeID, bool) {
	x, err := strconv.ParseInt(s, 10, 32)
	return graph.NodeID(x), err == nil
}

// ParseLine parses one query line. Field counts are strict — Sscanf
// would silently ignore trailing garbage ("1 2 3", "1 2.5") and answer
// a different query than the client sent. It allocates only to build
// the error of a rejected line.
func ParseLine(line string) (Query, error) {
	var f [4]string
	nf, ok := splitLine(line, &f)
	q, ids, want := Query{Kind: QDist}, f[:0], "u v | PATH u v | ECC v"
	switch {
	case !ok:
	case nf > 0 && f[0] == "PATH":
		q.Kind, want = QPath, "PATH u v"
		if nf == 3 {
			ids = f[1:3]
		}
	case nf > 0 && f[0] == "ECC":
		q.Kind, want = QEcc, "ECC v"
		if nf == 2 {
			ids = f[1:2]
		}
	case nf == 2:
		ids, want = f[:2], "u v"
	}
	ok = len(ids) > 0
	if ok {
		q.U, ok = ParseVertex(ids[0])
	}
	if ok && len(ids) == 2 {
		q.V, ok = ParseVertex(ids[1])
	}
	if !ok {
		return Query{}, fmt.Errorf("bad query %q (want: %s)", line, want)
	}
	return q, nil
}

// WriteRejection writes the answer line of a line ParseLine rejected
// with err.
func WriteRejection(w io.Writer, err error) {
	fmt.Fprintf(w, "error: %v\n", err)
}

// Constant answer lines, written via io.WriteString so answering a shed
// or timed-out query allocates nothing: a flooding client the admission
// controller is rejecting must not cost the server a per-answer heap
// envelope.
const (
	busyLine    = "BUSY\n"
	timeoutLine = "TIMEOUT\n"
)

// WriteAnswer writes the answer line of q resolved to r. Write errors
// are left to w: both callers hand in a bufio.Writer, whose error is
// sticky and surfaces at their Flush.
func WriteAnswer(w io.Writer, q Query, r *Result) {
	switch {
	case r.Status == StatusOverloaded:
		io.WriteString(w, busyLine)
	case r.Status == StatusTimeout:
		io.WriteString(w, timeoutLine)
	case r.Status != StatusOK:
		fmt.Fprintf(w, "error: %s\n", StatusText(r.Status))
	case q.Kind == QEcc:
		fmt.Fprintf(w, "ecc %d %d %d\n", q.U, r.Dist, r.Far)
	case q.Kind == QPath && len(r.Path) == 0:
		fmt.Fprintf(w, "path %d %d inf\n", q.U, q.V)
	case q.Kind == QPath:
		fmt.Fprintf(w, "path %d %d", q.U, q.V)
		for _, x := range r.Path {
			fmt.Fprintf(w, " %d", x)
		}
		io.WriteString(w, "\n")
	case r.Dist >= graph.Infinity:
		fmt.Fprintf(w, "%d %d inf\n", q.U, q.V)
	default:
		fmt.Fprintf(w, "%d %d %d\n", q.U, q.V, r.Dist)
	}
}
