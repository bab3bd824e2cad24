package wire

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"hublab/internal/graph"
)

func TestParseLine(t *testing.T) {
	for _, tc := range []struct {
		line string
		want Query
		err  string // "" = accepted
	}{
		{"3 17", Query{Kind: QDist, U: 3, V: 17}, ""},
		{"  3\t17  ", Query{Kind: QDist, U: 3, V: 17}, ""},
		{"-1 3", Query{Kind: QDist, U: -1, V: 3}, ""}, // parses; the core refuses it
		{"5 99999", Query{Kind: QDist, U: 5, V: 99999}, ""},
		{"PATH 0 59", Query{Kind: QPath, U: 0, V: 59}, ""},
		{"ECC 3", Query{Kind: QEcc, U: 3}, ""},
		{"bad line", Query{}, `bad query "bad line" (want: u v)`},
		{"7 x", Query{}, `bad query "7 x" (want: u v)`},
		{"1 2.5", Query{}, `bad query "1 2.5" (want: u v)`},
		{"3 99999999999", Query{}, `bad query "3 99999999999" (want: u v)`}, // not an int32
		{"1 2 3", Query{}, `bad query "1 2 3" (want: u v | PATH u v | ECC v)`},
		{"1 2 3 4 5", Query{}, `bad query "1 2 3 4 5" (want: u v | PATH u v | ECC v)`},
		{"nonsense", Query{}, `bad query "nonsense" (want: u v | PATH u v | ECC v)`},
		{" ", Query{}, `bad query " " (want: u v | PATH u v | ECC v)`},
		{"PATH 0", Query{}, `bad query "PATH 0" (want: PATH u v)`},
		{"PATH x y", Query{}, `bad query "PATH x y" (want: PATH u v)`},
		{"PATH 0 1 2", Query{}, `bad query "PATH 0 1 2" (want: PATH u v)`},
		{"ECC", Query{}, `bad query "ECC" (want: ECC v)`},
		{"ECC zz", Query{}, `bad query "ECC zz" (want: ECC v)`},
		{"ECC 1 2", Query{}, `bad query "ECC 1 2" (want: ECC v)`},
		{"path 0 1", Query{}, `bad query "path 0 1" (want: u v | PATH u v | ECC v)`}, // verbs are upper case
	} {
		q, err := ParseLine(tc.line)
		switch {
		case tc.err == "" && (err != nil || q != tc.want):
			t.Errorf("ParseLine(%q) = %+v, %v; want %+v", tc.line, q, err, tc.want)
		case tc.err != "" && (err == nil || err.Error() != tc.err):
			t.Errorf("ParseLine(%q) error = %v; want %s", tc.line, err, tc.err)
		}
	}
}

func TestWriteAnswer(t *testing.T) {
	dist, path, ecc := Query{Kind: QDist, U: 3, V: 17}, Query{Kind: QPath, U: 0, V: 2}, Query{Kind: QEcc, U: 9}
	for _, tc := range []struct {
		q    Query
		r    Result
		want string
	}{
		{dist, Result{Dist: 14}, "3 17 14\n"},
		{dist, Result{Dist: graph.Infinity}, "3 17 inf\n"},
		{path, Result{Path: []graph.NodeID{0, 5, 2}}, "path 0 2 0 5 2\n"},
		{path, Result{}, "path 0 2 inf\n"},
		{ecc, Result{Dist: 6, Far: 41}, "ecc 9 6 41\n"},
		{dist, Result{Status: StatusOverloaded}, "BUSY\n"},
		{path, Result{Status: StatusTimeout}, "TIMEOUT\n"},
		{dist, Result{Status: StatusBadRequest, Dist: graph.Infinity}, "error: vertex out of range\n"},
		{ecc, Result{Status: StatusUnsupported}, "error: query kind unsupported by the served index\n"},
		{path, Result{Status: StatusUnsupported}, "error: query kind unsupported by the served index\n"},
		{dist, Result{Status: StatusBackendFault}, "error: backend fault while serving the query\n"},
		{dist, Result{Status: StatusClosed}, "error: shutting down\n"},
		{dist, Result{Status: StatusInternal}, "error: internal error\n"},
	} {
		var out strings.Builder
		WriteAnswer(&out, tc.q, &tc.r)
		if out.String() != tc.want {
			t.Errorf("WriteAnswer(%+v, %+v) = %q, want %q", tc.q, tc.r, out.String(), tc.want)
		}
	}
}

// TestStatusErrorRoundTrip pins the one error family: every status has
// one sentinel, StatusOf inverts StatusError through any wrapping, and
// an error from outside the family is StatusInternal.
func TestStatusErrorRoundTrip(t *testing.T) {
	if StatusError(StatusOK) != nil || StatusOf(nil) != StatusOK {
		t.Fatal("StatusOK must be the nil error")
	}
	seen := map[error]bool{}
	for status := uint8(StatusOverloaded); status <= statusMax; status++ {
		err := StatusError(status)
		if err == nil || seen[err] {
			t.Fatalf("status %d: sentinel %v missing or shared", status, err)
		}
		seen[err] = true
		if got := StatusOf(fmt.Errorf("replica 3: %w", err)); got != status {
			t.Errorf("StatusOf(wrapped %v) = %d, want %d", err, got, status)
		}
		if !strings.Contains(err.Error(), StatusText(status)) {
			t.Errorf("sentinel %q does not carry the status text %q", err, StatusText(status))
		}
	}
	if got := StatusOf(errors.New("disk on fire")); got != StatusInternal {
		t.Errorf("StatusOf(foreign error) = %d, want StatusInternal", got)
	}
}

// TestLineCodecShedZeroAlloc pins the codec half of the doors' shed
// path: parsing a well-formed line and answering BUSY or TIMEOUT cost
// no allocation.
func TestLineCodecShedZeroAlloc(t *testing.T) {
	w := bufio.NewWriter(io.Discard)
	for _, line := range []string{"3 9", "PATH 3 9", "ECC 3"} {
		for _, status := range []uint8{StatusOverloaded, StatusTimeout} {
			res := Result{Status: status}
			if allocs := testing.AllocsPerRun(200, func() {
				q, err := ParseLine(line)
				if err != nil {
					t.Fatal(err)
				}
				WriteAnswer(w, q, &res)
				w.Reset(io.Discard)
			}); allocs != 0 {
				t.Errorf("%q answered status %d costs %v allocs/op, want 0", line, status, allocs)
			}
		}
	}
}
