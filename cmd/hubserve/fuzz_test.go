package main

import (
	"fmt"
	"strings"
	"testing"

	"hublab/internal/graph"
	"hublab/internal/wire"
)

// FuzzLineProtocol hammers the shared line codec (internal/wire, the
// grammar of this door and of hubq) with arbitrary bytes: ParseLine
// must never panic and must reject with a "bad query" error, and for
// every line it accepts, parse∘render is stable — the answer
// WriteAnswer renders echoes the query, so its verb and ids parse back
// to the very same query, and every non-OK status renders as one of the
// door's fixed words.
func FuzzLineProtocol(f *testing.F) {
	for _, seed := range []string{
		"0 1\n",
		"3 17\n59 0\nquit\n",
		"PATH 0 59\n",
		"PATH 5 5\nPATH 0 1\n",
		"ECC 3\nECC 0\n",
		"PATH 0\nPATH x y\nECC\nECC zz\n",
		"PATH -1 2\nECC 999\n",
		"1 2 3\n-5 7\nbad line\n\n\n",
		"quit\nPATH 0 1\n",
		"PATH 0 1 2\nECC 1 2\n",
		"\x00\x01\xff\n",
		strings.Repeat("0 1\n", 50),
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, line := range strings.Split(string(data), "\n") {
			q, err := wire.ParseLine(line)
			if err != nil {
				if !strings.HasPrefix(err.Error(), "bad query ") {
					t.Fatalf("ParseLine(%q) rejected with %q", line, err)
				}
				continue
			}
			var out strings.Builder
			res := wire.Result{Kind: q.Kind, Dist: 7, Far: 3, Path: []graph.NodeID{q.U, q.V}}
			wire.WriteAnswer(&out, q, &res)
			fields := strings.Fields(out.String())
			var echo string
			switch q.Kind {
			case wire.QDist:
				echo = fmt.Sprintf("%s %s", fields[0], fields[1])
			case wire.QPath:
				echo = fmt.Sprintf("PATH %s %s", fields[1], fields[2])
			case wire.QEcc:
				echo = fmt.Sprintf("ECC %s", fields[1])
			}
			if q2, err := wire.ParseLine(echo); err != nil || q2 != q {
				t.Fatalf("%q parsed to %+v, its answer %q echoes %q = %+v (%v)", line, q, out.String(), echo, q2, err)
			}
			for status := uint8(wire.StatusOverloaded); status <= wire.StatusInternal; status++ {
				out.Reset()
				res.Status = status
				wire.WriteAnswer(&out, q, &res)
				if got := out.String(); got != "BUSY\n" && got != "TIMEOUT\n" && got != "error: "+wire.StatusText(status)+"\n" {
					t.Fatalf("status %d renders %q", status, got)
				}
			}
		}
	})
}
