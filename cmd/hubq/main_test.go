package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"hublab/internal/hubclient"
	"hublab/internal/index/indextest"
	"hublab/internal/netserve"
	"hublab/internal/server"
)

// startFleet runs one in-process replica (distance |u-v| over 1000
// vertices) and returns a client of it.
func startFleet(t *testing.T) *hubclient.Client {
	t.Helper()
	srv := server.New(&indextest.Fixed{N: 1000}, server.Options{Shards: 2})
	t.Cleanup(srv.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d := netserve.New(srv, netserve.Options{})
	go func() { _ = d.Serve(ln) }()
	t.Cleanup(d.Close)
	cl, err := hubclient.New(hubclient.Options{Replicas: []string{ln.Addr().String()}, Name: "hubq-test"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

// TestServeLinesBatchesBufferedRuns replays a buffered script: runs of
// distance lines must be answered in input order with the usual lines,
// interleaved correctly with the lines that cannot join a run, and in
// far fewer frames than lines.
func TestServeLinesBatchesBufferedRuns(t *testing.T) {
	cl := startFleet(t)
	var in, want strings.Builder
	for i := 0; i < 150; i++ {
		fmt.Fprintf(&in, "%d %d\n", i, 3*i)
		fmt.Fprintf(&want, "%d %d %d\n", i, 3*i, 2*i)
	}
	in.WriteString("\n7 x\nnonsense\n5 2000\n")
	want.WriteString("error: bad query \"7 x\" (want: u v)\n")
	want.WriteString("error: bad query \"nonsense\" (want: u v | PATH u v | ECC v)\n")
	want.WriteString("error: vertex out of range\n")
	for i := 0; i < 10; i++ {
		fmt.Fprintf(&in, "%d 0\r\n", i)
		fmt.Fprintf(&want, "%d 0 %d\n", i, i)
	}
	in.WriteString("quit\n1 2\n")
	var out bytes.Buffer
	if err := serveLines(cl, strings.NewReader(in.String()), &out); err != nil {
		t.Fatal(err)
	}
	if out.String() != want.String() {
		t.Fatalf("answers differ from the line-at-a-time transcript:\ngot:\n%s\nwant:\n%s", out.String(), want.String())
	}
	// The first 150 lines are three runs (64+64+22); "5 2000" and the
	// ten after it are a fourth: 4 frames for 161 distance queries.
	if st := cl.Stats(); st.Queries != 161 || st.Frames != 4 {
		t.Errorf("%d queries in %d frames, want 161 in 4", st.Queries, st.Frames)
	}
}

// TestServeLinesAnswersInteractiveLineAtOnce feeds one line at a time
// through a pipe: each answer must arrive before the next line is
// written — batching may never wait for input that is not there.
func TestServeLinesAnswersInteractiveLineAtOnce(t *testing.T) {
	cl := startFleet(t)
	inR, inW := io.Pipe()
	outR, outW := io.Pipe()
	done := make(chan error, 1)
	go func() {
		err := serveLines(cl, inR, outW)
		outW.Close()
		done <- err
	}()
	answers := make(chan string)
	go func() {
		buf := make([]byte, 256)
		for {
			n, err := outR.Read(buf)
			if n > 0 {
				answers <- string(buf[:n])
			}
			if err != nil {
				close(answers)
				return
			}
		}
	}()
	for i := 1; i <= 3; i++ {
		if _, err := fmt.Fprintf(inW, "%d %d\n", i, 10*i); err != nil {
			t.Fatal(err)
		}
		select {
		case got := <-answers:
			if want := fmt.Sprintf("%d %d %d\n", i, 10*i, 9*i); got != want {
				t.Fatalf("answer %q, want %q", got, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("line %d unanswered while stdin stays open", i)
		}
	}
	inW.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
