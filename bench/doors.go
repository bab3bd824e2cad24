package main

import (
	"errors"
	"fmt"
	"net"

	"hublab/internal/flowctl"
	"hublab/internal/graph"
	"hublab/internal/hubclient"
	"hublab/internal/index"
	"hublab/internal/netserve"
	"hublab/internal/server"
)

// door is the outermost layer a workload's calls go through. conn names
// the caller (each caller owns one connection and one scratch area), so
// implementations need no locking of their own.
type door interface {
	// distance answers pairs into out and returns how many of them were
	// refused or failed (their out slots are then meaningless).
	distance(conn int, pairs [][2]graph.NodeID, out []graph.Weight) (failed int)
	path(conn int, u, v graph.NodeID, dst []graph.NodeID) ([]graph.NodeID, error)
	ecc(conn int, v graph.NodeID) (graph.Weight, error)
	// childPID is the serving process when it is not the harness itself
	// (0 otherwise): its CPU is added to the harness's and its VmRSS is
	// the resident_mb reading.
	childPID() int
	// close stops everything the door started, waits for it, and
	// reports a violated post-condition (a refused request the callers
	// did not see, a served count that disagrees with requests sent).
	close() error
}

// hotCacheEntries is the per-shard result cache every serving workload
// runs with (hubserve -hotcache 4096).
const hotCacheEntries = 4096

// serverOptions mirrors hubserve's defaults plus the hot cache.
func serverOptions() server.Options {
	return server.Options{OwnIndex: true, HotCache: hotCacheEntries, Admission: &flowctl.Options{}}
}

// openIndex reopens a saved container the way hubserve would.
func openIndex(path string, mmap bool) (*index.HubLabels, error) {
	if mmap {
		return index.LoadMmap(path)
	}
	return index.Load(path)
}

// openDoor opens sp's door over the container at path for cfg.callers
// callers.
func openDoor(sp spec, cfg config, path string) (door, error) {
	if sp.door == doorHTTP {
		return openHTTPDoor(cfg, path, sp.mmap)
	}
	idx, err := openIndex(path, sp.mmap)
	if err != nil {
		return nil, err
	}
	switch sp.door {
	case doorLib:
		return &libDoor{idx: idx}, nil
	case doorServer:
		return &serverDoor{srv: server.New(idx, serverOptions())}, nil
	default:
		return openWireDoor(server.New(idx, serverOptions()), cfg.callers, nil)
	}
}

// libDoor is the library user: index.Index called directly.
type libDoor struct{ idx *index.HubLabels }

func (d *libDoor) distance(_ int, pairs [][2]graph.NodeID, out []graph.Weight) int {
	for i, p := range pairs {
		out[i] = d.idx.Distance(p[0], p[1])
	}
	return 0
}

func (d *libDoor) path(_ int, u, v graph.NodeID, dst []graph.NodeID) ([]graph.NodeID, error) {
	return d.idx.AppendPath(dst, u, v)
}

func (d *libDoor) ecc(_ int, v graph.NodeID) (graph.Weight, error) { return d.idx.Eccentricity(v) }
func (d *libDoor) childPID() int                                   { return 0 }
func (d *libDoor) close() error                                    { return d.idx.Release() }

// benchClient is the admission identity of the harness's callers.
const benchClient = "bench"

// serverDoor is server.TryQuery in the harness process.
type serverDoor struct{ srv *server.Server }

func (d *serverDoor) distance(_ int, pairs [][2]graph.NodeID, out []graph.Weight) (failed int) {
	for i, p := range pairs {
		dist, err := d.srv.TryQuery(benchClient, p[0], p[1])
		if err != nil {
			failed++
		}
		out[i] = dist
	}
	return failed
}

func (d *serverDoor) path(_ int, u, v graph.NodeID, dst []graph.NodeID) ([]graph.NodeID, error) {
	return d.srv.TryPath(benchClient, u, v, dst)
}

func (d *serverDoor) ecc(_ int, v graph.NodeID) (graph.Weight, error) {
	return d.srv.TryEccentricity(benchClient, v)
}

func (d *serverDoor) childPID() int { return 0 }

func (d *serverDoor) close() error {
	d.srv.Close()
	return refusals(d.srv)
}

// refusals reports requests the server turned away or lost; every
// workload is sized so that none are.
func refusals(srv *server.Server) error {
	st := srv.Stats()
	if st.Rejected+st.Shed+st.Timeouts+st.Faulted+st.Panics != 0 {
		return fmt.Errorf("bench: server refused work: rejected=%d shed=%d timeouts=%d faulted=%d panics=%d",
			st.Rejected, st.Shed, st.Timeouts, st.Faulted, st.Panics)
	}
	return nil
}

// wireDoor is a netserve.Door on a loopback listener in the harness
// process, driven through hubclient.
type wireDoor struct {
	srv    *server.Server
	nd     *netserve.Door
	cl     *hubclient.Client
	addr   string
	served chan error
	errs   [][]error
}

// openWireDoor starts the binary door over srv. wrap, when non-nil,
// decorates the listener (the traced run's connection spy).
func openWireDoor(srv *server.Server, callers int, wrap func(net.Listener) net.Listener) (*wireDoor, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	addr := ln.Addr().String()
	if wrap != nil {
		ln = wrap(ln)
	}
	d := &wireDoor{srv: srv, nd: netserve.New(srv, netserve.Options{}), addr: addr, served: make(chan error, 1), errs: make([][]error, callers)}
	go func() { d.served <- d.nd.Serve(ln) }()
	// Defaults throughout; PoolSize is pinned to the caller count so the
	// door sees no more connections than callers.
	d.cl, err = hubclient.New(hubclient.Options{Replicas: []string{addr}, Name: benchClient, PoolSize: callers})
	if err != nil {
		d.nd.Close()
		<-d.served
		srv.Close()
		return nil, err
	}
	return d, nil
}

func (d *wireDoor) distance(conn int, pairs [][2]graph.NodeID, out []graph.Weight) (failed int) {
	if len(pairs) == 1 {
		dist, err := d.cl.Distance(pairs[0][0], pairs[0][1])
		out[0] = dist
		if err != nil {
			return 1
		}
		return 0
	}
	if cap(d.errs[conn]) < len(pairs) {
		d.errs[conn] = make([]error, len(pairs))
	}
	errs := d.errs[conn][:len(pairs)]
	d.cl.DistanceBatch(pairs, out, errs)
	for _, err := range errs {
		if err != nil {
			failed++
		}
	}
	return failed
}

func (d *wireDoor) path(_ int, u, v graph.NodeID, dst []graph.NodeID) ([]graph.NodeID, error) {
	return d.cl.Path(u, v, dst)
}

func (d *wireDoor) ecc(_ int, v graph.NodeID) (graph.Weight, error) {
	_, ecc, err := d.cl.Eccentricity(v)
	return ecc, err
}

func (d *wireDoor) childPID() int { return 0 }

func (d *wireDoor) close() error {
	d.cl.Close()
	d.nd.Close()
	if err := <-d.served; err != nil && !errors.Is(err, net.ErrClosed) {
		return fmt.Errorf("bench: binary door: %w", err)
	}
	d.srv.Close()
	if bad := d.nd.Stats().BadFrames; bad != 0 {
		return fmt.Errorf("bench: binary door dropped %d malformed frames", bad)
	}
	cs := d.cl.Stats()
	if cs.Retries+cs.TransportErrors+cs.PoolExhausted != 0 {
		return fmt.Errorf("bench: client saw retries=%d transport_errors=%d pool_exhausted=%d",
			cs.Retries, cs.TransportErrors, cs.PoolExhausted)
	}
	return refusals(d.srv)
}
