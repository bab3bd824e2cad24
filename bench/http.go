package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"hublab/internal/graph"
)

// httpConn is one keep-alive HTTP/1.1 connection. Requests are written
// by hand and replies parsed with net/http's reader: a full http.Client
// would spend more harness CPU per request than hubserve spends serving
// it, and would decide for itself how many connections to open.
type httpConn struct {
	nc   net.Conn
	br   *bufio.Reader
	req  []byte
	body bytes.Buffer
}

// dialHTTP connects to addr, retrying while the listener is not up yet;
// it gives up at the deadline or when exited fires.
func dialHTTP(addr string, deadline time.Duration, exited <-chan struct{}) (*httpConn, error) {
	t := time.Now()
	for {
		nc, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			return &httpConn{nc: nc, br: bufio.NewReaderSize(nc, 16<<10)}, nil
		}
		select {
		case <-exited:
			return nil, errors.New("bench: hubserve exited before listening")
		default:
		}
		if time.Since(t) > deadline {
			return nil, fmt.Errorf("bench: connecting to hubserve: %w", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (c *httpConn) close() { c.nc.Close() }

// httpTimeout bounds one request; the slowest verb (/ecc) takes tens of
// milliseconds.
const httpTimeout = 10 * time.Second

// get issues GET target and returns the status and body. The body
// aliases a buffer reused by the next call.
func (c *httpConn) get(target string) (int, []byte, error) {
	c.req = append(c.req[:0], "GET "...)
	c.req = append(c.req, target...)
	return c.roundTrip()
}

// getUV issues GET path?u=U&v=V (or ?v=V when u < 0).
func (c *httpConn) getUV(path string, u, v graph.NodeID) (int, []byte, error) {
	c.req = append(c.req[:0], "GET "...)
	c.req = append(c.req, path...)
	if u >= 0 {
		c.req = append(c.req, "?u="...)
		c.req = strconv.AppendInt(c.req, int64(u), 10)
		c.req = append(c.req, "&v="...)
	} else {
		c.req = append(c.req, "?v="...)
	}
	c.req = strconv.AppendInt(c.req, int64(v), 10)
	return c.roundTrip()
}

func (c *httpConn) roundTrip() (int, []byte, error) {
	c.req = append(c.req, " HTTP/1.1\r\nHost: bench\r\n\r\n"...)
	if err := c.nc.SetDeadline(time.Now().Add(httpTimeout)); err != nil {
		return 0, nil, err
	}
	if _, err := c.nc.Write(c.req); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, err
	}
	c.body.Reset()
	_, err = io.Copy(&c.body, resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, c.body.Bytes(), nil
}

// jsonInt extracts the integer value of "key": from a flat JSON object
// as hubserve prints it; null reads as (0, true, isNull=true).
func jsonInt(body []byte, key string) (val int64, isNull, ok bool) {
	i := bytes.Index(body, []byte(`"`+key+`":`))
	if i < 0 {
		return 0, false, false
	}
	rest := body[i+len(key)+3:]
	if bytes.HasPrefix(rest, []byte("null")) {
		return 0, true, true
	}
	j := 0
	for j < len(rest) && (rest[j] == '-' || rest[j] >= '0' && rest[j] <= '9') {
		j++
	}
	val, err := strconv.ParseInt(string(rest[:j]), 10, 64)
	return val, false, err == nil
}

// jsonPath extracts the "path":[...] vertex list, appended to dst; a
// null path appends nothing.
func jsonPath(body []byte, dst []graph.NodeID) ([]graph.NodeID, bool) {
	i := bytes.Index(body, []byte(`"path":`))
	if i < 0 {
		return dst, false
	}
	rest := body[i+7:]
	if bytes.HasPrefix(rest, []byte("null")) {
		return dst, true
	}
	if len(rest) == 0 || rest[0] != '[' {
		return dst, false
	}
	end := bytes.IndexByte(rest, ']')
	if end < 0 {
		return dst, false
	}
	for _, f := range bytes.Split(rest[1:end], []byte(",")) {
		x, err := strconv.ParseInt(string(f), 10, 32)
		if err != nil {
			return dst, false
		}
		dst = append(dst, graph.NodeID(x))
	}
	return dst, true
}

// httpDoor drives a hubserve child, one keep-alive connection per
// caller.
type httpDoor struct {
	ch    *child
	conns []*httpConn
	// sent counts the verb requests per connection; /stats and /healthz
	// do not pass through the server and are not counted by it.
	sent []uint64
}

// openHTTPDoor starts cfg.hubserve on the container at path, connects,
// and warms the eccentricity index (its first use builds the inverted
// lists, a one-time cost set-up pays).
func openHTTPDoor(cfg config, path string, mmap bool) (*httpDoor, error) {
	ch, err := startHubserve(cfg.hubserve, path, mmap)
	if err != nil {
		return nil, err
	}
	d := &httpDoor{ch: ch, sent: make([]uint64, cfg.callers)}
	for i := 0; i < cfg.callers; i++ {
		c, err := dialHTTP(ch.addr, startDeadline, ch.exited)
		if err != nil {
			d.close()
			return nil, err
		}
		d.conns = append(d.conns, c)
	}
	if _, err := d.ecc(0, 0); err != nil {
		d.close()
		return nil, fmt.Errorf("bench: warming /ecc: %w", err)
	}
	return d, nil
}

func (d *httpDoor) request(conn int, path string, u, v graph.NodeID) ([]byte, error) {
	d.sent[conn]++
	status, body, err := d.conns[conn].getUV(path, u, v)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("bench: %s answered HTTP %d", path, status)
	}
	return body, nil
}

func (d *httpDoor) distance(conn int, pairs [][2]graph.NodeID, out []graph.Weight) (failed int) {
	for i, p := range pairs {
		out[i] = -1
		body, err := d.request(conn, "/distance", p[0], p[1])
		if err != nil {
			failed++
			continue
		}
		dist, null, ok := jsonInt(body, "distance")
		switch {
		case !ok:
			failed++
		case null:
			out[i] = graph.Infinity
		default:
			out[i] = graph.Weight(dist)
		}
	}
	return failed
}

func (d *httpDoor) path(conn int, u, v graph.NodeID, dst []graph.NodeID) ([]graph.NodeID, error) {
	body, err := d.request(conn, "/path", u, v)
	if err != nil {
		return dst, err
	}
	dst, ok := jsonPath(body, dst)
	if !ok {
		return dst, fmt.Errorf("bench: unreadable /path body %q", body)
	}
	return dst, nil
}

func (d *httpDoor) ecc(conn int, v graph.NodeID) (graph.Weight, error) {
	body, err := d.request(conn, "/ecc", -1, v)
	if err != nil {
		return 0, err
	}
	ecc, _, ok := jsonInt(body, "eccentricity")
	if !ok {
		return 0, fmt.Errorf("bench: unreadable /ecc body %q", body)
	}
	return graph.Weight(ecc), nil
}

func (d *httpDoor) childPID() int { return d.ch.cmd.Process.Pid }

// childStats reads one counter from the child's /stats.
func (d *httpDoor) childStat(key string) (int64, error) {
	status, body, err := d.conns[0].get("/stats")
	if err != nil {
		return 0, err
	}
	val, _, ok := jsonInt(body, key)
	if status != http.StatusOK || !ok {
		return 0, fmt.Errorf("bench: unreadable /stats (HTTP %d) %q", status, body)
	}
	return val, nil
}

// close checks that the child served exactly the requests sent, then
// stops and reaps it whatever the check said.
func (d *httpDoor) close() error {
	var err error
	if len(d.conns) == len(d.sent) && len(d.conns) > 0 {
		var sent uint64
		for _, s := range d.sent {
			sent += s
		}
		var served int64
		if served, err = d.childStat("served"); err == nil && uint64(served) != sent {
			err = fmt.Errorf("bench: hubserve served %d requests, harness sent %d", served, sent)
		}
	}
	for _, c := range d.conns {
		c.close()
	}
	if serr := d.ch.stop(); err == nil && serr != nil {
		err = fmt.Errorf("bench: hubserve exit: %w\n%s", serr, d.ch.stderr.String())
	}
	return err
}
