package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"syscall"
	"time"
)

// freePort asks the kernel for an unused loopback port and releases it:
// hubserve takes an address to bind but never reports the one it bound,
// so ":0" cannot be passed through.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// child is a running hubserve process.
type child struct {
	cmd    *exec.Cmd
	addr   string
	stderr bytes.Buffer
	exited chan struct{}
	err    error
	// startMS is exec → first /healthz 200.
	startMS float64
}

// Deadlines around the child's life. hubserve's own graceful drain is
// bounded at 5 s; a child that outlives stopGrace is killed.
const (
	startDeadline = 20 * time.Second
	stopGrace     = 8 * time.Second
)

// startHubserve spawns bin on the container at index and waits until
// /healthz answers 200. On any failure the child is already stopped and
// reaped when it returns.
func startHubserve(bin, index string, mmap bool) (*child, error) {
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	args := []string{"-index", index, "-hotcache", fmt.Sprint(hotCacheEntries), "-http", addr}
	if mmap {
		args = append(args, "-mmap")
	}
	c := &child{cmd: exec.Command(bin, args...), addr: addr, exited: make(chan struct{})}
	c.cmd.Stderr = &c.stderr
	// Last line of defence: if the harness is killed outright, the kernel
	// takes the child with it.
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t := time.Now()
	if err := c.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		c.err = c.cmd.Wait()
		close(c.exited)
	}()
	hc, err := dialHTTP(addr, startDeadline, c.exited)
	if err == nil {
		defer hc.close()
		for time.Since(t) < startDeadline {
			status, _, rerr := hc.get("/healthz")
			if rerr != nil {
				err = rerr
				break
			}
			if status == 200 {
				c.startMS = msSince(t)
				return c, nil
			}
			time.Sleep(2 * time.Millisecond)
		}
		if err == nil {
			err = errors.New("bench: hubserve never became healthy")
		}
	}
	c.stop()
	return nil, fmt.Errorf("%w; hubserve stderr:\n%s", err, c.stderr.String())
}

// stop ends the child — SIGTERM for its graceful drain, SIGKILL if it
// overstays — and always reaps it. Safe to call more than once.
func (c *child) stop() error {
	select {
	case <-c.exited:
		return c.err
	default:
	}
	_ = c.cmd.Process.Signal(syscall.SIGTERM) // already-exited is fine: Wait below reaps it
	select {
	case <-c.exited:
	case <-time.After(stopGrace):
		_ = c.cmd.Process.Kill()
		<-c.exited
		return fmt.Errorf("bench: hubserve ignored SIGTERM for %v and was killed", stopGrace)
	}
	return c.err
}

// makeTempDir creates a fresh directory under base (itself created as
// needed) for one run's containers.
func makeTempDir(base string) (string, error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-*")
}
