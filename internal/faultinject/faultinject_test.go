package faultinject

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// arm is Enable with test cleanup, so no test leaks an armed registry
// into the rest of the run.
func arm(t *testing.T, spec string, seed uint64) {
	t.Helper()
	if err := Enable(spec, seed); err != nil {
		t.Fatalf("Enable(%q): %v", spec, err)
	}
	t.Cleanup(Disable)
}

func TestDisabledFireIsNil(t *testing.T) {
	Disable()
	if Enabled() {
		t.Fatal("Enabled() after Disable")
	}
	if err := Fire("anything"); err != nil {
		t.Fatalf("disabled Fire = %v", err)
	}
	var buf bytes.Buffer
	if w := WrapWriter("anything", &buf); w != &buf {
		t.Fatal("disabled WrapWriter did not pass the writer through")
	}
}

func TestErrorTriggerEveryN(t *testing.T) {
	arm(t, "p1:error:every=3", 1)
	var errs int
	for i := 0; i < 12; i++ {
		if err := Fire("p1"); err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("err = %v, want ErrInjected", err)
			}
			errs++
		}
	}
	if errs != 4 {
		t.Fatalf("every=3 fired %d of 12 visits, want 4", errs)
	}
	if Fired("p1") != 4 {
		t.Fatalf("Fired = %d, want 4", Fired("p1"))
	}
}

func TestAfterAndTimes(t *testing.T) {
	arm(t, "p2:error:after=5,times=2", 1)
	var errs int
	for i := 0; i < 20; i++ {
		if Fire("p2") != nil {
			errs++
			if i < 5 {
				t.Fatalf("fired at visit %d despite after=5", i)
			}
		}
	}
	if errs != 2 {
		t.Fatalf("times=2 fired %d times", errs)
	}
}

func TestPanicTrigger(t *testing.T) {
	arm(t, "p3:panic", 1)
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("panic trigger did not panic")
		}
		if !strings.Contains(p.(string), "p3") {
			t.Fatalf("panic message %v does not name the point", p)
		}
	}()
	Fire("p3")
}

func TestDelayTrigger(t *testing.T) {
	arm(t, "p4:delay:d=30ms", 1)
	start := time.Now()
	if err := Fire("p4"); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Fatalf("delay trigger slept %v, want ≥ 30ms", d)
	}
}

// TestProbabilisticDeterminism pins that the same spec and seed replay
// the same fault schedule — the property that makes chaos runs
// debuggable — and that a different seed gives a different one.
func TestProbabilisticDeterminism(t *testing.T) {
	schedule := func(seed uint64) string {
		if err := Enable("p5:error:p=0.5", seed); err != nil {
			t.Fatal(err)
		}
		defer Disable()
		var b strings.Builder
		for i := 0; i < 64; i++ {
			if Fire("p5") != nil {
				b.WriteByte('x')
			} else {
				b.WriteByte('.')
			}
		}
		return b.String()
	}
	a, b := schedule(7), schedule(7)
	if a != b {
		t.Fatalf("same seed, different schedules:\n%s\n%s", a, b)
	}
	c := schedule(8)
	if a == c {
		t.Fatalf("different seeds, same schedule: %s", a)
	}
	if !strings.Contains(a, "x") || !strings.Contains(a, ".") {
		t.Fatalf("p=0.5 schedule is degenerate: %s", a)
	}
}

func TestShortWriteTrigger(t *testing.T) {
	arm(t, "pw:shortwrite:n=10", 1)
	var buf bytes.Buffer
	w := WrapWriter("pw", &buf)
	if w == &buf {
		t.Fatal("shortwrite trigger did not wrap the writer")
	}
	n, err := w.Write(bytes.Repeat([]byte{0xab}, 25))
	if n != 10 || !errors.Is(err, ErrInjected) {
		t.Fatalf("Write = (%d, %v), want (10, ErrInjected)", n, err)
	}
	if buf.Len() != 10 {
		t.Fatalf("underlying writer got %d bytes, want 10", buf.Len())
	}
	if _, err := w.Write([]byte{1}); !errors.Is(err, ErrInjected) {
		t.Fatalf("write after exhaustion = %v, want ErrInjected", err)
	}
	// Subsequent wraps on a single-fire... shortwrite with no times cap
	// re-fires each wrap; with times=1 it must not.
	arm(t, "pw:shortwrite:n=10,times=1", 1)
	var b2 bytes.Buffer
	if w := WrapWriter("pw", &b2); w == &b2 {
		t.Fatal("first wrap after re-arm did not fire")
	}
	if w := WrapWriter("pw", &b2); w != &b2 {
		t.Fatal("times=1 shortwrite fired twice")
	}
}

func TestSpecErrors(t *testing.T) {
	for _, spec := range []string{
		"nokind",
		"p:badkind",
		"p:error:junk",
		"p:error:p=1.5",
		"p:delay:d=notaduration",
		"p:error:wat=1",
	} {
		if err := Enable(spec, 1); err == nil {
			Disable()
			t.Errorf("Enable(%q) accepted a malformed spec", spec)
		}
	}
	if Enabled() {
		t.Fatal("failed Enable left the registry armed")
	}
}

func TestEnableFromEnv(t *testing.T) {
	t.Setenv("HUBLAB_FAULTS", "envpt:error:every=1")
	t.Setenv("HUBLAB_FAULTS_SEED", "9")
	spec, armed, err := EnableFromEnv()
	if err != nil || !armed || spec == "" {
		t.Fatalf("EnableFromEnv = (%q, %v, %v)", spec, armed, err)
	}
	t.Cleanup(Disable)
	if err := Fire("envpt"); !errors.Is(err, ErrInjected) {
		t.Fatalf("env-armed point did not fire: %v", err)
	}
	if got := Points(); len(got) != 1 || got[0] != "envpt" {
		t.Fatalf("Points = %v", got)
	}
}

// TestConcurrentFire drives an armed point from many goroutines under
// the race detector: the registry must be lock-free-safe and the fire
// count exact.
func TestConcurrentFire(t *testing.T) {
	arm(t, "pc:error:every=10", 3)
	const goroutines, visits = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < visits; i++ {
				Fire("pc")
			}
		}()
	}
	wg.Wait()
	if got := Fired("pc"); got != goroutines*visits/10 {
		t.Fatalf("Fired = %d, want %d", got, goroutines*visits/10)
	}
}

// BenchmarkE22FireDisabled pins the zero-cost-when-disabled contract of
// the fault-injection registry: with no faults armed, every hook on the
// serving hot path (worker dispatch, warm, load, save) costs one atomic
// load and no allocations. This is the number that justifies leaving
// the hooks compiled into production binaries.
func BenchmarkE22FireDisabled(b *testing.B) {
	Disable()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := Fire(PointServerWorker); err != nil {
			b.Fatal(err)
		}
	}
}
