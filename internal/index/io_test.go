package index

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"hublab/internal/faultinject"
	"hublab/internal/gen"
	"hublab/internal/graph"
	"hublab/internal/hub"
	"hublab/internal/pll"
)

// saveFixture builds a small hub-labels index worth persisting.
func saveFixture(t *testing.T) *HubLabels {
	t.Helper()
	g, err := gen.Gnm(120, 220, 7)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := NewHubLabels(g)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// TestSaveCrashSafety pins the doc-comment contract of Save: a save that
// dies partway through (injected short write) never leaves a truncated
// container at the destination — the previous complete file keeps
// loading byte-identically, and no temp litter survives a subsequent
// CleanPartials.
func TestSaveCrashSafety(t *testing.T) {
	idx := saveFixture(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "labels.hli")

	// A good save first: this is the "previous complete file".
	if err := Save(path, idx, hub.ContainerOptions{}); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Crash the next save after 100 bytes.
	if err := faultinject.Enable("index.save.write:shortwrite:n=100", 1); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(faultinject.Disable)
	err = Save(path, idx, hub.ContainerOptions{})
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("short-write save err = %v, want ErrInjected", err)
	}
	faultinject.Disable()

	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("destination vanished after crashed save: %v", err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("crashed save modified the destination (%d bytes -> %d)", len(before), len(after))
	}
	if _, err := Load(path); err != nil {
		t.Fatalf("destination no longer loads after crashed save: %v", err)
	}

	// The crashed save's temp sibling was removed by Save's defer; even
	// if a hard crash had skipped the defer, CleanPartials must leave the
	// directory holding only complete containers.
	removed, err := CleanPartials(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 0 {
		t.Errorf("Save leaked temp files: %v", removed)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "labels.hli" {
		t.Errorf("directory not clean after crashed save: %v", entries)
	}
}

// TestCleanPartials pins that leftover ".hli-*" temp files (a crashed
// process that never ran Save's defer) are removed and real containers
// are untouched.
func TestCleanPartials(t *testing.T) {
	dir := t.TempDir()
	real := filepath.Join(dir, "labels.hli")
	junk := filepath.Join(dir, ".hli-12345")
	for _, p := range []string{real, junk} {
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	removed, err := CleanPartials(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 1 || removed[0] != junk {
		t.Fatalf("CleanPartials removed %v, want only %s", removed, junk)
	}
	if _, err := os.Stat(real); err != nil {
		t.Fatalf("CleanPartials touched the real container: %v", err)
	}
}

// TestQuarantine pins the corrupt-container flow: a torn file is
// detected as corrupt (IsCorrupt), moved aside by Quarantine, and a
// second quarantine of a recreated bad file replaces the first.
func TestQuarantine(t *testing.T) {
	idx := saveFixture(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "labels.hli")
	if err := Save(path, idx, hub.ContainerOptions{}); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Torn write: the first half of a valid container.
	if err := os.WriteFile(path, good[:len(good)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	_, lerr := Load(path)
	if lerr == nil {
		t.Fatal("torn container loaded successfully")
	}
	if !IsCorrupt(lerr) {
		t.Fatalf("torn container error %v not classified corrupt", lerr)
	}
	// Missing files are NOT corrupt — they must not be quarantined.
	if _, err := Load(filepath.Join(dir, "nope.hli")); err == nil || IsCorrupt(err) {
		t.Fatalf("missing file error misclassified: %v", err)
	}

	q, err := Quarantine(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("quarantined file still at %s", path)
	}
	qbytes, err := os.ReadFile(q)
	if err != nil || !bytes.Equal(qbytes, good[:len(good)/2]) {
		t.Fatalf("quarantine did not preserve the bytes: %v", err)
	}

	// A second bad file at the same path quarantines over the first.
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Quarantine(path); err != nil {
		t.Fatal(err)
	}
	qbytes, err = os.ReadFile(q)
	if err != nil || string(qbytes) != "garbage" {
		t.Fatalf("second quarantine did not replace the first: %q, %v", qbytes, err)
	}
}

// TestLoadFaultPoint pins that the injectable read point fires for both
// load paths — the hook E22's corrupt-reload storm leans on.
func TestLoadFaultPoint(t *testing.T) {
	idx := saveFixture(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "labels.hli")
	if err := Save(path, idx, hub.ContainerOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := faultinject.Enable("index.load:error:every=2", 1); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(faultinject.Disable)
	var failed int
	for i := 0; i < 4; i++ {
		load := Load
		if i%2 == 1 {
			load = LoadMmap
		}
		x, err := load(path)
		if err != nil {
			if !errors.Is(err, faultinject.ErrInjected) {
				t.Fatalf("load %d: %v", i, err)
			}
			failed++
			continue
		}
		x.Release()
	}
	if failed != 2 {
		t.Fatalf("every=2 failed %d of 4 loads", failed)
	}
}

// TestSaveStreamingByteIdentical pins that the streaming save path and
// the freeze-then-Save path put the same bytes on disk, in both
// layouts, and that the streamed file loads through both doors.
func TestSaveStreamingByteIdentical(t *testing.T) {
	g, err := gen.RoadLike(9, 8, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	l, err := pll.BuildUnfrozen(g, pll.Options{})
	if err != nil {
		t.Fatal(err)
	}
	idx := NewHubLabelsFrom(pllBuildFrozen(t, g))
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		opts hub.ContainerOptions
	}{
		{"v3", hub.ContainerOptions{}},
		{"v4", hub.ContainerOptions{Compact: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref := filepath.Join(dir, tc.name+"-ref.hli")
			got := filepath.Join(dir, tc.name+"-stream.hli")
			if err := Save(ref, idx, tc.opts); err != nil {
				t.Fatal(err)
			}
			if err := SaveStreaming(got, l, tc.opts); err != nil {
				t.Fatal(err)
			}
			refB, err := os.ReadFile(ref)
			if err != nil {
				t.Fatal(err)
			}
			gotB, err := os.ReadFile(got)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(refB, gotB) {
				t.Fatalf("streamed save differs from Save (%d vs %d bytes)", len(gotB), len(refB))
			}
			for door, load := range map[string]func(string) (*HubLabels, error){"Load": Load, "LoadMmap": LoadMmap} {
				x, err := load(got)
				if err != nil {
					t.Fatalf("streamed container fails %s: %v", door, err)
				}
				if err := VerifySampled(x, g, 200, 3); err != nil {
					t.Errorf("%s: %v", door, err)
				}
				x.Release()
			}
		})
	}
}

// TestFileDoorsAgreeOnCorruption pins that Load and LoadMmap draw the
// same line around a container file: one byte short or one byte long,
// in either layout, is corrupt at both doors (so hubserve and
// hubserve -mmap quarantine the same files), while the intact file
// loads at both.
func TestFileDoorsAgreeOnCorruption(t *testing.T) {
	idx := saveFixture(t)
	dir := t.TempDir()
	doors := map[string]func(string) (*HubLabels, error){"Load": Load, "LoadMmap": LoadMmap}
	for _, layout := range []struct {
		name string
		opts hub.ContainerOptions
	}{
		{"expanded", hub.ContainerOptions{}},
		{"compact", hub.ContainerOptions{Compact: true}},
	} {
		path := filepath.Join(dir, layout.name+".hli")
		if err := Save(path, idx, layout.opts); err != nil {
			t.Fatal(err)
		}
		good, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, damage := range []struct {
			name string
			data []byte
		}{
			{"truncated-by-1", good[:len(good)-1]},
			{"extended-by-1", append(append([]byte(nil), good...), 0)},
		} {
			bad := filepath.Join(dir, layout.name+"-"+damage.name+".hli")
			if err := os.WriteFile(bad, damage.data, 0o644); err != nil {
				t.Fatal(err)
			}
			for door, load := range doors {
				t.Run(layout.name+"/"+door+"/"+damage.name, func(t *testing.T) {
					x, err := load(bad)
					if err == nil {
						x.Release()
						t.Fatal("damaged container loaded")
					}
					if !IsCorrupt(err) {
						t.Fatalf("error %v is not classified corrupt", err)
					}
				})
			}
		}
		for door, load := range doors {
			x, err := load(path)
			if err != nil {
				t.Fatalf("%s %s rejects the intact file: %v", layout.name, door, err)
			}
			x.Release()
		}
	}
}

// pllBuildFrozen rebuilds the same labeling frozen, for the reference
// Save. (Both builds are deterministic, so the two labelings agree.)
func pllBuildFrozen(t *testing.T, g *graph.Graph) *hub.Labeling {
	t.Helper()
	l, err := pll.Build(g, pll.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestSaveStreamingCrashSafety is TestSaveCrashSafety for the streaming
// path: a short write mid-stream must leave the previous complete file
// untouched and no litter behind.
func TestSaveStreamingCrashSafety(t *testing.T) {
	g, err := gen.Gnm(150, 280, 11)
	if err != nil {
		t.Fatal(err)
	}
	l, err := pll.BuildUnfrozen(g, pll.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "labels.hli")
	if err := SaveStreaming(path, l, hub.ContainerOptions{}); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := faultinject.Enable("index.save.write:shortwrite:n=100", 1); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(faultinject.Disable)
	err = SaveStreaming(path, l, hub.ContainerOptions{})
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("short-write streaming save err = %v, want ErrInjected", err)
	}
	faultinject.Disable()
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("destination vanished after crashed save: %v", err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("crashed streaming save modified the destination")
	}
	removed, err := CleanPartials(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 0 {
		t.Errorf("SaveStreaming leaked temp files: %v", removed)
	}
}
