package index

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"hublab/internal/faultinject"
	"hublab/internal/hub"
)

// Save writes idx to path as an index container. Only backends with a
// persistent form support this; today that is HubLabels (the paper's
// whole point is that the label structure is the thing worth storing).
// Writing through the store lets a compact index save either layout
// (converting as needed) and an expanded index emit the compact layout
// via opts.Compact. The write is crash-safe; see atomicWrite.
func Save(path string, idx Index, opts hub.ContainerOptions) error {
	x, ok := idx.(*HubLabels)
	if !ok {
		return fmt.Errorf("index: backend %q has no container form", idx.Name())
	}
	return atomicWrite(path, func(tmp *os.File) error {
		_, err := x.Store().WriteContainer(faultinject.WrapWriter(faultinject.PointContainerWrite, tmp), opts)
		return err
	})
}

// SaveStreaming writes a canonical (not necessarily frozen) labeling to
// path with the same crash-safety discipline as Save, but through
// hub.Labeling.WriteContainerStreaming, so the flat representation is
// never materialized. This is the save path for million-vertex builds:
// the process's peak RSS stays at roughly one copy of the labeling
// instead of two (mutable + flat), and the on-disk bytes are identical
// to what Save would have produced.
func SaveStreaming(path string, l *hub.Labeling, opts hub.ContainerOptions) error {
	return atomicWrite(path, func(tmp *os.File) error {
		_, err := l.WriteContainerStreaming(faultinject.WrapWriterAt(faultinject.PointContainerWrite, tmp), opts)
		return err
	})
}

// atomicWrite is the one crash-safe file replacement under both saves:
// write fills a temporary sibling of path, which is then fsynced and
// renamed into place, and the parent directory is fsynced after the
// rename — so a crash (or a full disk, or an injected short write) at
// any point leaves either the complete old file or the complete new
// file at path, never a truncated container, and a completed save
// survives power loss. This discipline is what the mmap serving path
// relies on: replacing a live container by anything other than atomic
// rename can SIGBUS readers of the mapped file.
//
// The faultinject wrap the callers put around tmp is how tests crash a
// save partway through: a shortwrite trigger on PointContainerWrite
// makes the writer fail after n bytes, the exact observable shape of a
// torn write.
func atomicWrite(path string, write func(tmp *os.File) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".hli-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	// CreateTemp files are 0600; containers should be as readable as any
	// other artifact the tools write.
	if err := tmp.Chmod(0o644); err != nil {
		tmp.Close()
		return err
	}
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	// Flush the temp file to stable storage before it can be renamed
	// over the destination: rename-before-fsync can leave a zero-length
	// or partial file at path after a crash, which is precisely the torn
	// container this function promises not to produce.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	// And make the rename itself durable: the directory entry lives in
	// the parent directory's data.
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// IsCorrupt reports whether a Load/LoadMmap error means the container
// file itself is damaged (torn write, truncation, bit rot, hostile
// edit) rather than missing or unreadable — the signal on which callers
// quarantine the file instead of retrying it.
func IsCorrupt(err error) bool { return errors.Is(err, hub.ErrContainer) }

// Quarantine moves a corrupt container aside as path+".quarantined"
// (replacing any previous quarantine of the same path) so startup and
// reload never spin on a file known to be garbage, while the bytes are
// preserved for diagnosis. It returns the quarantine path.
func Quarantine(path string) (string, error) {
	q := path + ".quarantined"
	if err := os.Rename(path, q); err != nil {
		return "", fmt.Errorf("index: quarantine %s: %w", path, err)
	}
	// Best effort: the rename is what matters, durability of it is nice
	// to have.
	_ = syncDir(filepath.Dir(path))
	return q, nil
}

// CleanPartials removes leftover temporary save files (the ".hli-*"
// siblings a crashed Save leaves behind) from dir, returning the names
// it removed. Tools that write containers call it at startup: partial
// temp files are never valid and only waste space, and removing them by
// name pattern can never touch a completed (renamed) container.
func CleanPartials(dir string) ([]string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, ".hli-*"))
	if err != nil {
		return nil, err
	}
	var removed []string
	for _, m := range matches {
		if err := os.Remove(m); err != nil {
			return removed, err
		}
		removed = append(removed, m)
	}
	return removed, nil
}

// Load reads an index container from path, decoding it onto the heap
// with every check the format has (structure, trailer checksum). The
// flat arrays are reconstructed without ever touching the
// slice-of-slices labeling form; a compact container loads in its
// compressed representation and serves from it. Load is a file door: the
// file must end at the container's trailer, exactly as LoadMmap
// requires, so the two doors agree on which files are corrupt.
func Load(path string) (*HubLabels, error) {
	if err := faultinject.Fire(faultinject.PointContainerRead); err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	x, err := LoadReader(f)
	if err != nil {
		return nil, err
	}
	var probe [1]byte
	if n, err := f.Read(probe[:]); n > 0 {
		return nil, fmt.Errorf("%w: %s continues past its trailer", hub.ErrContainer, path)
	} else if err != nil && err != io.EOF {
		return nil, err
	}
	x.containerBytes = statSize(path)
	return x, nil
}

// LoadReader is Load over an arbitrary stream; it stops reading at the
// trailer.
func LoadReader(r io.Reader) (*HubLabels, error) {
	s, err := hub.ReadContainerStore(r)
	if err != nil {
		return nil, err
	}
	return FromStore(s), nil
}

// LoadMmap opens a container zero-copy: the index's columns are typed
// views of the memory-mapped region, so the open is O(n) plus one header
// checksum instead of a full decode, no second copy of the index exists
// in anonymous memory, and processes serving the same file share its
// physical pages. A compact container serves straight from its
// compressed form — queries decode on the fly and the resident working
// set is the compressed bytes actually touched. Legacy (version 1–2)
// containers fall back to the decoded load transparently.
//
// A view-backed index must be released (Release, or a serving layer that
// owns it — server.Options.OwnIndex / SwapRetire) after its last query;
// see hub.OpenStoreMmap for the lifetime and validation contract.
func LoadMmap(path string) (*HubLabels, error) {
	if err := faultinject.Fire(faultinject.PointContainerRead); err != nil {
		return nil, err
	}
	s, err := hub.OpenStoreMmap(path)
	if err != nil {
		return nil, err
	}
	x := FromStore(s)
	x.containerBytes = statSize(path)
	return x, nil
}

// statSize returns the byte size of path, 0 when unknowable (the load
// already succeeded; metadata must not fail it).
func statSize(path string) int64 {
	if fi, err := os.Stat(path); err == nil {
		return fi.Size()
	}
	return 0
}
