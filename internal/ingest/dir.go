package ingest

import (
	"encoding/json"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
)

// Dir is a durable ingest state directory: one WAL plus the compacted packed
// snapshots the WAL's batches apply on top of, tied together by a MANIFEST
// file. The manifest is the commit point of a compaction — it is replaced by
// an atomic rename, so a crash anywhere inside a compaction leaves the
// directory describing one consistent (snapshot set, WAL) pair: either the
// old snapshots with the old (full) WAL, or the new snapshots with the new
// (empty) WAL. Never new snapshots with the old WAL, which would double-apply
// the compacted batches on restart.
//
// Layout:
//
//	MANIFEST            JSON manifest: current WAL file + snapshot files
//	ingest.<epoch>.wal  the WAL of compaction epoch <epoch>
//	<doc>.<epoch>.roxd  packed snapshot of a document, name URL-escaped
//
// Dir is not safe for concurrent use; the Ingester serializes access.
type Dir struct {
	path string
	wal  *WAL
	man  manifest
}

// manifest is the JSON body of the MANIFEST file.
type manifest struct {
	// Epoch counts compactions; file names embed it so a new epoch never
	// overwrites a live file.
	Epoch uint64 `json:"epoch"`
	// WAL is the current log's file name within the directory.
	WAL string `json:"wal"`
	// Snapshots maps document names to their packed snapshot file names.
	// Documents the corpus load already provides appear only once compacted.
	Snapshots map[string]string `json:"snapshots,omitempty"`
}

const manifestName = "MANIFEST"

// OpenDir opens (creating if needed) an ingest directory, loads its
// manifest, opens and replays its WAL, and returns the directory handle with
// the committed batches to re-apply. Snapshot files listed by the manifest
// are NOT loaded here — the caller registers them with its engine first (see
// SnapshotPaths), then applies the batches.
func OpenDir(path string) (*Dir, []Batch, error) {
	if err := os.MkdirAll(path, 0o755); err != nil {
		return nil, nil, err
	}
	d := &Dir{path: path}
	raw, err := os.ReadFile(filepath.Join(path, manifestName))
	switch {
	case os.IsNotExist(err):
		d.man = manifest{Epoch: 0, WAL: walFileName(0)}
		if err := d.writeManifest(); err != nil {
			return nil, nil, err
		}
	case err != nil:
		return nil, nil, err
	default:
		if err := json.Unmarshal(raw, &d.man); err != nil {
			return nil, nil, fmt.Errorf("ingest: %s: corrupt manifest: %w", path, err)
		}
		if d.man.WAL == "" {
			return nil, nil, fmt.Errorf("ingest: %s: manifest names no wal file", path)
		}
	}
	wal, batches, err := Open(filepath.Join(path, d.man.WAL))
	if err != nil {
		return nil, nil, err
	}
	d.wal = wal
	return d, batches, nil
}

// WAL returns the directory's current write-ahead log.
func (d *Dir) WAL() *WAL { return d.wal }

// Path returns the directory path.
func (d *Dir) Path() string { return d.path }

// SnapshotPaths returns document name → absolute snapshot path for every
// compacted snapshot the manifest lists, for the caller to register before
// applying the replayed batches.
func (d *Dir) SnapshotPaths() map[string]string {
	out := make(map[string]string, len(d.man.Snapshots))
	for doc, file := range d.man.Snapshots {
		out[doc] = filepath.Join(d.path, file)
	}
	return out
}

// SnapshotFile returns the absolute path a compaction should write the named
// document's new packed snapshot to: unique per epoch, so writing it never
// clobbers a file the current manifest references.
func (d *Dir) SnapshotFile(doc string) string {
	return filepath.Join(d.path, snapFileName(doc, d.man.Epoch+1))
}

// CommitCompaction atomically advances the directory to the next epoch:
// snaps maps document names to snapshot files the caller has already written
// via SnapshotFile paths, or to "" for a document whose snapshot the new
// epoch drops (the corpus load provides it again). A fresh empty WAL is
// created, the manifest is swapped by rename, the old WAL handle is
// replaced, and superseded files are deleted best-effort. On error before the
// manifest rename, the old epoch (old WAL, old snapshots) remains fully in
// force.
func (d *Dir) CommitCompaction(snaps map[string]string) error {
	epoch := d.man.Epoch + 1
	// A fresh, durable, empty WAL for the new epoch.
	newWALName := walFileName(epoch)
	newWAL, batches, err := Open(filepath.Join(d.path, newWALName))
	if err != nil {
		return err
	}
	if len(batches) != 0 {
		newWAL.Close()
		return fmt.Errorf("ingest: %s: new wal %s not empty", d.path, newWALName)
	}
	// Carry the committed sequence forward so batch numbering never moves
	// backwards across a compaction.
	newWAL.seq = d.wal.seq

	next := manifest{Epoch: epoch, WAL: newWALName, Snapshots: make(map[string]string)}
	for doc, file := range d.man.Snapshots {
		next.Snapshots[doc] = file
	}
	for doc, path := range snaps {
		if path == "" {
			delete(next.Snapshots, doc)
			continue
		}
		file := snapFileName(doc, epoch)
		if err := syncFile(filepath.Join(d.path, file)); err != nil {
			newWAL.Close()
			return err
		}
		next.Snapshots[doc] = file
	}

	old := d.man
	d.man = next
	if err := d.writeManifest(); err != nil {
		d.man = old
		newWAL.Close()
		os.Remove(filepath.Join(d.path, newWALName))
		return err
	}

	// The new epoch is durable; retire the old one.
	oldWAL := d.wal
	d.wal = newWAL
	oldWAL.Close()
	os.Remove(filepath.Join(d.path, old.WAL))
	for doc, file := range old.Snapshots {
		if next.Snapshots[doc] != file {
			os.Remove(filepath.Join(d.path, file))
		}
	}
	return nil
}

// Close closes the directory's WAL.
func (d *Dir) Close() error {
	if d.wal == nil {
		return nil
	}
	return d.wal.Close()
}

// writeManifest durably replaces the MANIFEST file: write a temp file, sync
// it, rename over the old one, sync the directory.
//
//roxvet:waldurable the manifest writer owns its durability: temp write + fsync + rename + dirsync.
func (d *Dir) writeManifest() error {
	body, err := json.MarshalIndent(d.man, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(d.path, manifestName+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(body, '\n')); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(d.path, manifestName)); err != nil {
		return err
	}
	return syncDir(d.path)
}

// syncFile fsyncs an already-written file so it is durable before the
// manifest starts referencing it.
func syncFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory, making renames within it durable. Platforms
// that reject directory fsync are tolerated.
func syncDir(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	_ = f.Sync()
	return f.Close()
}

func walFileName(epoch uint64) string {
	return fmt.Sprintf("ingest.%d.wal", epoch)
}

func snapFileName(doc string, epoch uint64) string {
	return fmt.Sprintf("%s.%d.roxd", url.PathEscape(doc), epoch)
}
