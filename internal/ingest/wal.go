// Package ingest implements the durability half of the live-ingest
// subsystem: a write-ahead log of append operations that lets a serving
// process restart warm. Appends are logged before they are applied to the
// in-memory overlay (xmltree.Appender + index.NewDelta); a commit record
// seals a batch and is fsynced, so after a crash Replay reconstructs exactly
// the committed batches on top of the last packed snapshot. Compaction
// rewrites the snapshot and resets the log.
//
// Record format (little endian):
//
//	u32 payloadLen | u32 crc32c(payload) | payload
//
// The payload's first byte is the record type; the rest is type-specific.
// An append payload carries the target document name, the fragment label,
// and the fragment XML, each length-prefixed. A commit payload carries the
// batch sequence number.
//
// Torn tails are expected, not errors: a crash mid-write leaves a truncated
// or corrupt final record, and a crash between an append and its commit
// leaves complete but unsealed appends. Replay surfaces only whole,
// checksummed, committed batches and truncates the file back to the last
// commit boundary — an unsealed append was never acknowledged, so discarding
// it is the correct recovery.
package ingest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"time"
)

// Record types. A record type byte outside this set fails Replay loudly
// (before any commit boundary) or is treated as a torn tail (after the last
// one).
const (
	recAppend byte = 1
	recCommit byte = 2
)

// maxWALRecord bounds a single record's payload so a corrupt length prefix
// cannot ask for gigabytes. Fragments are documents-in-flight; 64 MiB is far
// beyond any sane single append.
const maxWALRecord = 64 << 20

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Append is one logged append operation: fragment XML destined for a target
// document (or collection shard) of the engine.
type Append struct {
	// Target is the catalog name of the document or collection the fragment
	// is appended to.
	Target string
	// Frag is a label logged with the fragment ("ingest" from rox.Ingester).
	// Nothing reads it back; it stays in the record so the log's bytes do
	// not change.
	Frag string
	// XML is the fragment text: one or more top-level elements.
	XML string
}

// Batch is a committed group of appends, applied atomically at Commit.
type Batch struct {
	// Seq is the commit sequence number, strictly increasing within a log.
	Seq uint64
	// Appends lists the operations in log order.
	Appends []Append
}

// WAL is a write-ahead log backed by a single append-only file. It is not
// safe for concurrent use; the Ingester serializes access.
type WAL struct {
	f    *os.File
	path string

	// off is the current append offset (== file size while healthy).
	off int64
	// seq is the last committed batch sequence number.
	seq uint64
	// created is when this WAL was opened, reported by Age for
	// observability.
	created time.Time
}

// Open opens (creating if absent) the WAL at path, replays it, and returns
// the log positioned for appending together with the committed batches. The
// file is truncated to the last commit boundary, discarding any torn or
// unsealed tail.
func Open(path string) (*WAL, []Batch, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	w := &WAL{f: f, path: path, created: time.Now()}
	batches, err := w.replay()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return w, batches, nil
}

// replay scans the file from the start, collecting committed batches,
// leaves the file truncated and positioned at the last commit boundary, and
// records the last committed sequence number.
func (w *WAL) replay() ([]Batch, error) {
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	var (
		batches   []Batch
		cur       []Append
		off       int64 // scan position
		committed int64 // offset just past the last commit record
	)
	rd := newByteCounter(w.f)
	for {
		payload, err := readRecord(rd)
		if err == io.EOF {
			break // clean end of log
		}
		if err != nil {
			var torn *tornError
			if errors.As(err, &torn) {
				// A torn record is only acceptable as the very tail: the
				// crash interrupted the final write. Anything else is real
				// corruption and must not be silently dropped.
				break
			}
			return nil, fmt.Errorf("ingest: wal %s at offset %d: %w", w.path, off, err)
		}
		off = rd.n
		switch payload[0] {
		case recAppend:
			ap, err := decodeAppend(payload[1:])
			if err != nil {
				return nil, fmt.Errorf("ingest: wal %s at offset %d: %w", w.path, off, err)
			}
			cur = append(cur, ap)
		case recCommit:
			if len(payload) != 1+8 {
				return nil, fmt.Errorf("ingest: wal %s at offset %d: malformed commit record", w.path, off)
			}
			seq := binary.LittleEndian.Uint64(payload[1:])
			if seq <= w.seq {
				return nil, fmt.Errorf("ingest: wal %s at offset %d: commit seq %d not after %d", w.path, off, seq, w.seq)
			}
			w.seq = seq
			if len(cur) > 0 {
				batches = append(batches, Batch{Seq: seq, Appends: cur})
				cur = nil
			}
			committed = off
		default:
			return nil, fmt.Errorf("ingest: wal %s at offset %d: unknown record type %d", w.path, off, payload[0])
		}
	}
	// Truncate the unsealed tail (torn final record and/or uncommitted
	// appends): those operations were never acknowledged.
	if err := w.f.Truncate(committed); err != nil {
		return nil, err
	}
	if _, err := w.f.Seek(committed, io.SeekStart); err != nil {
		return nil, err
	}
	w.off = committed
	return batches, nil
}

// LogAppend writes an append record. It is buffered by the OS only — no
// fsync — because durability is promised at Commit, not per append.
func (w *WAL) LogAppend(ap Append) error {
	payload := encodeAppend(ap)
	if err := w.writeRecord(payload); err != nil {
		return err
	}
	return nil
}

// LogCommit seals the appends logged since the last commit as one batch and
// fsyncs the file: once it returns, the batch survives a crash. The new
// batch sequence number is returned.
func (w *WAL) LogCommit() (uint64, error) {
	seq := w.seq + 1
	payload := make([]byte, 1+8)
	payload[0] = recCommit
	binary.LittleEndian.PutUint64(payload[1:], seq)
	if err := w.writeRecord(payload); err != nil {
		return 0, err
	}
	if err := w.f.Sync(); err != nil {
		return 0, err
	}
	w.seq = seq
	return seq, nil
}

// Close closes the underlying file. Uncommitted appends are discarded by the
// next Open, exactly as after a crash.
func (w *WAL) Close() error { return w.f.Close() }

// Path returns the log's file path.
func (w *WAL) Path() string { return w.path }

// Size returns the current log size in bytes (committed prefix plus any
// not-yet-committed appends).
func (w *WAL) Size() int64 { return w.off }

// Age returns how long this WAL has been open. Each compaction epoch opens
// a fresh WAL, so Age bounds the staleness of the packed snapshots
// underneath it.
func (w *WAL) Age() time.Duration { return time.Since(w.created) }

// Seq returns the last committed batch sequence number.
func (w *WAL) Seq() uint64 { return w.seq }

// writeRecord frames payload and appends it to the file. This is the single
// place raw bytes reach the log file; the waldurable analyzer enforces that
// no other code in this package writes to an *os.File directly.
func (w *WAL) writeRecord(payload []byte) error {
	if len(payload) > maxWALRecord {
		return fmt.Errorf("ingest: wal record of %d bytes exceeds limit", len(payload))
	}
	buf := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(buf[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:], crc32.Checksum(payload, crcTable))
	copy(buf[8:], payload)
	n, err := w.walWrite(buf)
	w.off += int64(n)
	return err
}

// walWrite performs the raw file write for writeRecord.
//
//roxvet:waldurable
func (w *WAL) walWrite(buf []byte) (int, error) {
	return w.f.Write(buf)
}

// tornError marks a record that ends past EOF or fails its checksum — the
// shape a crash mid-write leaves behind. Replay accepts it only at the tail.
type tornError struct{ reason string }

func (e *tornError) Error() string { return "torn record: " + e.reason }

// byteCounter counts consumed bytes so replay knows each record's end
// offset without a second Seek.
type byteCounter struct {
	r io.Reader
	n int64
}

func newByteCounter(r io.Reader) *byteCounter { return &byteCounter{r: r} }

func (b *byteCounter) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	b.n += int64(n)
	return n, err
}

// readRecord reads one framed record, verifying length and checksum. io.EOF
// at a record boundary means a clean end; a short read or checksum mismatch
// inside a record returns *tornError.
func readRecord(r io.Reader) ([]byte, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, &tornError{"truncated header"}
	}
	n := binary.LittleEndian.Uint32(hdr[0:])
	sum := binary.LittleEndian.Uint32(hdr[4:])
	if n == 0 || n > maxWALRecord {
		return nil, &tornError{fmt.Sprintf("implausible record length %d", n)}
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, &tornError{"truncated payload"}
	}
	if crc32.Checksum(payload, crcTable) != sum {
		return nil, &tornError{"checksum mismatch"}
	}
	return payload, nil
}

// encodeAppend encodes an append payload: type byte, then the three
// length-prefixed strings.
func encodeAppend(ap Append) []byte {
	buf := make([]byte, 0, 1+12+len(ap.Target)+len(ap.Frag)+len(ap.XML))
	buf = append(buf, recAppend)
	for _, s := range []string{ap.Target, ap.Frag, ap.XML} {
		var l [4]byte
		binary.LittleEndian.PutUint32(l[:], uint32(len(s)))
		buf = append(buf, l[:]...)
		buf = append(buf, s...)
	}
	return buf
}

// decodeAppend decodes the payload after the type byte.
func decodeAppend(b []byte) (Append, error) {
	var out [3]string
	for i := range out {
		if len(b) < 4 {
			return Append{}, errors.New("truncated append record")
		}
		n := binary.LittleEndian.Uint32(b)
		b = b[4:]
		if uint32(len(b)) < n {
			return Append{}, errors.New("truncated append record")
		}
		out[i] = string(b[:n])
		b = b[n:]
	}
	if len(b) != 0 {
		return Append{}, errors.New("trailing bytes in append record")
	}
	return Append{Target: out[0], Frag: out[1], XML: out[2]}, nil
}
