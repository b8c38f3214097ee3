package ingest

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func walPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "ingest.wal")
}

func mustOpen(t *testing.T, path string) (*WAL, []Batch) {
	t.Helper()
	w, batches, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return w, batches
}

func logBatch(t *testing.T, w *WAL, appends ...Append) uint64 {
	t.Helper()
	for _, ap := range appends {
		if err := w.LogAppend(ap); err != nil {
			t.Fatal(err)
		}
	}
	seq, err := w.LogCommit()
	if err != nil {
		t.Fatal(err)
	}
	return seq
}

func TestWALRoundtrip(t *testing.T) {
	path := walPath(t)
	w, batches := mustOpen(t, path)
	if len(batches) != 0 {
		t.Fatalf("fresh wal replayed %d batches", len(batches))
	}
	a1 := Append{Target: "doc.xml", Frag: "f1", XML: "<a>1</a>"}
	a2 := Append{Target: "doc.xml", Frag: "f2", XML: "<b attr=\"x\">two</b>"}
	a3 := Append{Target: "other.xml", Frag: "f3", XML: "<c/>"}
	s1 := logBatch(t, w, a1, a2)
	s2 := logBatch(t, w, a3)
	if s2 <= s1 {
		t.Fatalf("sequence not increasing: %d then %d", s1, s2)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, replayed := mustOpen(t, path)
	defer w2.Close()
	if len(replayed) != 2 {
		t.Fatalf("replayed %d batches, want 2", len(replayed))
	}
	if replayed[0].Seq != s1 || replayed[1].Seq != s2 {
		t.Fatalf("sequences %d,%d want %d,%d", replayed[0].Seq, replayed[1].Seq, s1, s2)
	}
	want := [][]Append{{a1, a2}, {a3}}
	for bi, b := range replayed {
		if len(b.Appends) != len(want[bi]) {
			t.Fatalf("batch %d has %d appends, want %d", bi, len(b.Appends), len(want[bi]))
		}
		for ai, ap := range b.Appends {
			if ap != want[bi][ai] {
				t.Fatalf("batch %d append %d = %+v, want %+v", bi, ai, ap, want[bi][ai])
			}
		}
	}
	if w2.Seq() != s2 {
		t.Fatalf("resumed seq %d, want %d", w2.Seq(), s2)
	}
	// Sequence keeps counting after reopen.
	if s3 := logBatch(t, w2, a1); s3 != s2+1 {
		t.Fatalf("next seq %d, want %d", s3, s2+1)
	}
}

func TestWALUncommittedTailDiscarded(t *testing.T) {
	path := walPath(t)
	w, _ := mustOpen(t, path)
	committed := Append{Target: "d", Frag: "f", XML: "<a/>"}
	logBatch(t, w, committed)
	// Appends without a commit: never acknowledged, must vanish on replay.
	if err := w.LogAppend(Append{Target: "d", Frag: "g", XML: "<b/>"}); err != nil {
		t.Fatal(err)
	}
	w.Close()

	w2, replayed := mustOpen(t, path)
	defer w2.Close()
	if len(replayed) != 1 || len(replayed[0].Appends) != 1 || replayed[0].Appends[0] != committed {
		t.Fatalf("replay after uncommitted tail: %+v", replayed)
	}
	// The file must have been truncated back to the commit boundary.
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != w2.Size() {
		t.Fatalf("file size %d != wal offset %d", fi.Size(), w2.Size())
	}
}

func TestWALTornTail(t *testing.T) {
	path := walPath(t)
	w, _ := mustOpen(t, path)
	committed := Append{Target: "d", Frag: "f", XML: "<a/>"}
	logBatch(t, w, committed)
	sizeAfterCommit := w.Size()
	logBatch(t, w, Append{Target: "d", Frag: "g", XML: "<b>torn</b>"})
	w.Close()

	// Chop bytes off the end, simulating a crash mid-write of the second
	// batch; every cut length must recover exactly the first batch.
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := int64(1); cut < int64(len(full))-sizeAfterCommit; cut++ {
		if err := os.WriteFile(path, full[:int64(len(full))-cut], 0o644); err != nil {
			t.Fatal(err)
		}
		w2, replayed := mustOpen(t, path)
		if len(replayed) != 1 || replayed[0].Appends[0] != committed {
			t.Fatalf("cut %d: replay %+v", cut, replayed)
		}
		if w2.Size() != sizeAfterCommit {
			t.Fatalf("cut %d: not truncated to commit boundary (%d != %d)", cut, w2.Size(), sizeAfterCommit)
		}
		w2.Close()
	}
}

func TestWALChecksumCorruption(t *testing.T) {
	path := walPath(t)
	w, _ := mustOpen(t, path)
	committed := Append{Target: "d", Frag: "f", XML: "<a/>"}
	logBatch(t, w, committed)
	boundary := w.Size()
	logBatch(t, w, Append{Target: "d", Frag: "g", XML: "<b>garbled</b>"})
	w.Close()

	// Flip a payload byte of the second batch: its checksum fails, so replay
	// treats everything from there on as a torn tail.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[boundary+10] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	w2, replayed := mustOpen(t, path)
	defer w2.Close()
	if len(replayed) != 1 || replayed[0].Appends[0] != committed {
		t.Fatalf("replay after corruption: %+v", replayed)
	}
	if w2.Size() != boundary {
		t.Fatalf("not truncated to last good commit: %d != %d", w2.Size(), boundary)
	}
}

// TestCommitCompactionKeepsSeq: a compaction's new epoch starts an empty
// WAL, batch numbering continues from the old one, and a reopen replays
// only what was committed after the compaction.
func TestCommitCompactionKeepsSeq(t *testing.T) {
	path := t.TempDir()
	d, _, err := OpenDir(path)
	if err != nil {
		t.Fatal(err)
	}
	s1 := logBatch(t, d.WAL(), Append{Target: "d", Frag: "f", XML: "<a/>"})
	if err := d.CommitCompaction(nil); err != nil {
		t.Fatal(err)
	}
	if d.WAL().Size() != 0 {
		t.Fatalf("size after compaction: %d", d.WAL().Size())
	}
	s2 := logBatch(t, d.WAL(), Append{Target: "d", Frag: "g", XML: "<b/>"})
	if s2 != s1+1 {
		t.Fatalf("seq after compaction: %d, want %d", s2, s1+1)
	}
	d.Close()

	d2, replayed, err := OpenDir(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if len(replayed) != 1 || replayed[0].Seq != s2 {
		t.Fatalf("replay after compaction: %+v", replayed)
	}
}

// FuzzWALReplay: a log of generated batches, cut at a fuzzer-chosen length,
// with one fuzzer-chosen byte flipped, or both, replays without a panic
// exactly the batches whose commit record lies wholly before the first
// damaged or missing byte, and is truncated to that commit's end; a second
// Open of the repaired file replays the same. Batch i logs shape[i]%4
// appends (an empty one still commits), their XML taken in turn from the
// NUL-separated pieces of xmls.
func FuzzWALReplay(f *testing.F) {
	// The seeds are the cases of TestWALTornTail and TestWALChecksumCorruption.
	record := func(ap Append) int64 { return 8 + int64(len(encodeAppend(ap))) }
	const commitRecord = 8 + 1 + 8
	boundary := record(Append{Target: "d", Frag: "f", XML: "<a/>"}) + commitRecord
	full := boundary + record(Append{Target: "d", Frag: "g", XML: "<b>torn</b>"}) + commitRecord
	for cut := boundary + 1; cut < full; cut++ {
		f.Add([]byte{1, 1}, "<a/>\x00<b>torn</b>", cut, int64(-1), byte(0))
	}
	f.Add([]byte{1, 1}, "<a/>\x00<b>garbled</b>", int64(-1), boundary+10, byte(0xff))
	f.Fuzz(func(t *testing.T, shape []byte, xmls string, cut, flipAt int64, flip byte) {
		if len(shape) > 16 {
			shape = shape[:16]
		}
		pieces := strings.Split(xmls, "\x00")
		path := walPath(t)
		w, _ := mustOpen(t, path)
		type commit struct {
			end   int64 // offset just past the commit record
			batch Batch
		}
		var commits []commit
		k := 0
		for _, b := range shape {
			var appends []Append
			for range b % 4 {
				ap := Append{Target: "d", Frag: string(rune('f' + k%20)), XML: pieces[k%len(pieces)]}
				if err := w.LogAppend(ap); err != nil {
					t.Fatal(err)
				}
				appends = append(appends, ap)
				k++
			}
			seq, err := w.LogCommit()
			if err != nil {
				t.Fatal(err)
			}
			commits = append(commits, commit{w.Size(), Batch{Seq: seq, Appends: appends}})
		}
		w.Close()

		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		damage := int64(len(data)) // the first damaged or missing byte
		if cut >= 0 && cut < damage {
			data, damage = data[:cut], cut
		}
		if flip != 0 && flipAt >= 0 && flipAt < damage {
			data[flipAt] ^= flip
			damage = flipAt
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var (
			want     []Batch
			boundary int64
			seq      uint64
		)
		for _, c := range commits {
			if c.end > damage {
				break
			}
			boundary, seq = c.end, c.batch.Seq
			if len(c.batch.Appends) > 0 {
				want = append(want, c.batch)
			}
		}
		for _, open := range []string{"first", "second"} {
			w, got, err := Open(path)
			if err != nil {
				t.Fatalf("%s open, damage at %d: %v", open, damage, err)
			}
			same := len(got) == len(want)
			for i := 0; same && i < len(got); i++ {
				same = got[i].Seq == want[i].Seq && slices.Equal(got[i].Appends, want[i].Appends)
			}
			if !same {
				t.Errorf("%s open, damage at %d: replayed %+v, want %+v", open, damage, got, want)
			}
			if w.Size() != boundary || w.Seq() != seq {
				t.Errorf("%s open, damage at %d: size %d seq %d, want %d and %d", open, damage, w.Size(), w.Seq(), boundary, seq)
			}
			w.Close()
		}
	})
}
