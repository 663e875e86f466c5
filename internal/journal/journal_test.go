package journal

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

func sampleSnap(proc int, rrn int64) *Snapshot {
	return &Snapshot{
		Proc:         proc,
		Incarnation:  3,
		SRN:          rrn + 1,
		RRN:          rrn,
		MaxRoundSeen: rrn + 2,
		Levels:       []int64{0, 1, 2, rrn},
	}
}

func equalSnap(a, b *Snapshot) bool {
	if a.Proc != b.Proc || a.Incarnation != b.Incarnation ||
		a.SRN != b.SRN || a.RRN != b.RRN || a.MaxRoundSeen != b.MaxRoundSeen ||
		len(a.Levels) != len(b.Levels) {
		return false
	}
	for i := range a.Levels {
		if a.Levels[i] != b.Levels[i] {
			return false
		}
	}
	return true
}

func TestMemRoundtrip(t *testing.T) {
	m := NewMem()
	defer m.Close()
	in := sampleSnap(2, 40)
	if err := m.Save(in); err != nil {
		t.Fatal(err)
	}
	// The store must not alias the saved snapshot.
	in.Levels[0] = 99
	in.RRN = 1
	out, err := m.Load(2)
	if err != nil || out == nil {
		t.Fatalf("Load = %v, %v", out, err)
	}
	if out.Levels[0] != 0 || out.RRN != 40 {
		t.Fatalf("store aliased the caller's snapshot: %+v", out)
	}
	if s, err := m.Load(7); s != nil || err != nil {
		t.Fatalf("missing proc: want nil, nil; got %v, %v", s, err)
	}
}

func TestFileRoundtripAndReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.journal")
	fs, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for rrn := int64(1); rrn <= 5; rrn++ {
		for proc := 0; proc < 3; proc++ {
			if err := fs.Save(sampleSnap(proc, rrn)); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(s Store) {
		t.Helper()
		for proc := 0; proc < 3; proc++ {
			got, err := s.Load(proc)
			if err != nil {
				t.Fatalf("Load(%d): %v", proc, err)
			}
			if want := sampleSnap(proc, 5); got == nil || !equalSnap(got, want) {
				t.Fatalf("Load(%d) = %+v, want %+v", proc, got, want)
			}
		}
	}
	check(fs)
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen: the last record per process must survive.
	fs2, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	check(fs2)
	if s, err := fs2.Load(9); s != nil || err != nil {
		t.Fatalf("missing proc on clean file: want nil, nil; got %v, %v", s, err)
	}
}

// corruptTail opens the journal file raw and mutates its tail with fn,
// returning the original size.
func corruptTail(t *testing.T, path string, fn func(f *os.File, size int64)) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	fn(f, st.Size())
}

// writeJournal writes snapshots for procs 0..2 at rounds 1..3 and closes.
func writeJournal(t *testing.T, path string) {
	t.Helper()
	fs, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for rrn := int64(1); rrn <= 3; rrn++ {
		for proc := 0; proc < 3; proc++ {
			if err := fs.Save(sampleSnap(proc, rrn)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
}

// reopenExpectDegraded reopens a damaged journal and asserts the
// graceful-degradation contract: open succeeds, loads return the newest
// record from the valid prefix together with an error wrapping ErrCorrupt,
// and a fresh save clears the taint for that process.
func reopenExpectDegraded(t *testing.T, path string, wantRRN int64) {
	t.Helper()
	fs, err := OpenFile(path)
	if err != nil {
		t.Fatalf("open after damage must degrade, not fail: %v", err)
	}
	defer fs.Close()
	got, err := fs.Load(2)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Load after damage: err = %v, want ErrCorrupt", err)
	}
	if wantRRN == 0 {
		if got != nil {
			t.Fatalf("expected no surviving record, got %+v", got)
		}
	} else if got == nil || !equalSnap(got, sampleSnap(2, wantRRN)) {
		t.Fatalf("Load after damage = %+v, want round %d snapshot", got, wantRRN)
	}
	// A save through the reopened handle postdates the damage: loads of
	// that process are clean again, and survive another reopen.
	if err := fs.Save(sampleSnap(2, 9)); err != nil {
		t.Fatal(err)
	}
	got, err = fs.Load(2)
	if err != nil || !equalSnap(got, sampleSnap(2, 9)) {
		t.Fatalf("Load after repair+save = %+v, %v", got, err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	fs2, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	if got, err := fs2.Load(2); err != nil || !equalSnap(got, sampleSnap(2, 9)) {
		t.Fatalf("reopen after repair: %+v, %v", got, err)
	}
}

func TestFileTornWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.journal")
	writeJournal(t, path)
	// Simulate a torn final write: half a record's worth of garbage
	// appended where a record header should be.
	corruptTail(t, path, func(f *os.File, size int64) {
		if _, err := f.WriteAt([]byte{0xde, 0xad, 0xbe}, size); err != nil {
			t.Fatal(err)
		}
	})
	reopenExpectDegraded(t, path, 3)
}

func TestFileTruncation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.journal")
	writeJournal(t, path)
	// Chop the file mid-record: the last record loses its payload tail.
	corruptTail(t, path, func(f *os.File, size int64) {
		if err := f.Truncate(size - 5); err != nil {
			t.Fatal(err)
		}
	})
	// Proc 2's round-3 record was last; truncation invalidates it, so the
	// newest valid record for proc 2 is round 2.
	reopenExpectDegraded(t, path, 2)
}

func TestFileBitFlip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.journal")
	writeJournal(t, path)
	// Flip one bit inside the last record's payload: CRC must catch it.
	corruptTail(t, path, func(f *os.File, size int64) {
		var b [1]byte
		if _, err := f.ReadAt(b[:], size-4); err != nil {
			t.Fatal(err)
		}
		b[0] ^= 0x10
		if _, err := f.WriteAt(b[:], size-4); err != nil {
			t.Fatal(err)
		}
	})
	reopenExpectDegraded(t, path, 2)
}

func TestFileAllGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.journal")
	if err := os.WriteFile(path, []byte("this is not a journal at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	fs, err := OpenFile(path)
	if err != nil {
		t.Fatalf("open of garbage must degrade, not fail: %v", err)
	}
	defer fs.Close()
	got, err := fs.Load(0)
	if got != nil || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Load on garbage journal = %+v, %v; want nil, ErrCorrupt", got, err)
	}
	// The garbage was truncated away; the store is usable again.
	if err := fs.Save(sampleSnap(0, 1)); err != nil {
		t.Fatal(err)
	}
	if got, err := fs.Load(0); err != nil || !equalSnap(got, sampleSnap(0, 1)) {
		t.Fatalf("save after garbage repair: %+v, %v", got, err)
	}
}

func TestFileBitFlipInLength(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.journal")
	writeJournal(t, path)
	// Flip a high bit in the FIRST record's length field: the whole file
	// after it is unwalkable, so no record survives.
	corruptTail(t, path, func(f *os.File, _ int64) {
		var b [1]byte
		if _, err := f.ReadAt(b[:], 2); err != nil {
			t.Fatal(err)
		}
		b[0] ^= 0x80
		if _, err := f.WriteAt(b[:], 2); err != nil {
			t.Fatal(err)
		}
	})
	reopenExpectDegraded(t, path, 0)
}

// TestFileReservedWordsIgnored pins the frozen record layout: payload bytes
// [40:56] are reserved. Earlier builds stored two timing values there, so a
// record hand-encoded with nonzero reserved words — exactly as those builds
// wrote it — must load with every other field intact, and a fresh save must
// write the words back as zero.
func TestFileReservedWordsIgnored(t *testing.T) {
	want := sampleSnap(1, 7)
	payload := make([]byte, filePayloadFixed+8*len(want.Levels))
	binary.LittleEndian.PutUint32(payload[0:4], uint32(want.Proc))
	binary.LittleEndian.PutUint32(payload[4:8], uint32(len(want.Levels)))
	binary.LittleEndian.PutUint64(payload[8:16], want.Incarnation)
	binary.LittleEndian.PutUint64(payload[16:24], uint64(want.SRN))
	binary.LittleEndian.PutUint64(payload[24:32], uint64(want.RRN))
	binary.LittleEndian.PutUint64(payload[32:40], uint64(want.MaxRoundSeen))
	binary.LittleEndian.PutUint64(payload[40:48], 3_000_000)  // a tuned TimeoutUnit (ns)
	binary.LittleEndian.PutUint64(payload[48:56], 15_000_000) // a tuned AlivePeriod (ns)
	for i, v := range want.Levels {
		binary.LittleEndian.PutUint64(payload[filePayloadFixed+8*i:], uint64(v))
	}
	rec := make([]byte, fileHeaderSize, fileHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(rec[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[4:8], crc32.ChecksumIEEE(payload))
	rec = append(rec, payload...)

	path := filepath.Join(t.TempDir(), "j.journal")
	if err := os.WriteFile(path, rec, 0o644); err != nil {
		t.Fatal(err)
	}
	fs, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fs.Load(1)
	if err != nil || got == nil || !equalSnap(got, want) {
		t.Fatalf("Load of a record with reserved words set = %+v, %v; want %+v", got, err, want)
	}
	if err := fs.Save(sampleSnap(1, 8)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fresh := raw[len(rec)+fileHeaderSize:]
	for i, b := range fresh[40:filePayloadFixed] {
		if b != 0 {
			t.Fatalf("fresh record: reserved byte %d = %#x, want 0", 40+i, b)
		}
	}
}
