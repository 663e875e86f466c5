package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
)

// File-store record framing. Every record is
//
//	uint32  payload length (little endian)
//	uint32  CRC32-IEEE of the payload (little endian)
//	[]byte  payload
//
// and the payload is a fixed little-endian layout:
//
//	uint32  proc
//	uint32  len(Levels)
//	uint64  incarnation
//	int64   SRN
//	int64   RRN
//	int64   MaxRoundSeen
//	[16]byte reserved: written as zero, skipped on load (earlier builds
//	         stored tuned timing knobs here; the layout is frozen so their
//	         journals still load)
//	int64   Levels[...]
//
// Append-only with last-record-wins per process: a snapshot cadence of
// ~100ms writes tens of bytes per process per tick, and the scan at open
// replays the whole history in one pass. Any framing or CRC violation
// invalidates the record where it occurs and everything after it — a torn
// tail cannot make earlier records unreadable — and the file is truncated
// back to the last valid boundary so subsequent appends are clean.
const (
	fileHeaderSize   = 8       // length + CRC
	filePayloadFixed = 56      // payload bytes before the levels array
	fileMaxPayload   = 1 << 20 // framing sanity bound (~128k processes)
)

type fileEntry struct {
	snap Snapshot
	// fresh marks records written through this handle (after the open
	// scan). A fresh record postdates any damage found at open, so loads
	// of it are clean even when the scan reported corruption.
	fresh bool
}

// FileStore is the durable Store: one append-only file of CRC-protected
// records, last record per process wins.
type FileStore struct {
	mu      sync.Mutex
	f       *os.File
	entries map[int]*fileEntry
	scanErr error // non-nil if the open scan found damage (wraps ErrCorrupt)
	buf     []byte
	closed  bool
}

// OpenFile opens (creating if absent) the journal at path and replays its
// records. Corruption — torn writes, truncation, bit flips — is detected by
// the framing and CRC checks: the valid prefix is loaded, the damaged
// suffix is discarded (the file is truncated back to the last valid record
// boundary), and the damage is remembered so Loads that may have lost newer
// state surface an error wrapping ErrCorrupt. OpenFile itself only fails on
// I/O errors; a corrupt journal is a degraded open, not a failed one.
func OpenFile(path string) (*FileStore, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: open %s: %w", path, err)
	}
	s := &FileStore{f: f, entries: make(map[int]*fileEntry)}
	if err := s.scan(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// scan replays the file, loading the last valid record per process and
// truncating away any damaged suffix. Only I/O failures are returned;
// corruption is recorded in s.scanErr.
func (s *FileStore) scan() error {
	data, err := io.ReadAll(s.f)
	if err != nil {
		return fmt.Errorf("journal: read: %w", err)
	}
	off := 0
	for {
		rest := data[off:]
		if len(rest) == 0 {
			break // clean end of file
		}
		if len(rest) < fileHeaderSize {
			s.scanErr = fmt.Errorf("%w: torn header at offset %d", ErrCorrupt, off)
			break
		}
		plen := binary.LittleEndian.Uint32(rest[0:4])
		crc := binary.LittleEndian.Uint32(rest[4:8])
		if plen < filePayloadFixed || plen > fileMaxPayload || (plen-filePayloadFixed)%8 != 0 {
			s.scanErr = fmt.Errorf("%w: bad length %d at offset %d", ErrCorrupt, plen, off)
			break
		}
		if len(rest) < fileHeaderSize+int(plen) {
			s.scanErr = fmt.Errorf("%w: torn payload at offset %d", ErrCorrupt, off)
			break
		}
		payload := rest[fileHeaderSize : fileHeaderSize+int(plen)]
		if crc32.ChecksumIEEE(payload) != crc {
			s.scanErr = fmt.Errorf("%w: CRC mismatch at offset %d", ErrCorrupt, off)
			break
		}
		var snap Snapshot
		if err := decodePayload(payload, &snap); err != nil {
			s.scanErr = fmt.Errorf("%w: %v at offset %d", ErrCorrupt, err, off)
			break
		}
		e := s.entries[snap.Proc]
		if e == nil {
			e = &fileEntry{}
			s.entries[snap.Proc] = e
		}
		snap.CopyInto(&e.snap)
		off += fileHeaderSize + int(plen)
	}
	if off != len(data) {
		// Drop the damaged suffix so appends restart on a valid boundary.
		if err := s.f.Truncate(int64(off)); err != nil {
			return fmt.Errorf("journal: truncate after damage: %w", err)
		}
	}
	if _, err := s.f.Seek(int64(off), io.SeekStart); err != nil {
		return fmt.Errorf("journal: seek: %w", err)
	}
	return nil
}

func decodePayload(p []byte, out *Snapshot) error {
	proc := binary.LittleEndian.Uint32(p[0:4])
	nLevels := binary.LittleEndian.Uint32(p[4:8])
	if int(filePayloadFixed+8*nLevels) != len(p) {
		return fmt.Errorf("level count %d does not match payload", nLevels)
	}
	out.Proc = int(proc)
	out.Incarnation = binary.LittleEndian.Uint64(p[8:16])
	out.SRN = int64(binary.LittleEndian.Uint64(p[16:24]))
	out.RRN = int64(binary.LittleEndian.Uint64(p[24:32]))
	out.MaxRoundSeen = int64(binary.LittleEndian.Uint64(p[32:40]))
	out.Levels = make([]int64, nLevels)
	for i := range out.Levels {
		out.Levels[i] = int64(binary.LittleEndian.Uint64(p[filePayloadFixed+8*i:]))
	}
	return nil
}

// Save implements Store: encode, append, remember as the process's latest.
func (s *FileStore) Save(snap *Snapshot) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("journal: store closed")
	}
	plen := filePayloadFixed + 8*len(snap.Levels)
	need := fileHeaderSize + plen
	if cap(s.buf) < need {
		s.buf = make([]byte, need)
	}
	b := s.buf[:need]
	payload := b[fileHeaderSize:]
	binary.LittleEndian.PutUint32(payload[0:4], uint32(snap.Proc))
	binary.LittleEndian.PutUint32(payload[4:8], uint32(len(snap.Levels)))
	binary.LittleEndian.PutUint64(payload[8:16], snap.Incarnation)
	binary.LittleEndian.PutUint64(payload[16:24], uint64(snap.SRN))
	binary.LittleEndian.PutUint64(payload[24:32], uint64(snap.RRN))
	binary.LittleEndian.PutUint64(payload[32:40], uint64(snap.MaxRoundSeen))
	clear(payload[40:filePayloadFixed]) // reserved
	for i, v := range snap.Levels {
		binary.LittleEndian.PutUint64(payload[filePayloadFixed+8*i:], uint64(v))
	}
	binary.LittleEndian.PutUint32(b[0:4], uint32(plen))
	binary.LittleEndian.PutUint32(b[4:8], crc32.ChecksumIEEE(payload))
	if _, err := s.f.Write(b); err != nil {
		return fmt.Errorf("journal: append: %w", err)
	}
	e := s.entries[snap.Proc]
	if e == nil {
		e = &fileEntry{}
		s.entries[snap.Proc] = e
	}
	snap.CopyInto(&e.snap)
	e.fresh = true
	return nil
}

// Load implements Store. When the open scan found damage, loads that may
// have lost newer state to it — a missing process, or a process whose
// latest record predates this session — carry an error wrapping ErrCorrupt;
// a valid older snapshot is still returned alongside it when one exists.
func (s *FileStore) Load(proc int) (*Snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errors.New("journal: store closed")
	}
	e := s.entries[proc]
	if e == nil {
		return nil, s.scanErr
	}
	out := &Snapshot{}
	e.snap.CopyInto(out)
	if e.fresh {
		return out, nil
	}
	return out, s.scanErr
}

// Close implements Store, syncing the file first.
func (s *FileStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	syncErr := s.f.Sync()
	closeErr := s.f.Close()
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}

var _ Store = (*FileStore)(nil)
