// Package journal persists the recovery-relevant slice of a process's
// protocol state — the susp_level vector and the round counters — so a
// crashed process can restart from where it was instead of taking the
// round-frontier jump with empty state (the "amnesia" churn model).
//
// The package defines one seam, Store, with two implementations:
//
//   - MemStore keeps the latest snapshot per process in memory. It survives
//     restarts within one cluster lifetime (the common churn case) and is
//     what star.MemJournal hands out.
//   - FileStore appends length-prefixed, CRC-protected records to a single
//     file and survives full process-tree restarts. It is corruption
//     tolerant: a torn write, truncation or bit flip invalidates only the
//     damaged suffix; every record before it stays loadable, and the
//     damage is reported (wrapped ErrCorrupt) rather than panicking.
//
// Stores are safe for concurrent use: the live transport snapshots from a
// ticker goroutine while restart timers load.
package journal

import (
	"errors"
	"sync"
)

// ErrCorrupt marks journal damage detected by the CRC/framing validation.
// Loads that may have lost data to the damage wrap it; callers branch with
// errors.Is and fall back to a fresh start.
var ErrCorrupt = errors.New("journal: corrupt record")

// Snapshot is one process's recovery-relevant state at a point in time.
// The fields mirror what a restarted incarnation cannot reconstruct from
// its peers: the gossiped suspicion levels would eventually re-converge,
// but the round counters would not.
type Snapshot struct {
	// Proc is the process id; Incarnation counts restarts (0 = original).
	Proc        int
	Incarnation uint64

	// SRN and RRN are the sending and receiving round counters.
	// MaxRoundSeen once held the newest round observed in any message;
	// core no longer reads it (its retention horizon comes from RRN) and
	// exports 0. The field stays so FileJournal's record layout (bytes
	// 32:40) does not change.
	SRN, RRN     int64
	MaxRoundSeen int64

	// Levels is the susp_level vector (the time-free baseline stores its
	// counter vector here). Length must equal the cluster's N.
	Levels []int64
}

// CopyInto deep-copies s into dst, reusing dst's Levels capacity.
func (s *Snapshot) CopyInto(dst *Snapshot) {
	levels := dst.Levels
	*dst = *s
	if cap(levels) < len(s.Levels) {
		levels = make([]int64, len(s.Levels))
	}
	dst.Levels = levels[:len(s.Levels)]
	copy(dst.Levels, s.Levels)
}

// Store persists per-process snapshots. Implementations must be safe for
// concurrent use and must not retain the *Snapshot passed to Save (callers
// reuse one scratch snapshot across processes).
type Store interface {
	// Save records s as process s.Proc's latest snapshot.
	Save(s *Snapshot) error
	// Load returns the latest valid snapshot for proc, or nil when none
	// exists. Both return values can be meaningful at once: a non-nil
	// snapshot with a non-nil error (wrapping ErrCorrupt) means newer
	// state was lost to corruption and an older valid record is being
	// returned instead.
	Load(proc int) (*Snapshot, error)
	// Close releases the store. Saves and loads after Close fail.
	Close() error
}

// MemStore is the in-memory Store: latest snapshot per process, no
// durability beyond the store's own lifetime.
type MemStore struct {
	mu     sync.Mutex
	last   map[int]*Snapshot
	closed bool
}

// NewMem returns an empty in-memory store.
func NewMem() *MemStore { return &MemStore{last: make(map[int]*Snapshot)} }

// Save implements Store.
func (m *MemStore) Save(s *Snapshot) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return errors.New("journal: store closed")
	}
	dst := m.last[s.Proc]
	if dst == nil {
		dst = &Snapshot{}
		m.last[s.Proc] = dst
	}
	s.CopyInto(dst)
	return nil
}

// Load implements Store. A memory journal cannot be corrupted, so the error
// is always nil; a missing process yields (nil, nil).
func (m *MemStore) Load(proc int) (*Snapshot, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, errors.New("journal: store closed")
	}
	s := m.last[proc]
	if s == nil {
		return nil, nil
	}
	out := &Snapshot{}
	s.CopyInto(out)
	return out, nil
}

// Close implements Store.
func (m *MemStore) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	return nil
}

var _ Store = (*MemStore)(nil)
