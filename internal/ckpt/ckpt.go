// Package ckpt is the processing-guarantee protocol, written once for
// the live engine and the virtual-time simulator: the guarantee ladder
// (at-most-once → at-least-once → effective exactly-once), the source
// offset logs and their registry (Log, Registry), the barrier-checkpoint
// coordinator with its commit sequence (Coordinator), per-task counting
// alignment (Aligner), checkpoint metadata with pluggable stores, and
// the bounded (source, offset) dedup tables that make sinks idempotent.
//
// The ladder follows the classic fault-tolerance progression: sources
// tag every record with a monotonically increasing per-source offset
// and keep a bounded replay buffer; periodic asynchronous barrier
// checkpoints commit a global offset watermark; on a crash the sources
// rewind to the last committed watermark (at-least-once); deduplicating
// sinks drop the replay-induced duplicates (effective exactly-once).
//
// Nothing here knows a transport or reads a clock. A driver supplies
// what differs between the two layers: how a barrier is shipped, when
// injection is allowed, and how a replay re-emits. Times cross the
// boundary as float64 seconds since run start. The shared types (Log,
// Registry, Coordinator, DedupTable, the stores) are safe for concurrent
// use themselves; the single-threaded simulator pays for their
// uncontended locks only when a guarantee is enabled.
package ckpt

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
)

// Guarantee selects the processing-guarantee level of a run.
type Guarantee int

const (
	// AtMostOnce is the pre-checkpoint behavior: records lost to crashes
	// are counted, never recovered.
	AtMostOnce Guarantee = iota
	// AtLeastOnce enables offset tracking, barrier checkpoints and
	// source replay: every record reaches the sinks at least once, with
	// duplicates possible after a recovery.
	AtLeastOnce
	// ExactlyOnce additionally deduplicates at the sinks on
	// (source, offset), suppressing replay duplicates: effective
	// exactly-once delivery to sink UDFs.
	ExactlyOnce
)

// String returns the flag spelling of g.
func (g Guarantee) String() string {
	switch g {
	case AtLeastOnce:
		return "atleastonce"
	case ExactlyOnce:
		return "exactlyonce"
	default:
		return "atmostonce"
	}
}

// Enabled reports whether checkpointing and replay are active.
func (g Guarantee) Enabled() bool { return g != AtMostOnce }

// Dedup reports whether sink deduplication is active.
func (g Guarantee) Dedup() bool { return g == ExactlyOnce }

// ParseGuarantee parses a flag spelling (case-insensitive; accepts the
// compact forms above plus dashed variants like "at-least-once").
func ParseGuarantee(s string) (Guarantee, error) {
	switch strings.ToLower(strings.ReplaceAll(strings.ReplaceAll(s, "-", ""), "_", "")) {
	case "", "atmostonce", "none":
		return AtMostOnce, nil
	case "atleastonce":
		return AtLeastOnce, nil
	case "exactlyonce":
		return ExactlyOnce, nil
	}
	return AtMostOnce, fmt.Errorf("ckpt: unknown guarantee %q (want atmostonce|atleastonce|exactlyonce)", s)
}

// Checkpoint is one committed global checkpoint: for every source
// partition the offset watermark below which all records were delivered
// to every sink, plus the run's drop/emit counters at commit time.
type Checkpoint struct {
	// ID is the barrier number, monotonically increasing per run.
	ID int64 `json:"id"`
	// At is the commit time in seconds since run start (virtual seconds
	// in the simulator).
	At float64 `json:"at"`
	// SourceOffsets maps stable source-partition names to the next
	// uncommitted offset (i.e. all offsets < watermark are committed).
	SourceOffsets map[string]uint64 `json:"source_offsets"`
	// Emitted and LostRecords snapshot the run counters at commit.
	Emitted     int64 `json:"emitted"`
	LostRecords int64 `json:"lost_records"`
}

// TotalOffsets sums the committed watermarks across sources.
func (c Checkpoint) TotalOffsets() uint64 {
	var n uint64
	for _, off := range c.SourceOffsets {
		n += off
	}
	return n
}

// Store persists committed checkpoints. Implementations must be safe
// for one writer; Latest may be called concurrently with Save.
type Store interface {
	// Save persists one committed checkpoint.
	Save(c Checkpoint) error
	// Latest returns the most recent committed checkpoint, if any.
	Latest() (Checkpoint, bool, error)
}

// MemStore is an in-memory Store keeping the last Keep checkpoints
// (all of them when Keep <= 0). The zero value is ready to use.
type MemStore struct {
	mu   sync.Mutex
	Keep int
	all  []Checkpoint
}

// NewMemStore returns a memory store retaining the last keep
// checkpoints (unbounded when keep <= 0).
func NewMemStore(keep int) *MemStore { return &MemStore{Keep: keep} }

// Save appends c, evicting the oldest entries past Keep.
func (s *MemStore) Save(c Checkpoint) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.all = append(s.all, c)
	if s.Keep > 0 && len(s.all) > s.Keep {
		copy(s.all, s.all[len(s.all)-s.Keep:])
		s.all = s.all[:s.Keep]
	}
	return nil
}

// Latest returns the most recently saved checkpoint.
func (s *MemStore) Latest() (Checkpoint, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.all) == 0 {
		return Checkpoint{}, false, nil
	}
	return s.all[len(s.all)-1], true, nil
}

// FileStore appends checkpoints as JSON lines to a file; Latest replays
// the file's tail state loaded at open plus anything saved since.
type FileStore struct {
	mu   sync.Mutex
	f    *os.File
	w    *bufio.Writer
	last Checkpoint
	ok   bool
}

// OpenFileStore opens (creating or appending to) a JSONL checkpoint
// file and recovers the latest committed checkpoint from it.
func OpenFileStore(path string) (*FileStore, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("ckpt: open %s: %w", path, err)
	}
	s := &FileStore{f: f}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var c Checkpoint
		if err := json.Unmarshal([]byte(line), &c); err != nil {
			continue // torn tail write: ignore
		}
		s.last, s.ok = c, true
	}
	if err := sc.Err(); err != nil {
		f.Close()
		return nil, fmt.Errorf("ckpt: scan %s: %w", path, err)
	}
	end, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("ckpt: seek %s: %w", path, err)
	}
	s.w = bufio.NewWriter(f)
	if end > 0 {
		// A crash can tear the final record; the next one must start on a
		// fresh line or it is glued to the fragment and lost with it.
		var last [1]byte
		if _, err := f.ReadAt(last[:], end-1); err != nil {
			f.Close()
			return nil, fmt.Errorf("ckpt: read %s: %w", path, err)
		}
		if last[0] != '\n' {
			// Buffered, so it cannot fail here; it lands with the first Save.
			_ = s.w.WriteByte('\n')
		}
	}
	return s, nil
}

// Save appends one checkpoint line and flushes it to the OS.
func (s *FileStore) Save(c Checkpoint) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Deterministic field order for SourceOffsets is json's default map
	// sorting; nothing extra needed.
	b, err := json.Marshal(c)
	if err != nil {
		return err
	}
	if _, err := s.w.Write(append(b, '\n')); err != nil {
		return err
	}
	if err := s.w.Flush(); err != nil {
		return err
	}
	s.last, s.ok = c, true
	return nil
}

// Latest returns the newest checkpoint (including any recovered at
// open).
func (s *FileStore) Latest() (Checkpoint, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.last, s.ok, nil
}

// Close flushes and closes the underlying file.
func (s *FileStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.w != nil {
		if err := s.w.Flush(); err != nil {
			s.f.Close()
			return err
		}
	}
	return s.f.Close()
}
