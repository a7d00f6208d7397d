package ckpt

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// FuzzOffsetWindow replays an op stream — three bytes each: kind, then a
// big-endian offset below 4096 — against a set-of-offsets reference and
// checks every duplicate verdict, every hole count and the base.
func FuzzOffsetWindow(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 2})                // set 0, 1, dup 0, prune to 2
	f.Add([]byte{0, 0, 200, 1, 0, 131, 0, 0, 130, 0, 0, 200})        // unaligned prune over a hole, below-base dup
	f.Add([]byte{1, 15, 255, 0, 0, 5, 1, 0, 3, 0, 15, 255})          // prune an empty window far out, then backwards
	f.Add([]byte{0, 0, 63, 0, 0, 64, 0, 0, 65, 1, 0, 64, 1, 0, 129}) // word-boundary prunes
	f.Fuzz(func(t *testing.T, ops []byte) {
		w := &OffsetWindow{}
		seen := map[uint64]bool{}
		base := uint64(0)
		for ; len(ops) >= 3; ops = ops[3:] {
			off := (uint64(ops[1])<<8 | uint64(ops[2])) % 4096
			if ops[0]&1 == 0 {
				wantDup := off < base || seen[off]
				if got := w.testAndSet(off); got != wantDup {
					t.Fatalf("testAndSet(%d) = %v, want %v (base %d)", off, got, wantDup, base)
				}
				seen[off] = true
				continue
			}
			wantHoles := int64(0)
			for o := base; o < off; o++ {
				if !seen[o] {
					wantHoles++
				}
				delete(seen, o)
			}
			if off > base {
				base = off
			}
			if got := w.prune(off); got != wantHoles {
				t.Fatalf("prune(%d) = %d holes, want %d", off, got, wantHoles)
			}
			if w.base != base {
				t.Fatalf("Base() = %d after prune(%d), want %d", w.base, off, base)
			}
		}
	})
}

// FuzzFileStoreOpen feeds OpenFileStore arbitrary file contents: it must
// not panic, Latest must be the last line that parses, and a checkpoint
// saved behind whatever was there must survive a reopen.
func FuzzFileStoreOpen(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("{\"id\":1,\"at\":0.5,\"source_offsets\":{\"src#1\":10}}\n{\"id\":2}\n"))
	f.Add([]byte("{\"id\":1}\n{\"id\":2}\n{\"id\":3,\"at\"")) // torn final record
	f.Add([]byte("{\"id\":7}"))                               // complete record, newline lost
	f.Add([]byte("garbage\n\n  \r\n{\"id\":5}\r\nnull\n[1,2]\n"))
	f.Fuzz(func(t *testing.T, content []byte) {
		path := filepath.Join(t.TempDir(), "ckpt.jsonl")
		if err := os.WriteFile(path, content, 0o644); err != nil {
			t.Fatal(err)
		}
		var want Checkpoint
		wantOK := false
		for _, line := range strings.Split(string(content), "\n") {
			var c Checkpoint
			if line = strings.TrimSpace(line); line != "" && json.Unmarshal([]byte(line), &c) == nil {
				want, wantOK = c, true
			}
		}
		s, err := OpenFileStore(path)
		if err != nil {
			return // an unreadable file is an error, never a panic
		}
		got, ok, _ := s.Latest()
		if ok != wantOK || !reflect.DeepEqual(got, want) {
			t.Fatalf("Latest = %+v, %v; want %+v, %v", got, ok, want, wantOK)
		}
		saved := Checkpoint{ID: want.ID + 1, SourceOffsets: map[string]uint64{"src#1": 42}}
		if err := s.Save(saved); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s, err = OpenFileStore(path)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if got, ok, _ := s.Latest(); !ok || !reflect.DeepEqual(got, saved) {
			t.Fatalf("after save and reopen Latest = %+v, %v; want %+v", got, ok, saved)
		}
	})
}
