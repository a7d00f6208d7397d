package ckpt

import (
	"os"
	"path/filepath"
	"testing"
)

func TestParseGuarantee(t *testing.T) {
	cases := map[string]Guarantee{
		"":              AtMostOnce,
		"atmostonce":    AtMostOnce,
		"AtLeastOnce":   AtLeastOnce,
		"at-least-once": AtLeastOnce,
		"exactly_once":  ExactlyOnce,
		"exactlyonce":   ExactlyOnce,
	}
	for in, want := range cases {
		got, err := ParseGuarantee(in)
		if err != nil || got != want {
			t.Errorf("ParseGuarantee(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseGuarantee("bogus"); err == nil {
		t.Error("ParseGuarantee(bogus) succeeded")
	}
	if AtMostOnce.Enabled() || !AtLeastOnce.Enabled() || !ExactlyOnce.Enabled() {
		t.Error("Enabled ladder wrong")
	}
	if AtLeastOnce.Dedup() || !ExactlyOnce.Dedup() {
		t.Error("Dedup ladder wrong")
	}
	for _, g := range []Guarantee{AtMostOnce, AtLeastOnce, ExactlyOnce} {
		back, err := ParseGuarantee(g.String())
		if err != nil || back != g {
			t.Errorf("round trip %v -> %q -> %v, %v", g, g.String(), back, err)
		}
	}
}

func TestMemStore(t *testing.T) {
	s := NewMemStore(2)
	if _, ok, _ := s.Latest(); ok {
		t.Fatal("empty store has a latest checkpoint")
	}
	for i := int64(1); i <= 3; i++ {
		if err := s.Save(Checkpoint{ID: i, SourceOffsets: map[string]uint64{"s": uint64(i) * 10}}); err != nil {
			t.Fatal(err)
		}
	}
	last, ok, err := s.Latest()
	if err != nil || !ok || last.ID != 3 {
		t.Fatalf("Latest = %+v, %v, %v", last, ok, err)
	}
	all := s.all
	if len(all) != 2 || all[0].ID != 2 || all[1].ID != 3 {
		t.Fatalf("All (keep=2) = %+v", all)
	}
	if last.TotalOffsets() != 30 {
		t.Fatalf("TotalOffsets = %d", last.TotalOffsets())
	}
}

func TestFileStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	s, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Latest(); ok {
		t.Fatal("fresh file store has a latest checkpoint")
	}
	for i := int64(1); i <= 3; i++ {
		if err := s.Save(Checkpoint{ID: i, At: float64(i), SourceOffsets: map[string]uint64{"src#1": uint64(100 * i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the latest committed checkpoint must be recovered.
	s2, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	last, ok, err := s2.Latest()
	if err != nil || !ok {
		t.Fatalf("Latest after reopen: %v, %v", ok, err)
	}
	if last.ID != 3 || last.SourceOffsets["src#1"] != 300 {
		t.Fatalf("recovered %+v", last)
	}
	// Appending after recovery keeps working.
	if err := s2.Save(Checkpoint{ID: 4}); err != nil {
		t.Fatal(err)
	}
	if last, _, _ := s2.Latest(); last.ID != 4 {
		t.Fatalf("latest after append = %+v", last)
	}
}

func TestDedupTableAdmitAndPrune(t *testing.T) {
	d := NewDedupTable()
	// First deliveries admit, replays don't.
	for off := uint64(0); off < 100; off++ {
		if !d.Admit(1, off) {
			t.Fatalf("offset %d rejected on first delivery", off)
		}
	}
	for off := uint64(10); off < 20; off++ {
		if d.Admit(1, off) {
			t.Fatalf("offset %d admitted twice", off)
		}
	}
	if d.Distinct() != 100 || d.Dups() != 10 {
		t.Fatalf("distinct=%d dups=%d", d.Distinct(), d.Dups())
	}

	// Prune to 100: all delivered, no holes; below-base replays stay
	// duplicates.
	d.Prune(1, 100)
	if d.Holes() != 0 {
		t.Fatalf("holes after complete prune = %d", d.Holes())
	}
	if d.Admit(1, 50) {
		t.Fatal("below-base offset admitted after prune")
	}

	// A gap: deliver 100..149 and 160..199, prune to 200 → 10 holes.
	for off := uint64(100); off < 150; off++ {
		d.Admit(1, off)
	}
	for off := uint64(160); off < 200; off++ {
		d.Admit(1, off)
	}
	d.Prune(1, 200)
	if d.Holes() != 10 {
		t.Fatalf("holes = %d, want 10", d.Holes())
	}

	// Post-prune offsets land correctly relative to the new base.
	if !d.Admit(1, 200) || d.Admit(1, 200) {
		t.Fatal("post-prune admit/dup wrong")
	}

	// Independent sources don't interfere.
	if !d.Admit(2, 0) {
		t.Fatal("second source rejected")
	}
}

func TestOffsetWindowUnalignedPrune(t *testing.T) {
	w := &OffsetWindow{}
	// Set offsets 0..200 except 77 and 130, prune at an unaligned
	// watermark (131) and verify the shifted bitmap still answers
	// correctly for the survivors.
	for off := uint64(0); off <= 200; off++ {
		if off == 77 || off == 130 {
			continue
		}
		w.testAndSet(off)
	}
	holes := w.prune(131)
	if holes != 2 {
		t.Fatalf("holes = %d, want 2", holes)
	}
	if w.base != 131 {
		t.Fatalf("base = %d", w.base)
	}
	for off := uint64(131); off <= 200; off++ {
		if !w.testAndSet(off) {
			t.Fatalf("offset %d lost by prune shift", off)
		}
	}
	if w.testAndSet(300) {
		t.Fatal("fresh offset 300 reported as duplicate")
	}
	if holes := w.prune(301); holes != 99 {
		// 201..299 were never set: 99 holes.
		t.Fatalf("second prune holes = %d, want 99", holes)
	}
}

// TestFileStoreTornTailThenSave: a crash mid-Save leaves a partial final
// line. The first checkpoint saved after recovery must not be glued onto
// the fragment, or the next open discards it as torn and Latest falls
// back past it.
func TestFileStoreTornTailThenSave(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	s, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int64{1, 2} {
		if err := s.Save(Checkpoint{ID: id}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"id":3,"at"`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	s, err = OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if last, ok, _ := s.Latest(); !ok || last.ID != 2 {
		t.Fatalf("Latest after torn tail = %+v, %v; want 2", last, ok)
	}
	if err := s.Save(Checkpoint{ID: 4}); err != nil {
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
	if last, ok, _ := s.Latest(); !ok || last.ID != 4 {
		t.Fatalf("Latest after save-behind-torn-tail and reopen = %+v, %v; want 4", last, ok)
	}
}
