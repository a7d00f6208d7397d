package sketch

import (
	"bytes"
	"math"
	"testing"
)

// fill drives one sketch from a byte program: 0xFF is Reset — what
// follows is a new fill — and any other byte b0, with its successor b1, is
// AddN of a value in [e^-23, e^7] (below and above the indexable floor;
// three codes are 0, a negative and NaN) with weight b1&3 (0 is a no-op).
// It returns the reused sketch, a fresh one given only the last fill, and
// the largest indexable value the reused one was ever given.
func fill(program []byte) (reused, fresh *Sketch, maxEver float64) {
	reused, fresh = NewDefault(), NewDefault()
	for i := 0; i < len(program); i++ {
		b0 := program[i]
		if b0 == 0xFF {
			reused.Reset()
			fresh = NewDefault()
			continue
		}
		if i++; i == len(program) {
			break
		}
		b1 := program[i]
		v := math.Exp(float64(int(b0)<<8|int(b1))/65535*30 - 23)
		switch {
		case b0 == 0 && b1 < 4:
			v = 0
		case b0 == 1 && b1 < 4:
			v = -v
		case b0 == 2 && b1 < 4:
			v = math.NaN()
		}
		n := uint64(b1 & 3)
		if i%5 == 0 && n == 1 {
			AddAll(v, reused, fresh) // the shared-lookup form of Add
		} else {
			reused.AddN(v, n)
			fresh.AddN(v, n)
		}
		if n > 0 && v >= minIndexedValue {
			maxEver = math.Max(maxEver, v)
		}
	}
	return reused, fresh, maxEver
}

// same fails unless got answers every query exactly as want does.
func same(t *testing.T, what string, got, want *Sketch) {
	t.Helper()
	if got.Count() != want.Count() {
		t.Fatalf("%s: Count = %d, want %d", what, got.Count(), want.Count())
	}
	if g, w := got.Sum(), want.Sum(); g != w {
		t.Fatalf("%s: Sum = %v, want %v", what, g, w)
	}
	for _, q := range []float64{0, 0.001, 0.25, 0.5, 0.9, 0.99, 0.999, 1, math.NaN()} {
		if g, w := got.Quantile(q), want.Quantile(q); g != w {
			t.Fatalf("%s: Quantile(%v) = %v, want %v", what, q, g, w)
		}
	}
	for _, x := range []float64{-1, 0, 1e-9, 1e-6, 1e-3, 0.02, 1, 100, math.Inf(1)} {
		if g, w := got.CountAbove(x), want.CountAbove(x); g != w {
			t.Fatalf("%s: CountAbove(%v) = %d, want %d", what, x, g, w)
		}
	}
	g, _ := got.MarshalBinary()
	w, _ := want.MarshalBinary()
	if !bytes.Equal(g, w) {
		t.Fatalf("%s: MarshalBinary differs from the fresh sketch's", what)
	}
}

// merged returns into+each of others, in order, leaving the operands be.
func merged(into *Sketch, others ...*Sketch) *Sketch {
	m := into.Clone()
	for _, o := range others {
		m.Merge(o)
	}
	return m
}

// FuzzSketchReuse states the laws the QoS plane's recycled sketches rest
// on: a sketch filled, Reset and refilled any number of times is
// indistinguishable from a fresh one given only the last fill — by every
// query, serialized, and as either operand of Merge; Merge stays
// associative and commutative on such operands; and the window a sketch
// retains never reaches beyond the values it was ever given.
func FuzzSketchReuse(f *testing.F) {
	f.Add([]byte{0x80, 1, 0x90, 2, 0xFF, 0x85, 1}, []byte{0x10, 1, 0xFF, 0xFF, 0xF0, 3}, []byte{})
	f.Add([]byte{0xC0, 1, 0x40, 1, 0xFF, 0x80, 1, 0xFF, 0x80, 2}, []byte{0, 1, 1, 1, 2, 1, 0xFF}, []byte{0x80, 1})
	f.Add([]byte{0x30, 1, 0xFF, 0xFE, 1, 0xFF, 0x70, 5}, []byte{0x70, 1, 0x70, 2}, []byte{0xFF, 0x20, 3, 0xFF})
	f.Fuzz(func(t *testing.T, pa, pb, pc []byte) {
		a, freshA, maxA := fill(pa)
		b, freshB, _ := fill(pb)
		c, freshC, _ := fill(pc)
		same(t, "reused", a, freshA)
		same(t, "reused", b, freshB)
		same(t, "reused", c, freshC)

		// The window: within [index(minIndexedValue), index(maxEver)].
		if maxA == 0 {
			if len(a.store) != 0 {
				t.Fatalf("a sketch never given an indexable value retains %d buckets", len(a.store))
			}
		} else if lo, hi := a.index(minIndexedValue), a.index(maxA); a.offset < lo || a.offset+len(a.store)-1 > hi {
			t.Fatalf("window [%d, %d] reaches beyond [%d, %d], the values ever added",
				a.offset, a.offset+len(a.store)-1, lo, hi)
		}

		// Merge, the reused sketch on either side.
		want := merged(freshA, freshB)
		same(t, "reused.Merge(fresh)", merged(a, freshB), want)
		same(t, "fresh.Merge(reused)", merged(freshA, b), want)
		same(t, "reused.Merge(reused)", merged(a, b), want)

		// Associative and commutative on reused operands.
		abc := merged(freshA, freshB, freshC)
		same(t, "(a+b)+c", merged(merged(a, b), c), abc)
		same(t, "a+(b+c)", merged(a, merged(b, c)), abc)
		same(t, "(c+a)+b", merged(merged(c, a), b), abc)

		// And in place: a merged-into sketch is reusable like any other.
		a.Merge(b)
		same(t, "in place", a, want)
		a.Reset()
		a.Merge(c)
		same(t, "reset, then merged into", a, freshC)
	})
}

// TestAddAllMixedAlpha: AddAll is Add on every sketch, whatever their α.
func TestAddAllMixedAlpha(t *testing.T) {
	got := []*Sketch{NewDefault(), New(0.05), NewDefault()}
	want := []*Sketch{NewDefault(), New(0.05), NewDefault()}
	for _, v := range []float64{0, 1e-10, 3e-4, 0.02, 0.02, 7, math.NaN(), -1} {
		AddAll(v, got...)
		for _, s := range want {
			s.Add(v)
		}
	}
	AddAll(1) // no sketch: nothing to do
	for i := range got {
		same(t, "AddAll", got[i], want[i])
	}
}
