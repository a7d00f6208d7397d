package engine

import "math/rand"

// splitmix is a splitmix64 generator, the engine's rand.Source64: eight
// bytes of state, seeded by a store. Submit, a scale-up and a restart
// build one generator per task, output gate and supervisor while they
// hold up the job, and math/rand's default source would cost a 4.9 KB
// table and ≈ 15 µs of seeding each (DESIGN.md "What a task costs to
// start").
type splitmix uint64

// newRand returns a *rand.Rand over a splitmix64 generator.
func newRand(seed int64) *rand.Rand { return rand.New(newSplitmix(seed)) }

func newSplitmix(seed int64) *splitmix { s := splitmix(seed); return &s }

func (s *splitmix) Seed(seed int64) { *s = splitmix(seed) }

func (s *splitmix) Int63() int64 { return int64(s.Uint64() >> 1) }

func (s *splitmix) Uint64() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}
