// Package lib is the fixture of the exported-surface guard: each
// declaration is one case that TestExportedSurfaceFixture checks.
package lib

// Live and Dead both have an Err method; only Live's is called.
type Live struct{}

func (Live) Err() error { return nil }

type Dead struct{}

func (Dead) Err() error { return nil }

// Named's Size is called only through the Sizer interface.
type Named struct{}

func (Named) Size() int { return 1 }

type Sizer interface{ Size() int }

func Total(s Sizer) int { return s.Size() }

// Clock's After satisfies Latest's generic constraint.
type Clock struct{ at int }

func (c Clock) After(d Clock) bool { return c.at > d.at }

type Instant[T any] interface{ After(T) bool }

func Latest[T Instant[T]](a, b T) T {
	if b.After(a) {
		return b
	}
	return a
}

// OnlyTests is called by lib_test.go alone.
func OnlyTests() int { return 0 }

// Planned is allowlisted.
func Planned() {}
