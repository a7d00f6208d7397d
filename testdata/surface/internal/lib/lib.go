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

// Config's Live field is set by main and read by Scaled; Config.Dead is
// neither read nor written.
type Config struct {
	Live int
	Dead int
}

func (c Config) Scaled() int { return 2 * c.Live }

// Pair's fields are written by an unkeyed literal and read by Sum.
type Pair struct{ First, Second int }

func NewPair() Pair { return Pair{1, 2} }

func (p Pair) Sum() int { return p.First + p.Second }

// Counters.Written is only written: by a keyed literal, =, += and ++.
// Counters.Tested is read only by lib_test.go.
type Counters struct {
	Written int
	Tested  int
}

func Count() Counters {
	c := Counters{Written: 1, Tested: 1}
	c.Written = 2
	c.Written += 3
	c.Written++
	return c
}

// Event's tag does not make Kind read: nothing encodes an Event.
type Event struct {
	Kind string `json:"kind"`
}

// Report reaches encoding/json through a slice of pointers, so Total is
// read without a tag and At's MarshalJSON is used; Cache is tagged out.
type Report struct {
	Total int
	At    Stamp
	Cache int `json:"-"`
}

// Stamp encodes itself, so encoding/json reads no field of it.
type Stamp struct{ Unix int64 }

func (s Stamp) MarshalJSON() ([]byte, error) { return []byte("0"), nil }

// Unsent has a MarshalJSON, but nothing encodes an Unsent.
type Unsent struct{}

func (Unsent) MarshalJSON() ([]byte, error) { return nil, nil }

// Point is printed with %+v, which reads X.
type Point struct{ X int }

// Level is printed through its String method, which reads no field.
type Level struct{ Code int }

func (Level) String() string { return "level" }

// Gauge's String needs a pointer; a Gauge printed by value shows V.
type Gauge struct{ V int }

func (*Gauge) String() string { return "gauge" }
