package model

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// SequenceElementKind distinguishes vertex elements from edge elements in a
// job sequence.
type SequenceElementKind int

const (
	// ElementVertex marks a job-vertex element.
	ElementVertex SequenceElementKind = iota + 1
	// ElementEdge marks a job-edge element.
	ElementEdge
)

// SequenceElement is one element of a job sequence: either a job vertex or
// a job edge.
type SequenceElement struct {
	Kind   SequenceElementKind
	Vertex string  // set when Kind == ElementVertex
	Edge   EdgeKey // set when Kind == ElementEdge
}

// String renders the element for diagnostics.
func (e SequenceElement) String() string {
	if e.Kind == ElementVertex {
		return e.Vertex
	}
	return e.Edge.String()
}

// Sequence is a job sequence js: an n-tuple of connected job vertices and
// job edges, where both the first and the last element may be either a
// vertex or an edge (Section II-A4). A sequence induces a set of runtime
// sequences in the runtime graph; the latency constraint semantics are
// defined over those runtime sequences.
type Sequence struct {
	elements []SequenceElement
}

// ParseSequence builds a sequence from an alternating element list against
// a job graph. Elements are given as vertex names and "a->b" edge
// specifications, e.g.:
//
//	ParseSequence(g, "src->filter", "filter", "filter->sink")
//
// It validates that consecutive elements are connected in the graph.
func ParseSequence(g *JobGraph, elements ...string) (*Sequence, error) {
	if len(elements) == 0 {
		return nil, errors.New("model: empty sequence")
	}
	seq := &Sequence{}
	for _, raw := range elements {
		if strings.Contains(raw, "->") {
			parts := strings.SplitN(raw, "->", 2)
			key := EdgeKey{Source: strings.TrimSpace(parts[0]), Target: strings.TrimSpace(parts[1])}
			if g.Edge(key) == nil {
				return nil, fmt.Errorf("model: sequence references unknown edge %s", key)
			}
			seq.elements = append(seq.elements, SequenceElement{Kind: ElementEdge, Edge: key})
			continue
		}
		name := strings.TrimSpace(raw)
		if g.Vertex(name) == nil {
			return nil, fmt.Errorf("model: sequence references unknown vertex %q", name)
		}
		seq.elements = append(seq.elements, SequenceElement{Kind: ElementVertex, Vertex: name})
	}
	if err := seq.validate(); err != nil {
		return nil, err
	}
	return seq, nil
}

// validate checks the alternating, connected structure of the sequence.
func (s *Sequence) validate() error {
	for i := 1; i < len(s.elements); i++ {
		prev, cur := s.elements[i-1], s.elements[i]
		switch {
		case prev.Kind == ElementVertex && cur.Kind == ElementEdge:
			if cur.Edge.Source != prev.Vertex {
				return fmt.Errorf("model: sequence element %s does not leave vertex %q", cur.Edge, prev.Vertex)
			}
		case prev.Kind == ElementEdge && cur.Kind == ElementVertex:
			if prev.Edge.Target != cur.Vertex {
				return fmt.Errorf("model: sequence edge %s does not enter vertex %q", prev.Edge, cur.Vertex)
			}
		default:
			return fmt.Errorf("model: sequence elements %s and %s do not alternate", prev, cur)
		}
	}
	return nil
}

// Vertices returns the names of the job vertices V(js) in sequence order.
func (s *Sequence) Vertices() []string {
	var names []string
	for _, e := range s.elements {
		if e.Kind == ElementVertex {
			names = append(names, e.Vertex)
		}
	}
	return names
}

// Edges returns the keys of the job edges E(js) in sequence order.
func (s *Sequence) Edges() []EdgeKey {
	var keys []EdgeKey
	for _, e := range s.elements {
		if e.Kind == ElementEdge {
			keys = append(keys, e.Edge)
		}
	}
	return keys
}

// IngoingEdge returns the sequence edge immediately preceding the named
// vertex, and whether one exists. The latency model uses this edge's
// channel measurements to derive the vertex's queue waiting time.
func (s *Sequence) IngoingEdge(vertex string) (EdgeKey, bool) {
	for i, e := range s.elements {
		if e.Kind == ElementVertex && e.Vertex == vertex && i > 0 {
			return s.elements[i-1].Edge, true
		}
	}
	return EdgeKey{}, false
}

// String renders the sequence as "(e1, v1, e2, ...)".
func (s *Sequence) String() string {
	parts := make([]string, len(s.elements))
	for i, e := range s.elements {
		parts[i] = e.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Constraint is a latency constraint (js, ℓ, t): the mean sequence latency
// of the data items passing through the runtime sequences of js during any
// window of t time units must not exceed ℓ (Section II-A5, Equation 1).
// With Quantile set it becomes a percentile constraint (js, ℓ_pXX, t): the
// q-th quantile of the sequence latencies, rather than their mean, must
// stay under ℓ.
type Constraint struct {
	// Name identifies the constraint in reports.
	Name string
	// Sequence is the constrained job sequence js.
	Sequence *Sequence
	// Bound is the desired upper latency bound ℓ.
	Bound time.Duration
	// Window is the averaging window t (e.g. 10 s).
	Window time.Duration
	// Quantile selects percentile semantics: 0 keeps the paper's mean
	// constraint; a value in (0, 1) bounds that quantile of the sequence
	// latency instead (e.g. 0.99 for a p99 constraint).
	Quantile float64
}

// IsPercentile reports whether the constraint bounds a latency quantile
// rather than the mean.
func (c *Constraint) IsPercentile() bool { return c.Quantile > 0 && c.Quantile < 1 }

// Validate checks the constraint for structural soundness.
func (c *Constraint) Validate() error {
	if c.Sequence == nil || len(c.Sequence.elements) == 0 {
		return errors.New("model: constraint has no sequence")
	}
	if c.Bound <= 0 {
		return fmt.Errorf("model: constraint %q: bound must be positive, got %v", c.Name, c.Bound)
	}
	if c.Window <= 0 {
		return fmt.Errorf("model: constraint %q: window must be positive, got %v", c.Name, c.Window)
	}
	if c.Quantile != 0 && !(c.Quantile > 0 && c.Quantile < 1) {
		return fmt.Errorf("model: constraint %q: quantile must be in (0,1) or 0 for mean semantics, got %v", c.Name, c.Quantile)
	}
	return nil
}

// QuantileLabel renders a quantile as a metric-style label ("p99",
// "p99.9"); the empty string for mean constraints.
func QuantileLabel(q float64) string {
	if !(q > 0 && q < 1) {
		return ""
	}
	s := strconv.FormatFloat(q*100, 'f', -1, 64)
	return "p" + s
}

// String renders the constraint for diagnostics.
func (c *Constraint) String() string {
	if c.IsPercentile() {
		return fmt.Sprintf("%s: %s(%s) <= %v over %v", c.Name, c.Sequence, QuantileLabel(c.Quantile), c.Bound, c.Window)
	}
	return fmt.Sprintf("%s: %s <= %v over %v", c.Name, c.Sequence, c.Bound, c.Window)
}
