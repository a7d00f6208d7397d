// Package model defines the formal structures of stream processing jobs
// used throughout the library: the user-facing job graph, the parallelized
// runtime graph, job sequences and latency constraints. The definitions
// follow Section II of Lohrmann et al., "Elastic Stream Processing with
// Latency Guarantees" (ICDCS 2015).
package model

import (
	"errors"
	"fmt"
	"strings"
)

// WiringPattern describes how the tasks of two adjacent job vertices are
// connected ("stream grouping" in Storm terminology).
type WiringPattern int

const (
	// PatternRoundRobin distributes data items over consumer tasks in a
	// rotating fashion. Round-robin wiring makes a vertex trivially
	// elastic because no task owns a key range.
	PatternRoundRobin WiringPattern = iota + 1
	// PatternBroadcast replicates every data item to all consumer tasks.
	PatternBroadcast
	// PatternKeyBased routes each data item to the consumer task that owns
	// the item's key partition (hash partitioning).
	PatternKeyBased
)

// String returns the canonical lower-case name of the pattern.
func (w WiringPattern) String() string {
	switch w {
	case PatternRoundRobin:
		return "round-robin"
	case PatternBroadcast:
		return "broadcast"
	case PatternKeyBased:
		return "key-based"
	default:
		return fmt.Sprintf("WiringPattern(%d)", int(w))
	}
}

// LatencyMode selects how task latency is measured for a UDF
// (Section II-A3). The UDF declares the mode because its computation is
// opaque to the engine.
type LatencyMode int

const (
	// LatencyReadReady measures the time between consuming a data item and
	// the task becoming ready to read the next item. It suits map- and
	// filter-like UDFs that work strictly per data item, and coincides
	// with the queueing-theoretic service time.
	LatencyReadReady LatencyMode = iota + 1
	// LatencyReadWrite measures the time between consuming a data item and
	// the next write of any data item. It suits aggregating UDFs such as
	// windowed operators.
	LatencyReadWrite
)

// String returns the canonical name of the latency mode.
func (m LatencyMode) String() string {
	switch m {
	case LatencyReadReady:
		return "read-ready"
	case LatencyReadWrite:
		return "read-write"
	default:
		return fmt.Sprintf("LatencyMode(%d)", int(m))
	}
}

// JobVertex is a node of the job graph. The user attaches a UDF to each
// vertex (at the engine layer) and declares the current, minimum and
// maximum degree of parallelism.
type JobVertex struct {
	// Name identifies the vertex within its job graph.
	Name string
	// Parallelism is the initial degree of parallelism p_jv.
	Parallelism int
	// MinParallelism and MaxParallelism bound the degrees of parallelism
	// the elastic scaler may choose (p_jv^min, p_jv^max).
	MinParallelism int
	MaxParallelism int
	// LatencyMode declares how task latency is measured for this vertex's
	// UDF.
	LatencyMode LatencyMode
}

// ClampParallelism restricts p to the vertex's [min, max] range.
func (v *JobVertex) ClampParallelism(p int) int {
	if p < v.MinParallelism {
		return v.MinParallelism
	}
	if p > v.MaxParallelism {
		return v.MaxParallelism
	}
	return p
}

// EdgeKey identifies a job edge by the names of its endpoint vertices.
type EdgeKey struct {
	Source string
	Target string
}

// String renders the edge key as "source->target".
func (k EdgeKey) String() string { return k.Source + "->" + k.Target }

// ParseEdgeKey inverts EdgeKey.String: it splits "source->target" at the
// first "->". Vertex names therefore must not contain "->" when edge
// keys round-trip through text (JSON summaries, trace reports).
func ParseEdgeKey(s string) (EdgeKey, error) {
	i := strings.Index(s, "->")
	if i < 0 {
		return EdgeKey{}, fmt.Errorf("model: edge key %q has no \"->\" separator", s)
	}
	return EdgeKey{Source: s[:i], Target: s[i+2:]}, nil
}

// JobEdge is a directed edge of the job graph, connecting the tasks of two
// adjacent job vertices according to a wiring pattern.
type JobEdge struct {
	Source  string
	Target  string
	Pattern WiringPattern
}

// Key returns the edge's identifying key.
func (e *JobEdge) Key() EdgeKey { return EdgeKey{Source: e.Source, Target: e.Target} }

// JobGraph is the user-provided DAG JG = (JV, JE). Vertices are identified
// by name; edges by their (source, target) pair. A job graph is built with
// AddVertex/AddEdge and then validated (and frozen) with Validate.
type JobGraph struct {
	vertices map[string]*JobVertex
	order    []string // insertion order, for deterministic iteration
	edges    map[EdgeKey]*JobEdge
	edgeKeys []EdgeKey // insertion order
	out      map[string][]EdgeKey
	in       map[string][]EdgeKey
}

// NewJobGraph returns an empty job graph.
func NewJobGraph() *JobGraph {
	return &JobGraph{
		vertices: make(map[string]*JobVertex),
		edges:    make(map[EdgeKey]*JobEdge),
		out:      make(map[string][]EdgeKey),
		in:       make(map[string][]EdgeKey),
	}
}

// AddVertex inserts a vertex into the graph. The vertex is copied; later
// mutations of the argument do not affect the graph.
func (g *JobGraph) AddVertex(v JobVertex) error {
	if v.Name == "" {
		return errors.New("model: vertex name must not be empty")
	}
	if _, ok := g.vertices[v.Name]; ok {
		return fmt.Errorf("model: duplicate vertex %q", v.Name)
	}
	if v.LatencyMode == 0 {
		v.LatencyMode = LatencyReadReady
	}
	if v.MinParallelism <= 0 {
		v.MinParallelism = 1
	}
	if v.Parallelism <= 0 {
		v.Parallelism = v.MinParallelism
	}
	if v.MaxParallelism <= 0 {
		v.MaxParallelism = v.Parallelism
	}
	if v.MinParallelism > v.MaxParallelism {
		return fmt.Errorf("model: vertex %q: min parallelism %d > max %d",
			v.Name, v.MinParallelism, v.MaxParallelism)
	}
	if v.Parallelism < v.MinParallelism || v.Parallelism > v.MaxParallelism {
		return fmt.Errorf("model: vertex %q: parallelism %d outside [%d, %d]",
			v.Name, v.Parallelism, v.MinParallelism, v.MaxParallelism)
	}
	vc := v
	g.vertices[v.Name] = &vc
	g.order = append(g.order, v.Name)
	return nil
}

// AddEdge inserts a directed edge into the graph. Both endpoints must
// already exist.
func (g *JobGraph) AddEdge(source, target string, pattern WiringPattern) error {
	if _, ok := g.vertices[source]; !ok {
		return fmt.Errorf("model: edge source %q: unknown vertex", source)
	}
	if _, ok := g.vertices[target]; !ok {
		return fmt.Errorf("model: edge target %q: unknown vertex", target)
	}
	if source == target {
		return fmt.Errorf("model: self-loop on vertex %q", source)
	}
	key := EdgeKey{Source: source, Target: target}
	if _, ok := g.edges[key]; ok {
		return fmt.Errorf("model: duplicate edge %s", key)
	}
	if pattern == 0 {
		pattern = PatternRoundRobin
	}
	g.edges[key] = &JobEdge{Source: source, Target: target, Pattern: pattern}
	g.edgeKeys = append(g.edgeKeys, key)
	g.out[source] = append(g.out[source], key)
	g.in[target] = append(g.in[target], key)
	return nil
}

// Vertex returns the vertex with the given name, or nil if absent.
func (g *JobGraph) Vertex(name string) *JobVertex { return g.vertices[name] }

// Edge returns the edge with the given key, or nil if absent.
func (g *JobGraph) Edge(key EdgeKey) *JobEdge { return g.edges[key] }

// Vertices returns all vertices in insertion order.
func (g *JobGraph) Vertices() []*JobVertex {
	vs := make([]*JobVertex, 0, len(g.order))
	for _, name := range g.order {
		vs = append(vs, g.vertices[name])
	}
	return vs
}

// Edges returns all edges in insertion order.
func (g *JobGraph) Edges() []*JobEdge {
	es := make([]*JobEdge, 0, len(g.edgeKeys))
	for _, k := range g.edgeKeys {
		es = append(es, g.edges[k])
	}
	return es
}

// OutEdges returns the keys of the edges leaving the named vertex, in
// insertion order.
func (g *JobGraph) OutEdges(name string) []EdgeKey {
	keys := make([]EdgeKey, len(g.out[name]))
	copy(keys, g.out[name])
	return keys
}

// InEdges returns the keys of the edges entering the named vertex, in
// insertion order.
func (g *JobGraph) InEdges(name string) []EdgeKey {
	keys := make([]EdgeKey, len(g.in[name]))
	copy(keys, g.in[name])
	return keys
}

// TopologicalOrder returns the vertex names in a topological order, or an
// error if the graph contains a cycle. The order is deterministic: among
// ready vertices, insertion order wins.
func (g *JobGraph) TopologicalOrder() ([]string, error) {
	indeg := make(map[string]int, len(g.vertices))
	for _, name := range g.order {
		indeg[name] = len(g.in[name])
	}
	var ready []string
	for _, name := range g.order {
		if indeg[name] == 0 {
			ready = append(ready, name)
		}
	}
	order := make([]string, 0, len(g.vertices))
	for len(ready) > 0 {
		name := ready[0]
		ready = ready[1:]
		order = append(order, name)
		for _, ek := range g.out[name] {
			indeg[ek.Target]--
			if indeg[ek.Target] == 0 {
				ready = append(ready, ek.Target)
			}
		}
	}
	if len(order) != len(g.vertices) {
		return nil, errors.New("model: job graph contains a cycle")
	}
	return order, nil
}

// Validate checks that the graph is a non-empty DAG in which every vertex
// is reachable in the sense of having at least one edge unless it is the
// only vertex.
func (g *JobGraph) Validate() error {
	if len(g.vertices) == 0 {
		return errors.New("model: job graph has no vertices")
	}
	if _, err := g.TopologicalOrder(); err != nil {
		return err
	}
	if len(g.vertices) > 1 {
		for _, name := range g.order {
			if len(g.in[name]) == 0 && len(g.out[name]) == 0 {
				return fmt.Errorf("model: vertex %q is disconnected", name)
			}
		}
	}
	return nil
}
