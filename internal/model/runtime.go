package model

import (
	"fmt"
	"sort"
)

// TaskID identifies a task in the runtime graph: the index-th parallel
// instance of a job vertex's UDF.
type TaskID struct {
	Vertex string
	Index  int
}

// String renders the task id as "vertex[index]".
func (t TaskID) String() string { return fmt.Sprintf("%s[%d]", t.Vertex, t.Index) }

// ChannelID identifies a channel in the runtime graph: the communication
// path from one producer task to one consumer task along a job edge.
type ChannelID struct {
	Edge     EdgeKey
	Producer int
	Consumer int
}

// String renders the channel id as "source[i]->target[j]".
func (c ChannelID) String() string {
	return fmt.Sprintf("%s[%d]->%s[%d]", c.Edge.Source, c.Producer, c.Edge.Target, c.Consumer)
}

// ScalingAction describes a change of a vertex's degree of parallelism
// decided by the elastic scaler.
type ScalingAction struct {
	Vertex string
	// From and To are the old and new degrees of parallelism.
	From int
	To   int
}

// Delta returns the signed change in task count.
func (a ScalingAction) Delta() int { return a.To - a.From }

// IsScaleUp reports whether the action increases parallelism.
func (a ScalingAction) IsScaleUp() bool { return a.To > a.From }

// String renders the action for logs.
func (a ScalingAction) String() string {
	return fmt.Sprintf("%s: %d -> %d", a.Vertex, a.From, a.To)
}

// DiffParallelism computes the scaling actions that transform the current
// parallelism map into the desired one. Vertices missing from desired are
// left unchanged. Actions are ordered by vertex name for determinism.
func DiffParallelism(current, desired map[string]int) []ScalingAction {
	var actions []ScalingAction
	names := make([]string, 0, len(desired))
	for name := range desired {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		from, ok := current[name]
		if !ok {
			continue
		}
		if to := desired[name]; to != from {
			actions = append(actions, ScalingAction{Vertex: name, From: from, To: to})
		}
	}
	return actions
}
