package core

import (
	"math/rand"
	"testing"
)

// TestObsRebalanceTraceReplay: the audit trail must be a faithful replay
// of the descent — starting from the lower bounds and applying the steps
// in order reproduces exactly the allocation Rebalance returned.
func TestObsRebalanceTraceReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		sm := randomSequenceModel(rng, 1+rng.Intn(5), 64)
		wLimit := 0.002 + rng.Float64()*0.2

		var trace []RebalanceStep
		p, err := RebalanceTraced(sm, wLimit, nil, &trace)
		if err != nil {
			if len(trace) != 0 {
				t.Fatalf("trial %d: infeasible run recorded %d steps", trial, len(trace))
			}
			continue
		}

		replay := make(map[string]int, len(sm.Vertices))
		for _, vm := range sm.Vertices {
			replay[vm.Name] = vm.Min
		}
		for i, st := range trace {
			if st.To <= st.From {
				t.Fatalf("trial %d step %d: non-increasing step %+v", trial, i, st)
			}
			if replay[st.Vertex] != st.From {
				t.Fatalf("trial %d step %d: From=%d but replayed state is %d",
					trial, i, st.From, replay[st.Vertex])
			}
			replay[st.Vertex] = st.To
		}
		for name, want := range p {
			if replay[name] != want {
				t.Fatalf("trial %d: replaying %d steps gives %v, Rebalance returned %v",
					trial, len(trace), replay, p)
			}
		}

		// The traced variant must not change the optimization outcome.
		plain, err2 := Rebalance(sm, wLimit, nil)
		if err2 != nil {
			t.Fatalf("trial %d: plain Rebalance errored: %v", trial, err2)
		}
		for name, want := range plain {
			if p[name] != want {
				t.Fatalf("trial %d: traced result %v != plain result %v", trial, p, plain)
			}
		}
	}
}
