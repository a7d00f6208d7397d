package sim

import (
	"testing"
	"unsafe"
)

// TestItemSize pins an item at 56 bytes: the fields the simulator reads,
// the lineage and the trace span. A marker id belongs in the batch
// header and a window's samples beside its list payload, not here.
func TestItemSize(t *testing.T) {
	if n := unsafe.Sizeof(Item{}); n != 56 {
		t.Errorf("unsafe.Sizeof(Item{}) = %d, want 56", n)
	}
}
