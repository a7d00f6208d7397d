package engine

import (
	"testing"
	"unsafe"
)

// TestRecordSize pins a Record at 72 bytes: Sampled shares srcID's
// word. Every hop copies records into and out of batches, and a field
// placed after EmitTime's padding would make each copy 80 bytes.
func TestRecordSize(t *testing.T) {
	if n := unsafe.Sizeof(Record{}); n != 72 {
		t.Errorf("unsafe.Sizeof(Record{}) = %d, want 72", n)
	}
}
