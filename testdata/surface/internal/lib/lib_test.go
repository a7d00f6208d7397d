package lib

import "testing"

func TestOnlyTests(t *testing.T) {
	if OnlyTests() != 0 {
		t.Fail()
	}
}
