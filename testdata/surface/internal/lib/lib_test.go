package lib

import "testing"

func TestOnlyTests(t *testing.T) {
	if OnlyTests() != 0 {
		t.Fail()
	}
}

func TestTested(t *testing.T) {
	if Count().Tested != 1 {
		t.Fail()
	}
}
