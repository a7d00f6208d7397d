package main

import "fixture/internal/lib"

func main() {
	_ = lib.Live{}.Err()
	_ = lib.Dead{}
	_ = lib.Total(lib.Named{})
	_ = lib.Latest(lib.Clock{}, lib.Clock{})
	_ = lib.Config{Live: 1}
	_ = lib.NewPair()
}
