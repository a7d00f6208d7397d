package main

import (
	"encoding/json"
	"fmt"

	"fixture/internal/lib"
)

func main() {
	_ = lib.Live{}.Err()
	_ = lib.Dead{}
	_ = lib.Total(lib.Named{})
	_ = lib.Latest(lib.Clock{}, lib.Clock{})
	_ = lib.Config{Live: 1}.Scaled()
	_ = lib.NewPair().Sum()
	_ = lib.Count()
	_ = lib.Event{Kind: "scale"}
	_, _ = json.Marshal([]*lib.Report{{Total: 1}})
	_ = lib.Unsent{}
	_ = fmt.Sprintf("%+v", lib.Point{X: 1})
	_ = fmt.Sprint(lib.Level{Code: 1})
	_ = fmt.Sprintf("%+v", lib.Gauge{V: 1})
}
