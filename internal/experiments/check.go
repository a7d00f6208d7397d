// Package experiments regenerates every measured figure and table of the
// paper's evaluation (Section III-C and Section V): Figure 3 (batching
// trade-off under static provisioning), Figure 5 (Rebalance solution
// surface), Figure 6 (elastic vs unelastic PrimeTester), the Section V-A
// task-hours-vs-constraint sweep, and Figure 8 (TwitterSentiment under
// reactive scaling). Each runner returns the raw time series plus a list
// of shape checks comparing the reproduction against the paper's
// qualitative results (orderings, ratios, crossover positions — not
// absolute numbers, per the substitution of the 130-node cluster by a
// simulator).
package experiments

import (
	"fmt"
	"strings"
)

// Check is one shape assertion against the paper's reported result.
type Check struct {
	// Name identifies the assertion.
	Name string
	// Paper is the paper's reported value or relationship.
	Paper string
	// Measured is the reproduction's value.
	Measured string
	// Pass reports whether the shape holds.
	Pass bool
}

// String renders the check as a one-line report.
func (c Check) String() string {
	status := "PASS"
	if !c.Pass {
		status = "FAIL"
	}
	return fmt.Sprintf("[%s] %s: paper=%s measured=%s", status, c.Name, c.Paper, c.Measured)
}

// CheckList aggregates checks.
type CheckList []Check

// Add appends a check.
func (l *CheckList) Add(name, paper, measured string, pass bool) {
	*l = append(*l, Check{Name: name, Paper: paper, Measured: measured, Pass: pass})
}

// Failed returns the failing checks.
func (l CheckList) Failed() []Check {
	var out []Check
	for _, c := range l {
		if !c.Pass {
			out = append(out, c)
		}
	}
	return out
}

// String renders all checks, one per line.
func (l CheckList) String() string {
	var b strings.Builder
	for _, c := range l {
		b.WriteString(c.String())
		b.WriteByte('\n')
	}
	return b.String()
}
