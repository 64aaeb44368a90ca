// Command iselbench regenerates the paper's evaluation (§VII–§IX):
// every figure and table as data, written as JSON to stdout. The
// checked-in EXPERIMENTS.json is its output:
//
//	go run ./cmd/iselbench > EXPERIMENTS.json
//
// It takes no flags. Each timed leg runs five times and reports the
// median and interquartile range of each time column. A count that
// differs between runs, or a machine-code round trip that diverges,
// exits non-zero. EXPERIMENTS.md reads the numbers.
package main

import (
	"encoding/json"
	"fmt"
	"os"

	"iselgen/internal/harness"
)

// repeats is how many times each timed leg runs.
const repeats = 5

func main() {
	if len(os.Args) > 1 {
		fmt.Fprintln(os.Stderr, "usage: iselbench > EXPERIMENTS.json")
		os.Exit(2)
	}
	rep, err := harness.Evaluate(repeats)
	if err != nil {
		fmt.Fprintln(os.Stderr, "iselbench:", err)
		os.Exit(1)
	}
	je := json.NewEncoder(os.Stdout)
	je.SetIndent("", "  ")
	if err := je.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "iselbench:", err)
		os.Exit(1)
	}
}
