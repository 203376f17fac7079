// Command perfbench is the repository's benchmark. It runs one workload —
// wordcount, terasort or stream-window — in-process through the public
// datampi API for a fixed time, checks every output against a reference,
// and prints a human-readable summary followed by one JSON result line:
//
//	perfbench --workload terasort --seed 7 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// tracing off. With --trace 1 the run alternates untraced and traced
// operations; the traced ones turn on the runtime's WithTrace output and
// the benchmark's own timers around its calls into each layer, and the
// result carries the per-layer metrics plus the tracing overhead. See
// README.md for every metric's definition and the layers each workload
// should and should not move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	var cfg runConfig
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: wordcount, terasort or stream-window")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "how long to measure, in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.Parse()
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if cfg.seconds <= 0 || cfg.seconds > 120 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be in (0, 120]")
		os.Exit(2)
	}
	cfg.trace = traceFlag == 1
	cfg.measure = time.Duration(cfg.seconds * float64(time.Second))

	fp := fingerprint()
	fpJSON, _ := json.Marshal(fp) // a map of strings always encodes
	fmt.Printf("machine: %s\n", fpJSON)

	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, f := range rep.failures {
		fmt.Printf("FAILED %s\n", f)
	}
	for _, line := range rep.notes {
		fmt.Println(line)
	}
	for _, name := range rep.order {
		m := rep.out.Metrics[name]
		fmt.Printf("%-40s %16.6g %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(rep.out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding result:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	// A stalled operation may have left goroutines behind; exiting ends them.
	os.Exit(0)
}
