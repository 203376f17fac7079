// Command mpidrun is the paper's job launcher (§IV-B):
//
//	mpidrun -f hostfile -O n -A m -M mode -jar jarname classname params
//
// Task code must be resident in the worker processes (the paper loads it
// from the application jar), so this launcher ships with the benchmark
// applications built in and generates their inputs:
//
//	mpidrun -O 8 -A 4 -M MapReduce terasort  [records]
//	mpidrun -O 8 -A 4 -M MapReduce wordcount [lines]
//	mpidrun -O 8 -A 4 -M Iteration pagerank  [pages rounds]
//	mpidrun -O 8 -A 4 -M Iteration kmeans    [points rounds]
//	mpidrun -O 4 -A 2 -M Streaming topk      [events]
//
// -n sets the number of worker processes (the hostfile analogue).
//
// Observability:
//
//	-trace out.json   write a Chrome trace_event file of the run (open in
//	                  chrome://tracing or https://ui.perfetto.dev)
//	-counters         print the runtime shuffle/spill/checkpoint counters
//	-pprof addr       serve net/http/pprof on addr for the run's duration
//
// -launch selects how workers are hosted: "goroutine" (default) runs
// every worker inside this process; "proc" spawns -n real worker OS
// processes (re-executions of this binary) that rendezvous over TCP and
// run the job cross-process (§IV-B). Process launch supports terasort and
// wordcount; with -ft, a worker process dying mid-run is relaunched and
// the job completes from its checkpoints; adding -partial-restart
// respawns only the dead rank and replays its committed chunks instead
// of relaunching the whole fleet.
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"sort"
	"strconv"
	"strings"

	"datampi/internal/bench"
	"datampi/internal/core"
	"datampi/internal/launch"
	"datampi/internal/trace"
)

func main() {
	// Spawned worker copies of this binary must enter the worker loop
	// before flag parsing: their command line is the launcher's, not ours.
	if launch.IsSpawnedWorker() {
		if err := launch.RunSpawnedWorker(); err != nil {
			fmt.Fprintln(os.Stderr, "mpidrun worker:", err)
			os.Exit(1)
		}
		return
	}
	numO := flag.Int("O", 4, "number of tasks in COMM_BIPARTITE_O")
	numA := flag.Int("A", 2, "number of tasks in COMM_BIPARTITE_A")
	mode := flag.String("M", "MapReduce", "mode: Common|MapReduce|Iteration|Streaming")
	procs := flag.Int("n", 2, "worker processes to spawn")
	launchMode := flag.String("launch", "goroutine", "worker hosting: goroutine (in-process) | proc (spawn real worker processes)")
	ft := flag.Bool("ft", false, "enable the key-value library-level checkpoint (fault tolerance)")
	partial := flag.Bool("partial-restart", false, "with -launch=proc -ft: recover a dead worker by respawning only that rank instead of relaunching the fleet")
	hostfile := flag.String("f", "", "hostfile: one host per line (localhost only), overrides -n")
	tracePath := flag.String("trace", "", "write a Chrome trace_event JSON file of the run to this path")
	counters := flag.Bool("counters", false, "print the runtime counters after the run")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	flag.Parse()
	if *hostfile != "" {
		data, err := os.ReadFile(*hostfile)
		if err != nil {
			fatal(err)
		}
		hosts, err := launch.ParseHostfile(string(data))
		if err != nil {
			fatal(err)
		}
		n, err := launch.CheckLocalHosts(hosts)
		if err != nil {
			fatal(err)
		}
		if n > 0 {
			*procs = n
		}
	}
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: mpidrun -O n -A m -M mode <terasort|wordcount|pagerank|kmeans|topk> [params]")
		os.Exit(2)
	}
	switch *launchMode {
	case "goroutine":
	case "proc":
		runProc(*numO, *numA, *mode, *procs, *ft, *partial, *tracePath, *counters, flag.Args())
		return
	default:
		fmt.Fprintf(os.Stderr, "mpidrun: unknown -launch mode %q (want goroutine or proc)\n", *launchMode)
		os.Exit(2)
	}
	if *partial {
		fmt.Fprintln(os.Stderr, "mpidrun: -partial-restart requires -launch=proc")
		os.Exit(2)
	}
	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "mpidrun: pprof:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "mpidrun: pprof at http://%s/debug/pprof/\n", *pprofAddr)
	}
	app := flag.Arg(0)
	arg := func(i, def int) int {
		if flag.NArg() > i {
			if v, err := strconv.Atoi(flag.Arg(i)); err == nil {
				return v
			}
		}
		return def
	}
	env, err := bench.NewEnv(bench.EnvConfig{Nodes: *procs, BlockSize: 256 << 10})
	if err != nil {
		fatal(err)
	}
	defer env.Close()

	inst := bench.Instr{}
	if *tracePath != "" {
		inst.Trace = trace.New()
	}
	var res *core.Result

	switch app {
	case "terasort":
		records := arg(1, 100000)
		if err := bench.TeraGen(env.FS, "/in", records, 1); err != nil {
			fatal(err)
		}
		opts := bench.TeraSortOpts{NumO: *numO, NumA: *numA, Procs: *procs}
		if *ft {
			dir, err := os.MkdirTemp("", "mpidrun-cp-")
			if err != nil {
				fatal(err)
			}
			defer os.RemoveAll(dir)
			opts.FaultTolerance = true
			opts.CheckpointDir = dir
			opts.CheckpointRecords = int64(records / 50)
		}
		res, err = bench.DataMPITeraSort(env, "/in", opts, inst)
		if err != nil {
			fatal(err)
		}
		if err := bench.VerifyTeraSort(env.FS, "/in.sorted", records); err != nil {
			fatal(err)
		}
		fmt.Printf("terasort (%s mode, ft=%v): %d records sorted in %v (%d local A tasks, %d remote)\n",
			*mode, *ft, records, res.Elapsed, res.LocalATasks, res.RemoteATasks)
	case "wordcount":
		lines := arg(1, 20000)
		if err := bench.TextGen(env.FS, "/in", lines, 10, 5000, 1); err != nil {
			fatal(err)
		}
		res, err = bench.DataMPIWordCount(env, "/in", *numO, *numA, inst)
		if err != nil {
			fatal(err)
		}
		counts, err := bench.ReadCounts(env.FS, "/in.counts")
		if err != nil {
			fatal(err)
		}
		fmt.Printf("wordcount: %d lines, %d distinct words in %v\n", lines, len(counts), res.Elapsed)
	case "pagerank":
		pages, rounds := arg(1, 5000), arg(2, 7)
		g := bench.GenGraph(pages, 8, 1)
		var ranks []float64
		res, ranks, err = bench.DataMPIPageRank(env, g, *numO, *numA, rounds, inst)
		if err != nil {
			fatal(err)
		}
		var sum float64
		for _, r := range ranks {
			sum += r
		}
		fmt.Printf("pagerank: %d pages, %d rounds %v (rank mass %.3f)\n", pages, rounds, res.RoundTimes, sum)
	case "kmeans":
		points, rounds := arg(1, 10000), arg(2, 7)
		pts := bench.GenPoints(points, 8, *numA*2, 1)
		var cents [][]float64
		res, cents, err = bench.DataMPIKMeans(env, pts, *numA*2, *numO, rounds, inst)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("kmeans: %d points, %d centroids, %d rounds %v\n", points, len(cents), rounds, res.RoundTimes)
	case "topk":
		events := arg(1, 5000)
		var lat bench.LatencyCollector
		var top map[string]uint64
		top, res, err = bench.DataMPITopK(env, bench.EventGen(events, 200, 100, 1), 5000, *numO, 10, &lat, inst)
		if err != nil {
			fatal(err)
		}
		l := lat.Latencies()
		fmt.Printf("topk: %d events, p50 latency %v, top-10: %v\n",
			events, bench.Percentile(l, 50), top)
	default:
		fmt.Fprintf(os.Stderr, "mpidrun: unknown application %q\n", app)
		os.Exit(2)
	}

	if *counters && res != nil {
		printCounters(res)
	}
	if inst.Trace != nil {
		if err := inst.Trace.WriteFile(*tracePath); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "mpidrun: trace written to %s (open in chrome://tracing or ui.perfetto.dev)\n", *tracePath)
	}
}

// runProc is the -launch=proc path: build a self-contained job spec from
// the flags, spawn the worker fleet, and run the job across it.
func runProc(numO, numA int, mode string, procs int, ft, partial bool, tracePath string, counters bool, args []string) {
	if mode != "MapReduce" {
		fatal(fmt.Errorf("-launch=proc supports MapReduce mode only (got -M %s)", mode))
	}
	if partial && !ft {
		fatal(fmt.Errorf("-partial-restart requires -ft (recovery replays committed checkpoints)"))
	}
	app := args[0]
	argN := func(i, def int) int {
		if len(args) > i {
			if v, err := strconv.Atoi(args[i]); err == nil {
				return v
			}
		}
		return def
	}
	outDir, err := os.MkdirTemp("", "mpidrun-out-")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(outDir)
	spec := &launch.JobSpec{
		App: app, NumO: numO, NumA: numA, Procs: procs,
		Seed: 1, OutDir: outDir,
	}
	var records int
	switch app {
	case "wordcount":
		lines := argN(1, 20000)
		spec.Lines = (lines + numO - 1) / numO // spec lines are per O task
	case "terasort":
		records = argN(1, 100000)
		spec.Records = records
	}
	if ft {
		cpDir, err := os.MkdirTemp("", "mpidrun-cp-")
		if err != nil {
			fatal(err)
		}
		defer os.RemoveAll(cpDir)
		spec.FT = true
		spec.PartialRestart = partial
		spec.CheckpointDir = cpDir
		if records > 0 {
			spec.CheckpointRecords = int64(records / 50)
		}
	}
	opt := launch.Options{Output: os.Stderr}
	if tracePath != "" {
		opt.Trace = trace.New()
	}
	res, err := launch.Launch(spec, opt)
	if err != nil {
		fatal(err)
	}
	switch app {
	case "wordcount":
		distinct, total, err := summarizeWordCount(outDir, numA)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("wordcount (proc launch, %d workers, ft=%v): %d words, %d distinct in %v\n",
			procs, ft, total, distinct, res.Elapsed)
	case "terasort":
		n, err := verifySortedParts(outDir, numA)
		if err != nil {
			fatal(err)
		}
		if n != spec.Records {
			fatal(fmt.Errorf("terasort produced %d records, want %d", n, spec.Records))
		}
		fmt.Printf("terasort (proc launch, %d workers, ft=%v): %d records sorted in %v\n",
			procs, ft, n, res.Elapsed)
	}
	if counters {
		printCounters(res)
	}
	if opt.Trace != nil {
		if err := opt.Trace.WriteFile(tracePath); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "mpidrun: merged cross-process trace written to %s\n", tracePath)
	}
}

// summarizeWordCount folds the A tasks' part files into (distinct, total).
func summarizeWordCount(dir string, numA int) (int, int64, error) {
	distinct := 0
	var total int64
	for a := 0; a < numA; a++ {
		data, err := os.ReadFile(launch.PartPath(dir, a))
		if err != nil {
			return 0, 0, err
		}
		for _, line := range splitLines(data) {
			var word string
			var n int64
			if _, err := fmt.Sscanf(line, "%s\t%d", &word, &n); err != nil {
				return 0, 0, fmt.Errorf("bad wordcount output line %q", line)
			}
			distinct++
			total += n
		}
	}
	return distinct, total, nil
}

// verifySortedParts checks the terasort output is one global key order
// across the concatenated part files and returns the record count.
func verifySortedParts(dir string, numA int) (int, error) {
	var prev string
	n := 0
	for a := 0; a < numA; a++ {
		data, err := os.ReadFile(launch.PartPath(dir, a))
		if err != nil {
			return 0, err
		}
		for _, line := range splitLines(data) {
			key, _, _ := strings.Cut(line, "\t")
			if key < prev {
				return 0, fmt.Errorf("terasort output out of order in part %d: %q after %q", a, key, prev)
			}
			prev = key
			n++
		}
	}
	return n, nil
}

func splitLines(data []byte) []string {
	var out []string
	for _, l := range strings.Split(string(data), "\n") {
		if l != "" {
			out = append(out, l)
		}
	}
	return out
}

// printCounters renders the runtime counters (and any user counters) as a
// sorted human-readable table.
func printCounters(res *core.Result) {
	section := func(title string, m map[string]int64) {
		if len(m) == 0 {
			return
		}
		fmt.Printf("%s:\n", title)
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("  %-40s %12d\n", k, m[k])
		}
	}
	section("runtime counters", res.RuntimeCounters)
	section("user counters", res.Counters)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mpidrun:", err)
	os.Exit(1)
}
