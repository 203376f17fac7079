package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"sync/atomic"
	"time"

	"datampi/internal/kv"
)

// runConfig is one invocation's command line.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	measure  time.Duration
	trace    bool
}

// limits bound a run; tests shorten them.
type limits struct {
	// opDeadline bounds every set-up and every operation. A normal
	// operation takes a few seconds, so reaching it means a stall.
	opDeadline time.Duration
	// stallGrace is how long a stalled operation gets to honour the
	// cancellation of its context before the harness moves on without it.
	stallGrace time.Duration
	// setupReps is how many times set-up runs; setup_s is the median.
	setupReps int
}

var defaultLimits = limits{opDeadline: 30 * time.Second, stallGrace: 5 * time.Second, setupReps: 3}

// workload is one of the benchmark's input sets and the job it runs.
type workload interface {
	name() string
	// setup generates the inputs from the seed and starts what every
	// operation shares. The harness times it and may call it again after
	// close.
	setup(ctx context.Context, seed int64) error
	// reference builds the correctness oracle with a plain single-threaded
	// pass over the inputs and returns that pass's duration.
	reference() (time.Duration, error)
	// op runs one operation, checks its output against the oracle, and
	// returns what it measured.
	op(ctx context.Context, o *opState) (*opResult, error)
	// shape returns records of the workload's own key and value shapes for
	// the kv probes.
	shape() []kv.Record
	// spl is the send-buffer size the workload's jobs use, the frame size
	// of the mpi bandwidth probe.
	spl() int
	close()
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "wordcount":
		return &wordcount{lines: wcLines}, nil
	case "terasort":
		return &terasort{records: tsRecords}, nil
	case "stream-window":
		return &streamWindow{rate: swRate, session: swSession, lead: swLead}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want wordcount, terasort or stream-window)", name)
}

// opState is what the harness hands one operation.
type opState struct {
	// traced turns on the runtime's trace and the benchmark's own timers.
	traced bool
	ph     atomic.Pointer[string]
}

// setPhase names the step the operation is in, so a stall can say where.
func (o *opState) setPhase(p string) { o.ph.Store(&p) }

func (o *opState) phase() string {
	if p := o.ph.Load(); p != nil {
		return *p
	}
	return "start"
}

// opResult is what one verified operation measured.
type opResult struct {
	wall time.Duration
	// lat holds each result's latency in ms.
	lat []float64
	// records and bytes are the input the operation consumed.
	records, bytes int64
	// rssMB is the process's resident-set high-water mark during the
	// operation.
	rssMB float64
	// layers holds a traced operation's per-layer values, keyed by the
	// per-layer metric name; dists holds its per-event distributions.
	layers map[string]float64
	dists  map[string][]float64
}

// stallError is an operation or set-up that did not finish within its
// deadline.
type stallError struct {
	workload, phase string
	deadline        time.Duration
}

func (e *stallError) Error() string {
	return fmt.Sprintf("%s: stalled in phase %q past the %v deadline", e.workload, e.phase, e.deadline)
}

// withDeadline runs fn under a deadline. If fn has not returned when the
// deadline passes, its context is cancelled and, after a grace period in
// which fn may still return, withDeadline gives up on it and reports a
// stall naming the phase fn was in. It never waits longer than
// deadline+grace.
func withDeadline[T any](lim limits, wname string, o *opState, fn func(ctx context.Context) (T, error)) (T, error) {
	ctx, cancel := context.WithTimeout(context.Background(), lim.opDeadline)
	defer cancel()
	type outcome struct {
		v   T
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		v, err := fn(ctx)
		ch <- outcome{v, err}
	}()
	var zero T
	select {
	case r := <-ch:
		if r.err != nil && ctx.Err() != nil {
			return zero, &stallError{wname, o.phase(), lim.opDeadline}
		}
		return r.v, r.err
	case <-ctx.Done():
		select {
		case <-ch:
		case <-time.After(lim.stallGrace):
		}
		return zero, &stallError{wname, o.phase(), lim.opDeadline}
	}
}

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is a finished run: the result line plus what is printed above it.
type report struct {
	out      result
	order    []string
	failures []string
	notes    []string
}

func (r *report) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	if _, ok := r.out.Metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.out.Metrics[name] = metric{Value: v, Unit: unit}
}

func run(cfg runConfig) (*report, error) {
	w, err := newWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	return measure(cfg, w, defaultLimits)
}

// measure sets the workload up, runs its operations back to back for the
// configured time, and turns what they measured into the result.
func measure(cfg runConfig, w workload, lim limits) (*report, error) {
	rep := &report{out: result{Metrics: map[string]metric{}}}
	var setups []float64
	for i := 0; i < lim.setupReps; i++ {
		if i > 0 {
			w.close()
		}
		o := &opState{}
		o.setPhase("setup")
		t0 := time.Now()
		if _, err := withDeadline(lim, w.name(), o, func(ctx context.Context) (struct{}, error) {
			return struct{}{}, w.setup(ctx, cfg.seed)
		}); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", w.name(), err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.close()
	refDur, err := w.reference()
	if err != nil {
		return nil, fmt.Errorf("%s: reference: %w", w.name(), err)
	}
	rep.notes = append(rep.notes, fmt.Sprintf("reference: single-threaded baseline %.4f s (not gated)", refDur.Seconds()))

	var probes map[string]float64
	if cfg.trace {
		if probes, err = runProbes(w); err != nil {
			return nil, fmt.Errorf("%s: probes: %w", w.name(), err)
		}
	}

	minOps := 1
	if cfg.trace {
		minOps = 2
	}
	var plain, traced []*opResult
	start := time.Now()
	for i := 0; i < minOps || time.Since(start) < cfg.measure; i++ {
		o := &opState{traced: cfg.trace && i%2 == 1}
		// Every operation starts from the same heap: the last one's garbage
		// collected and returned to the OS, outside the timed region.
		debug.FreeOSMemory()
		resetPeakRSS()
		res, err := withDeadline(lim, w.name(), o, func(ctx context.Context) (*opResult, error) {
			return w.op(ctx, o)
		})
		if res != nil {
			res.rssMB = peakRSSMB()
		}
		rep.out.Attempted++
		if err != nil {
			rep.out.Failed++
			rep.failures = append(rep.failures, fmt.Sprintf("op %d: %v", i, err))
			var se *stallError
			if errors.As(err, &se) {
				break // the stalled operation may still hold shared state
			}
			continue
		}
		if o.traced {
			traced = append(traced, res)
		} else {
			plain = append(plain, res)
		}
	}
	rep.out.Correct = rep.out.Failed == 0
	rep.notes = append(rep.notes, fmt.Sprintf("ops: %d untraced, %d traced, %d failed of %d",
		len(plain), len(traced), rep.out.Failed, rep.out.Attempted))

	if !cfg.trace {
		endToEndMetrics(rep, median(setups), plain)
		return rep, nil
	}
	layerMetrics(rep, plain, traced, probes, refDur)
	return rep, nil
}

// endToEnd lists the metrics of a --trace 0 run, as BENCHMARK.json does.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"job_s", "s"},
	{"input_mb_per_s", "MB/s"},
	{"events_per_s", "1/s"},
	{"result_lat_p50_ms", "ms"},
	{"result_lat_p99_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

func endToEndMetrics(rep *report, setup float64, ops []*opResult) {
	var walls, mbps, eps, rss []float64
	nlat := 0
	for _, r := range ops {
		s := r.wall.Seconds()
		walls = append(walls, s)
		mbps = append(mbps, float64(r.bytes)/1e6/s)
		eps = append(eps, float64(r.records)/s)
		rss = append(rss, r.rssMB)
		nlat += len(r.lat)
	}
	vals := map[string]float64{
		"setup_s":           setup,
		"job_s":             median(walls),
		"input_mb_per_s":    median(mbps),
		"events_per_s":      median(eps),
		"result_lat_p50_ms": latQuantile(ops, 0.50),
		"result_lat_p99_ms": latQuantile(ops, 0.99),
		"peak_rss_mb":       median(rss),
	}
	for _, m := range endToEnd {
		rep.set(m.name, m.unit, vals[m.name])
	}
	rep.notes = append(rep.notes, fmt.Sprintf("samples: %d operations, %d result latencies", len(ops), nlat))
}

// latQuantile is the median over operations of each operation's
// q-quantile result latency. Results of one window or one job are
// correlated, so one slow window or job sets an operation's tail; the
// median over operations keeps one such outlier from setting the run's.
func latQuantile(ops []*opResult, q float64) float64 {
	var per []float64
	for _, r := range ops {
		lat := append([]float64(nil), r.lat...)
		sort.Float64s(lat)
		per = append(per, quantile(lat, q))
	}
	return median(per)
}

// How a per-layer metric is aggregated over the traced operations.
const (
	aggMean = iota // mean of the per-operation values
	aggMax         // largest per-operation value
	aggP50         // median of the pooled per-event samples
	aggP99         // 99th percentile of the pooled per-event samples
	aggRun         // measured once per run by the harness
)

// perLayer lists the metrics of a --trace 1 run, as BENCHMARK.json does.
// src names the per-operation value or distribution a metric comes from.
// A layer a workload does not exercise reads 0 there.
var perLayer = []struct {
	name, unit string
	agg        int
	src        string
}{
	{"hdfs.read_ms", "ms", aggMean, ""},
	{"hdfs.write_ms", "ms", aggMean, ""},
	{"core.o.send_ms", "ms", aggMean, ""},
	{"core.o.prepare_ms", "ms", aggMean, ""},
	{"core.o.xmit_ms", "ms", aggMean, ""},
	{"core.combine.out_in_ratio", "ratio", aggMean, ""},
	{"core.shuffle.bytes", "bytes", aggMean, ""},
	{"mpi.frames", "count", aggMean, ""},
	{"mpi.bytes", "bytes", aggMean, ""},
	{"mpi.frames_per_flush", "ratio", aggMean, ""},
	{"mpi.retries", "count", aggMean, ""},
	{"mpi.recv_ms", "ms", aggMean, ""},
	{"mpi.pingpong_us", "us", aggRun, ""},
	{"mpi.bw_mb_s", "MB/s", aggRun, ""},
	{"core.a.wait_ms", "ms", aggMean, ""},
	{"core.a.merge_ms", "ms", aggMean, ""},
	{"core.a.spill_write_ms", "ms", aggMean, ""},
	{"core.a.compact_ms", "ms", aggMean, ""},
	{"core.spill.bytes", "bytes", aggMean, ""},
	{"core.spill.compactions", "count", aggMean, ""},
	{"core.cp.commit_ms", "ms", aggMean, ""},
	{"core.cp.chunks", "count", aggMean, ""},
	{"core.cp.async_stalls", "count", aggMean, ""},
	{"core.stream.emit_us_p99", "us", aggP99, "emit_us"},
	{"core.stream.credit_stalls", "count", aggMean, ""},
	{"core.stream.credits_max_outstanding", "count", aggMax, ""},
	{"core.stream.close_to_fire_ms_p50", "ms", aggP50, "close_to_fire_ms"},
	{"core.stream.close_to_fire_ms_p99", "ms", aggP99, "close_to_fire_ms"},
	{"stream.gen_late_p99_ms", "ms", aggP99, "gen_late_ms"},
	{"kv.sort_ns_per_rec", "ns", aggRun, ""},
	{"kv.merge_ns_per_rec", "ns", aggRun, ""},
	{"kv.codec_ns_per_rec", "ns", aggRun, ""},
	{"proc.alloc_mb", "MB", aggMean, ""},
	{"proc.gc_pause_ms", "ms", aggMean, ""},
	{"trace.overhead.job_s_ratio", "ratio", aggRun, ""},
	{"trace.overhead.result_lat_p50_ratio", "ratio", aggRun, ""},
	{"ref.single_thread_s", "s", aggRun, ""},
}

func layerMetrics(rep *report, plain, traced []*opResult, probes map[string]float64, ref time.Duration) {
	run := map[string]float64{"ref.single_thread_s": ref.Seconds()}
	for k, v := range probes {
		run[k] = v
	}
	run["trace.overhead.job_s_ratio"] = median(walls(traced)) / median(walls(plain))
	run["trace.overhead.result_lat_p50_ratio"] = latQuantile(traced, 0.5) / latQuantile(plain, 0.5)

	pooled := map[string][]float64{}
	for _, r := range traced {
		for k, v := range r.dists {
			pooled[k] = append(pooled[k], v...)
		}
	}
	for _, d := range pooled {
		sort.Float64s(d)
	}
	for _, m := range perLayer {
		var v float64
		switch m.agg {
		case aggMean:
			for _, r := range traced {
				v += r.layers[m.name]
			}
			if len(traced) > 0 {
				v /= float64(len(traced))
			}
		case aggMax:
			for _, r := range traced {
				v = math.Max(v, r.layers[m.name])
			}
		case aggP50:
			v = quantile(pooled[m.src], 0.50)
		case aggP99:
			v = quantile(pooled[m.src], 0.99)
		case aggRun:
			v = run[m.name]
		}
		rep.set(m.name, m.unit, v)
	}
}

func walls(ops []*opResult) []float64 {
	var w []float64
	for _, r := range ops {
		w = append(w, r.wall.Seconds())
	}
	return w
}

// procDelta measures one operation's allocation and GC pause time.
type procDelta struct{ alloc, pause uint64 }

func procStart() procDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procDelta{ms.TotalAlloc, ms.PauseTotalNs}
}

// add records the allocation and GC pause time since p into layers.
func (p procDelta) add(layers map[string]float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	layers["proc.alloc_mb"] = float64(ms.TotalAlloc-p.alloc) / 1e6
	layers["proc.gc_pause_ms"] = float64(ms.PauseTotalNs-p.pause) / 1e6
}

// median returns the median of xs, or NaN for none.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// quantile returns the q-quantile of sorted xs by linear interpolation
// between closest ranks, or NaN for none.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(pos)
	if lo+1 >= n {
		return sorted[n-1]
	}
	f := pos - float64(lo)
	return sorted[lo] + f*(sorted[lo+1]-sorted[lo])
}

// ms converts nanoseconds to milliseconds.
func ms(ns int64) float64 { return float64(ns) / 1e6 }
