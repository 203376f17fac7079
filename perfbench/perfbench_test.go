package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"datampi/internal/bench"
	"datampi/internal/hdfs"
	"datampi/internal/kv"
)

// testLimits keeps tests short: one set-up and a deadline no healthy
// small operation comes near.
var testLimits = limits{opDeadline: 60 * time.Second, stallGrace: time.Second, setupReps: 1}

// smallWorkloads are the three workloads at test sizes.
func smallWorkloads() []workload {
	return []workload{
		&wordcount{lines: 20000},
		&terasort{records: 100000},
		&streamWindow{rate: swRate, session: 300 * time.Millisecond, lead: swLead},
	}
}

// TestSmoke runs each workload briefly, untraced and traced, and checks
// that the run is correct and reports every metric of its kind, with the
// layers each workload is meant to exercise doing work.
func TestSmoke(t *testing.T) {
	for _, traced := range []bool{false, true} {
		for _, w := range smallWorkloads() {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name(), traced), func(t *testing.T) {
				rep, err := measure(runConfig{seed: 3, measure: time.Millisecond, trace: traced}, w, testLimits)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.out.Correct || rep.out.Failed != 0 || rep.out.Attempted < 1 {
					t.Fatalf("correct=%v failed=%d attempted=%d: %v", rep.out.Correct, rep.out.Failed, rep.out.Attempted, rep.failures)
				}
				var names []string
				if traced {
					for _, m := range perLayer {
						names = append(names, m.name)
					}
				} else {
					for _, m := range endToEnd {
						names = append(names, m.name)
					}
				}
				if len(rep.out.Metrics) != len(names) {
					t.Errorf("%d metrics, want %d", len(rep.out.Metrics), len(names))
				}
				for _, name := range names {
					m, ok := rep.out.Metrics[name]
					if !ok {
						t.Errorf("metric %s missing", name)
					} else if !traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
					}
				}
				if traced {
					for _, name := range busyLayers[w.name()] {
						if v := rep.out.Metrics[name].Value; v <= 0 {
							t.Errorf("%s = %v on %s, want > 0", name, v, w.name())
						}
					}
				}
			})
		}
	}
}

// busyLayers are per-layer metrics each workload must move.
var busyLayers = map[string][]string{
	"wordcount": {"hdfs.read_ms", "core.o.send_ms", "core.o.prepare_ms", "core.combine.out_in_ratio",
		"core.a.wait_ms", "mpi.pingpong_us", "kv.sort_ns_per_rec", "proc.alloc_mb"},
	"terasort": {"hdfs.read_ms", "hdfs.write_ms", "core.o.xmit_ms", "mpi.frames_per_flush",
		"core.a.merge_ms", "core.spill.bytes", "core.cp.commit_ms", "core.cp.chunks", "mpi.bw_mb_s"},
	"stream-window": {"core.o.send_ms", "core.stream.emit_us_p99", "core.stream.credits_max_outstanding",
		"core.stream.close_to_fire_ms_p50", "stream.gen_late_p99_ms", "mpi.frames"},
}

// rewritePart replaces an HDFS output part with edit applied to its
// records.
func rewritePart(t *testing.T, fs *hdfs.FileSystem, path string, edit func([]kv.Record) []kv.Record) {
	t.Helper()
	data, err := fs.ReadAll(path, -1)
	if err != nil {
		t.Fatal(err)
	}
	var recs []kv.Record
	r := kv.NewReader(bytes.NewReader(data))
	for {
		rec, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, kv.Record{Key: append([]byte(nil), rec.Key...), Value: append([]byte(nil), rec.Value...)})
	}
	var buf []byte
	for _, rec := range edit(recs) {
		buf = kv.AppendRecord(buf, rec)
	}
	if err := fs.Delete(path); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile(path, buf, -1); err != nil {
		t.Fatal(err)
	}
}

// runOnce sets a batch workload up and runs one verified operation,
// leaving its output in place.
func runOnce(t *testing.T, w workload) {
	t.Helper()
	if err := w.setup(context.Background(), 5); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.close)
	if _, err := w.reference(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.op(context.Background(), &opState{}); err != nil {
		t.Fatal(err)
	}
}

func TestWordcountCheckFailsOnCorruptOutput(t *testing.T) {
	w := &wordcount{lines: 5000}
	runOnce(t, w)
	part := wcOutput + "/part-00000"
	for name, edit := range map[string]func([]kv.Record) []kv.Record{
		"count off by one": func(recs []kv.Record) []kv.Record {
			n := kv.Record{Key: recs[0].Key, Value: binaryInc(recs[0].Value)}
			return append([]kv.Record{n}, recs[1:]...)
		},
		"word dropped": func(recs []kv.Record) []kv.Record { return recs[1:] },
	} {
		t.Run(name, func(t *testing.T) {
			data, err := w.env.FS.ReadAll(part, -1)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.verify(); err != nil {
				t.Fatalf("intact output: %v", err)
			}
			rewritePart(t, w.env.FS, part, edit)
			if err := w.verify(); err == nil {
				t.Fatal("corrupt output passed verification")
			}
			if err := w.env.FS.Delete(part); err != nil {
				t.Fatal(err)
			}
			if err := w.env.FS.WriteFile(part, data, -1); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// binaryInc returns a big-endian counter value plus one.
func binaryInc(v []byte) []byte {
	out := append([]byte(nil), v...)
	for i := len(out) - 1; i >= 0; i-- {
		out[i]++
		if out[i] != 0 {
			break
		}
	}
	return out
}

// TestTerasortChecksumCatchesWhatOrderCheckMisses corrupts a sorted output
// in ways that keep it sorted and keep its record count: VerifyTeraSort
// passes them, and the checksum must not.
func TestTerasortChecksumCatchesWhatOrderCheckMisses(t *testing.T) {
	ts := &terasort{records: 20000}
	runOnce(t, ts)
	part := tsOutput + "/part-00000"
	for name, edit := range map[string]func([]kv.Record) []kv.Record{
		"value byte flipped": func(recs []kv.Record) []kv.Record {
			recs[0].Value[len(recs[0].Value)-1] ^= 1
			return recs
		},
		"record dropped, neighbour duplicated": func(recs []kv.Record) []kv.Record {
			recs[1] = recs[0]
			return recs
		},
	} {
		t.Run(name, func(t *testing.T) {
			data, err := ts.env.FS.ReadAll(part, -1)
			if err != nil {
				t.Fatal(err)
			}
			if err := ts.verify(); err != nil {
				t.Fatalf("intact output: %v", err)
			}
			rewritePart(t, ts.env.FS, part, edit)
			if err := bench.VerifyTeraSort(ts.env.FS, tsOutput, ts.records); err != nil {
				t.Fatalf("the corruption should keep order and count: %v", err)
			}
			if err := ts.verify(); err == nil {
				t.Fatal("corrupt output passed verification")
			}
			if err := ts.env.FS.Delete(part); err != nil {
				t.Fatal(err)
			}
			if err := ts.env.FS.WriteFile(part, data, -1); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestStreamCheckFailsOnCorruptOutput(t *testing.T) {
	s := &streamWindow{rate: swRate, session: 300 * time.Millisecond, lead: swLead}
	if err := s.setup(context.Background(), 5); err != nil {
		t.Fatal(err)
	}
	ss := &session{s: s, n: s.perSource(s.session), got: map[winKey]int{}}
	r, err := ss.run(context.Background(), &opState{})
	if err != nil {
		t.Fatal(err)
	}
	ctr := r.RuntimeCounters
	if err := ss.verify(ctr); err != nil {
		t.Fatalf("intact output: %v", err)
	}
	var k winKey
	for k = range ss.got {
		break
	}
	n := ss.got[k]
	ss.got[k] = n + 1
	if err := ss.verify(ctr); err == nil {
		t.Error("a (window, key) count off by one passed verification")
	}
	delete(ss.got, k)
	if err := ss.verify(ctr); err == nil {
		t.Error("a missing (window, key) result passed verification")
	}
	ss.got[k] = n
	lost := map[string]int64{}
	for name, v := range ctr {
		lost[name] = v
	}
	lost["stream.events.out"]--
	if err := ss.verify(lost); err == nil {
		t.Error("an event that went in and never came out passed verification")
	}
}

// TestStreamGeneratorBehindScheduleFails starts a session's schedule
// further in the past than the generator may lag: the session must fail
// rather than report latencies of a generator that cannot keep up. The
// failed sources can leave the service unable to shut down, so the
// failure may arrive as a stall; either way it names the cause.
func TestStreamGeneratorBehindScheduleFails(t *testing.T) {
	s := &streamWindow{rate: swRate, session: 300 * time.Millisecond, lead: swLead}
	if err := s.setup(context.Background(), 5); err != nil {
		t.Fatal(err)
	}
	s.lead = -2 * swLateBound
	lim := limits{opDeadline: 3 * time.Second, stallGrace: 200 * time.Millisecond}
	o := &opState{}
	_, err := withDeadline(lim, s.name(), o, func(ctx context.Context) (*opResult, error) {
		return s.op(ctx, o)
	})
	if err == nil || !strings.Contains(err.Error(), "behind its schedule") {
		t.Fatalf("err = %v, want the generator-behind-schedule failure", err)
	}
	t.Log(err)
}

// TestDeadlineTurnsStallIntoFailure blocks every O task of a wordcount
// job: the harness must record one failed operation naming the workload
// and phase, and return promptly instead of hanging.
func TestDeadlineTurnsStallIntoFailure(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	w := &wordcount{lines: 2000, oHook: func() { <-release }}
	lim := limits{opDeadline: 2 * time.Second, stallGrace: 200 * time.Millisecond, setupReps: 1}
	start := time.Now()
	rep, err := measure(runConfig{seed: 1, measure: time.Millisecond}, w, lim)
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 15*time.Second {
		t.Errorf("measure took %v after a 2s deadline", took)
	}
	if rep.out.Correct || rep.out.Failed != 1 || rep.out.Attempted != 1 {
		t.Fatalf("correct=%v failed=%d attempted=%d, want one failed operation", rep.out.Correct, rep.out.Failed, rep.out.Attempted)
	}
	if want := `wordcount: stalled in phase "run"`; !strings.Contains(rep.failures[0], want) {
		t.Errorf("failure %q does not contain %q", rep.failures[0], want)
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metrics the
// benchmark prints in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
			Bound      float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, wl := range spec.Workloads {
		if _, err := newWorkload(wl.Name); err != nil {
			t.Error(err)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i := range min(len(spec.EndToEnd), len(endToEnd)) {
		if got, want := spec.EndToEnd[i], endToEnd[i]; got.Name != want.name || got.Unit != want.unit {
			t.Errorf("end_to_end[%d] = %s %s, benchmark prints %s %s", i, got.Name, got.Unit, want.name, want.unit)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(spec.PerLayer), len(perLayer))
	}
	for i := range min(len(spec.PerLayer), len(perLayer)) {
		if got, want := spec.PerLayer[i], perLayer[i]; got.Name != want.name || got.Unit != want.unit {
			t.Errorf("per_layer[%d] = %s %s, benchmark prints %s %s", i, got.Name, got.Unit, want.name, want.unit)
		}
	}
}
