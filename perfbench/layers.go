package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"

	"datampi/internal/kv"
	"datampi/internal/mpi"
)

// layerTimer sums one traced operation's benchmark-side timings of its
// calls into each layer, in nanoseconds, across all tasks. A nil
// *layerTimer means the operation is untraced. Tasks sum locally and add
// once when they finish.
type layerTimer struct {
	hdfsRead, hdfsWrite, oSend, aWait atomic.Int64
}

// addTo records the timings under their per-layer metric names.
func (lt *layerTimer) addTo(layers map[string]float64) {
	layers["hdfs.read_ms"] = ms(lt.hdfsRead.Load())
	layers["hdfs.write_ms"] = ms(lt.hdfsWrite.Load())
	layers["core.o.send_ms"] = ms(lt.oSend.Load())
	layers["core.a.wait_ms"] = ms(lt.aWait.Load())
}

// spanTotals sums the durations of the complete spans of a runtime trace
// (the Chrome trace_event JSON WithTrace writes), in ms per span name.
func spanTotals(traceJSON []byte) (map[string]float64, error) {
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Dur  int64  `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(traceJSON, &doc); err != nil {
		return nil, fmt.Errorf("parsing runtime trace: %w", err)
	}
	sums := map[string]float64{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			sums[e.Name] += float64(e.Dur) / 1e3
		}
	}
	return sums, nil
}

// runtimeLayers derives the per-layer values the runtime itself reports:
// its trace spans (ms) and its counters (Result.RuntimeCounters).
func runtimeLayers(ctr map[string]int64, spans map[string]float64, layers map[string]float64) {
	layers["core.o.prepare_ms"] = spans["prepare"]
	layers["core.o.xmit_ms"] = spans["xmit"]
	layers["mpi.recv_ms"] = spans["recv"]
	layers["core.a.merge_ms"] = spans["merge"]
	layers["core.a.spill_write_ms"] = spans["spill.write"]
	layers["core.a.compact_ms"] = spans["spill.compact"]
	layers["core.cp.commit_ms"] = spans["cp.commit"] + spans["cp.commit.async"]
	if in := ctr["combine.records.in"]; in > 0 {
		layers["core.combine.out_in_ratio"] = float64(ctr["combine.records.out"]) / float64(in)
	}
	if w := ctr["mpi.writev.calls"]; w > 0 {
		layers["mpi.frames_per_flush"] = float64(ctr["mpi.frames.sent"]) / float64(w)
	}
	for name, key := range map[string]string{
		"core.shuffle.bytes":                  "shuffle.bytes.sent",
		"mpi.frames":                          "mpi.frames.sent",
		"mpi.bytes":                           "mpi.bytes.sent",
		"mpi.retries":                         "mpi.send.retries",
		"core.spill.bytes":                    "spill.bytes.written",
		"core.spill.compactions":              "spill.compactions",
		"core.cp.chunks":                      "checkpoint.chunks",
		"core.cp.async_stalls":                "cp.async.stalls",
		"core.stream.credit_stalls":           "stream.credits.stalls",
		"core.stream.credits_max_outstanding": "stream.credits.max.outstanding",
	} {
		layers[name] = float64(ctr[key])
	}
}

// Probe sizes: enough repetitions that a median is steady, small enough
// that all probes take about a second.
const (
	probeReps      = 5
	probeRecords   = 50000
	probeMergeRuns = 8
	pingPongWarm   = 200
	pingPongRounds = 2000
	pingPongBytes  = 64
	bwTotalBytes   = 32 << 20
)

// runProbes measures the primitives under the workload's layers, in the
// spirit of the paper's Fig. 1: mpi ping-pong latency and streaming
// bandwidth over TCP with frames of the workload's send-buffer size, and
// the kv sort, merge and codec on the workload's own record shapes.
func runProbes(w workload) (map[string]float64, error) {
	out := map[string]float64{}
	pp, err := pingPong()
	if err != nil {
		return nil, err
	}
	out["mpi.pingpong_us"] = pp
	bw, err := bandwidth(w.spl())
	if err != nil {
		return nil, err
	}
	out["mpi.bw_mb_s"] = bw
	recs := w.shape()
	if len(recs) > probeRecords {
		recs = recs[:probeRecords]
	}
	out["kv.sort_ns_per_rec"] = kvSortNs(recs)
	if out["kv.merge_ns_per_rec"], err = kvMergeNs(recs); err != nil {
		return nil, err
	}
	if out["kv.codec_ns_per_rec"], err = kvCodecNs(recs); err != nil {
		return nil, err
	}
	return out, nil
}

// pingPong returns the median one-way latency, in µs, of small messages
// bounced between two ranks of a TCP world.
func pingPong() (float64, error) {
	world, err := mpi.NewWorld(2, mpi.WithTCP())
	if err != nil {
		return 0, err
	}
	defer world.Close()
	c0, c1 := world.Comm(0), world.Comm(1)
	total := pingPongWarm + pingPongRounds
	echo := make(chan error, 1)
	go func() {
		for i := 0; i < total; i++ {
			data, _, err := c1.Recv(0, 1)
			if err == nil {
				err = c1.Send(0, 1, data)
			}
			if err != nil {
				echo <- err
				return
			}
		}
		echo <- nil
	}()
	msg := make([]byte, pingPongBytes)
	rtts := make([]float64, 0, pingPongRounds)
	for i := 0; i < total; i++ {
		t0 := time.Now()
		if err := c0.Send(1, 1, msg); err != nil {
			return 0, err
		}
		if _, _, err := c0.Recv(1, 1); err != nil {
			return 0, err
		}
		if i >= pingPongWarm {
			rtts = append(rtts, float64(time.Since(t0).Nanoseconds())/2e3)
		}
	}
	if err := <-echo; err != nil {
		return 0, err
	}
	return median(rtts), nil
}

// bandwidth returns the median rate, in MB/s, at which one rank of a TCP
// world streams frames of the given size to another, acknowledged at the
// end of each repetition.
func bandwidth(frame int) (float64, error) {
	world, err := mpi.NewWorld(2, mpi.WithTCP())
	if err != nil {
		return 0, err
	}
	defer world.Close()
	c0, c1 := world.Comm(0), world.Comm(1)
	frames := bwTotalBytes / frame
	sink := make(chan error, 1)
	go func() {
		for r := 0; r < probeReps; r++ {
			for i := 0; i < frames; i++ {
				if _, _, err := c1.Recv(0, 2); err != nil {
					sink <- err
					return
				}
			}
			if err := c1.Send(0, 3, nil); err != nil {
				sink <- err
				return
			}
		}
		sink <- nil
	}()
	buf := make([]byte, frame)
	var rates []float64
	for r := 0; r < probeReps; r++ {
		t0 := time.Now()
		for i := 0; i < frames; i++ {
			if err := c0.Send(1, 2, buf); err != nil {
				return 0, err
			}
		}
		if _, _, err := c0.Recv(1, 3); err != nil {
			return 0, err
		}
		rates = append(rates, float64(frames*frame)/1e6/time.Since(t0).Seconds())
	}
	if err := <-sink; err != nil {
		return 0, err
	}
	return median(rates), nil
}

// nsPerRec returns the median over probeReps of fn's time per record.
func nsPerRec(n int, fn func() error) (float64, error) {
	var per []float64
	for r := 0; r < probeReps; r++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(per), nil
}

func kvSortNs(recs []kv.Record) float64 {
	work := make([]kv.Record, len(recs))
	var per []float64
	for r := 0; r < probeReps; r++ {
		copy(work, recs)
		t0 := time.Now()
		kv.SortRecords(work, kv.DefaultCompare)
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(len(recs)))
	}
	return median(per)
}

func kvMergeNs(recs []kv.Record) (float64, error) {
	sorted := append([]kv.Record(nil), recs...)
	sort.SliceStable(sorted, func(i, j int) bool { return bytes.Compare(sorted[i].Key, sorted[j].Key) < 0 })
	runs := make([][]kv.Record, probeMergeRuns)
	for i, r := range sorted {
		runs[i%probeMergeRuns] = append(runs[i%probeMergeRuns], r)
	}
	return nsPerRec(len(recs), func() error {
		its := make([]kv.Iterator, len(runs))
		for i, run := range runs {
			its[i] = kv.NewSliceIterator(run)
		}
		m, err := kv.NewMerger(kv.DefaultCompare, its...)
		if err != nil {
			return err
		}
		n := 0
		for {
			_, err := m.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			n++
		}
		if n != len(recs) {
			return fmt.Errorf("merge probe yielded %d of %d records", n, len(recs))
		}
		return nil
	})
}

func kvCodecNs(recs []kv.Record) (float64, error) {
	var buf []byte
	return nsPerRec(len(recs), func() error {
		buf = buf[:0]
		for _, r := range recs {
			buf = kv.AppendRecord(buf, r)
		}
		for b, n := buf, 0; n < len(recs); n++ {
			_, used, err := kv.ReadRecord(b)
			if err != nil {
				return err
			}
			b = b[used:]
		}
		return nil
	})
}
