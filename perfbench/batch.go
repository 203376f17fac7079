package main

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"time"

	"datampi"
	"datampi/internal/bench"
	"datampi/internal/hdfs"
	"datampi/internal/kv"
)

// Geometry shared by the batch workloads: one process hosts two simulated
// nodes, each a DataMPI process with two task slots, so no more threads
// run tasks than a 2-CPU machine has. Disks are unrated and no netsim link
// is attached, so the numbers measure the program, not simulated sleeps.
const (
	batchNodes   = 2
	batchSlots   = 2
	batchNumA    = 4
	batchBlock   = 4 << 20
	batchReplica = 2
)

// newBatchEnv creates the simulated HDFS and node disks under the temp dir.
func newBatchEnv() (*bench.Env, error) {
	return bench.NewEnv(bench.EnvConfig{Nodes: batchNodes, BlockSize: batchBlock, Replication: batchReplica})
}

// batchOp is one batch job's shared state: its start, the per-partition
// result latencies, and the benchmark-side layer timings of a traced job.
type batchOp struct {
	start time.Time
	lt    *layerTimer

	mu  sync.Mutex
	lat []float64
}

func newBatchOp(o *opState) *batchOp {
	b := &batchOp{}
	if o.traced {
		b.lt = &layerTimer{}
	}
	return b
}

// partDone records that one A task's output partition is complete.
func (b *batchOp) partDone() {
	d := time.Since(b.start)
	b.mu.Lock()
	b.lat = append(b.lat, ms(d.Nanoseconds()))
	b.mu.Unlock()
}

// run runs job through the public API and fills res with what every
// batch workload measures; the caller verifies the output afterwards.
func (b *batchOp) run(ctx context.Context, o *opState, job *datampi.Job, res *opResult, opts ...datampi.RunOption) error {
	var traceOut bytes.Buffer
	opts = append(opts, datampi.WithCounters())
	if o.traced {
		opts = append(opts, datampi.WithTrace(&traceOut))
	}
	var pd procDelta
	if o.traced {
		pd = procStart()
	}
	o.setPhase("run")
	b.start = time.Now()
	r, err := datampi.RunContext(ctx, job, opts...)
	res.wall = time.Since(b.start)
	if err != nil {
		return fmt.Errorf("%s job: %w", job.Name, err)
	}
	res.lat = b.lat
	if o.traced {
		res.layers = map[string]float64{}
		pd.add(res.layers)
		spans, err := spanTotals(traceOut.Bytes())
		if err != nil {
			return err
		}
		runtimeLayers(r.RuntimeCounters, spans, res.layers)
		b.lt.addTo(res.layers)
	}
	return nil
}

// writePart is the A task body the batch workloads share: it writes every
// record next yields to the task's output part under prefix and marks the
// partition's result complete. In a traced job, time inside next counts as
// A-side wait and the writes as hdfs.write.
func (b *batchOp) writePart(ctx *datampi.Context, fs *hdfs.FileSystem, prefix string, next func() (kv.Record, bool, error)) error {
	out, err := fs.Create(fmt.Sprintf("%s/part-%05d", prefix, ctx.Rank()), ctx.Proc())
	if err != nil {
		return err
	}
	kw := kv.NewWriter(out)
	var sw stopwatch
	var wait, write int64
	if b.lt != nil {
		sw = startStopwatch()
	}
	for {
		rec, ok, err := next()
		if b.lt != nil {
			wait += sw.lap()
		}
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if err := kw.Write(rec); err != nil {
			return err
		}
		if b.lt != nil {
			write += sw.lap()
		}
	}
	err = out.Close()
	if b.lt != nil {
		write += sw.lap()
		b.lt.aWait.Add(wait)
		b.lt.hdfsWrite.Add(write)
	}
	if err != nil {
		return err
	}
	b.partDone()
	return nil
}

// deleteAll removes every file under an HDFS prefix.
func deleteAll(fs *hdfs.FileSystem, prefix string) error {
	for _, p := range fs.List(prefix + "/") {
		if err := fs.Delete(p); err != nil {
			return err
		}
	}
	return nil
}

// stopwatch times consecutive intervals of a traced task: lap returns
// the nanoseconds since the previous lap (or since start).
type stopwatch struct{ last time.Time }

func startStopwatch() stopwatch { return stopwatch{last: time.Now()} }

func (s *stopwatch) lap() int64 {
	now := time.Now()
	d := now.Sub(s.last)
	s.last = now
	return d.Nanoseconds()
}
