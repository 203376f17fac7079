package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"datampi"
	"datampi/internal/bench"
	"datampi/internal/hdfs"
	"datampi/internal/kv"
)

// The terasort workload: 100-byte TeraGen records, range-partitioned with
// no combiner, over the TCP transport with library checkpointing on. The
// A-side memory cache is well below each process's share of the data, so
// every partition spills and compacts; transport, A-side merge and spill,
// and checkpoint commit carry the job.
const (
	tsRecords  = 500000
	tsMemCache = 2 << 20
	tsInput    = "/tera/in"
	tsOutput   = "/tera/out"
)

type terasort struct {
	records int

	env    *bench.Env
	splits []hdfs.Split
	want   teraSum
	cpRoot string
	ops    int
}

func (t *terasort) name() string { return "terasort" }

// spl is the default send-partition-list buffer size the job runs with.
func (t *terasort) spl() int { return 64 << 10 }

func (t *terasort) setup(_ context.Context, seed int64) error {
	env, err := newBatchEnv()
	if err != nil {
		return err
	}
	t.env = env
	t.cpRoot = env.NodeDisks[0].Path("checkpoints")
	if err := bench.TeraGen(env.FS, tsInput, t.records, seed); err != nil {
		return err
	}
	t.splits, err = env.FS.Splits(tsInput)
	return err
}

func (t *terasort) close() {
	if t.env != nil {
		t.env.Close()
		t.env = nil
	}
}

// reference checksums every input record and sorts the records by key in
// one plain single-threaded pass, the baseline the parallel job is
// compared with.
func (t *terasort) reference() (time.Duration, error) {
	t0 := time.Now()
	data, err := t.env.FS.ReadAll(tsInput, -1)
	if err != nil {
		return 0, err
	}
	n := len(data) / bench.TeraRecordSize
	var sum teraSum
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
		sum.add(data[i*bench.TeraRecordSize : (i+1)*bench.TeraRecordSize])
	}
	key := func(i int32) []byte {
		off := int(i) * bench.TeraRecordSize
		return data[off : off+bench.TeraKeySize]
	}
	sort.Slice(idx, func(a, b int) bool { return bytes.Compare(key(idx[a]), key(idx[b])) < 0 })
	t.want = sum
	return time.Since(t0), nil
}

func (t *terasort) shape() []kv.Record {
	data, err := t.env.FS.ReadAll(tsInput, -1)
	if err != nil {
		return nil
	}
	n := min(len(data)/bench.TeraRecordSize, probeRecords)
	recs := make([]kv.Record, n)
	for i := range recs {
		rec := data[i*bench.TeraRecordSize : (i+1)*bench.TeraRecordSize]
		recs[i] = kv.Record{Key: rec[:bench.TeraKeySize], Value: rec[bench.TeraKeySize:]}
	}
	return recs
}

func (t *terasort) op(ctx context.Context, o *opState) (*opResult, error) {
	fs, splits := t.env.FS, t.splits
	if err := deleteAll(fs, tsOutput); err != nil {
		return nil, err
	}
	t.ops++
	cpDir := filepath.Join(t.cpRoot, fmt.Sprintf("op%d", t.ops))
	defer os.RemoveAll(cpDir)
	b := newBatchOp(o)
	job := &datampi.Job{
		Name: "terasort",
		Mode: datampi.MapReduce,
		Conf: datampi.Config{
			KeyCodec:       datampi.BytesCodec,
			ValueCodec:     datampi.BytesCodec,
			Partition:      bench.TeraPartition,
			MemCacheBytes:  tsMemCache,
			FaultTolerance: true,
			CheckpointDir:  cpDir,
		},
		NumO: len(splits), NumA: batchNumA, Procs: batchNodes, Slots: batchSlots,
		Input:      splits,
		SpillDisks: t.env.NodeDisks,
		OTask: func(ctx *datampi.Context) error {
			skip := ctx.TakeCheckpointSkip()
			var sw stopwatch
			var read, send int64
			for _, s := range datampi.SplitsForTask(ctx, splits) {
				if b.lt != nil {
					sw = startStopwatch()
				}
				err := fs.ReadRecordsInSplit(s, bench.TeraRecordSize, ctx.Proc(), func(rec []byte) error {
					if skip > 0 {
						skip--
						return nil
					}
					if b.lt != nil {
						read += sw.lap()
					}
					err := ctx.SendRecord(kv.Record{Key: rec[:bench.TeraKeySize], Value: rec[bench.TeraKeySize:]})
					if b.lt != nil {
						send += sw.lap()
					}
					return err
				})
				if b.lt != nil {
					read += sw.lap()
				}
				if err != nil {
					return err
				}
			}
			if b.lt != nil {
				b.lt.hdfsRead.Add(read)
				b.lt.oSend.Add(send)
			}
			return nil
		},
		ATask: func(ctx *datampi.Context) error {
			return b.writePart(ctx, fs, tsOutput, ctx.RecvRecord)
		},
	}
	res := &opResult{records: int64(t.records), bytes: int64(t.records) * bench.TeraRecordSize}
	if err := b.run(ctx, o, job, res, datampi.WithTransport(datampi.TransportConfig{Kind: datampi.TransportTCP})); err != nil {
		return nil, err
	}
	o.setPhase("verify")
	if err := t.verify(); err != nil {
		return nil, err
	}
	return res, nil
}

// verify checks that the output is sorted and holds exactly the input's
// records: VerifyTeraSort checks order and count, the checksum the
// records themselves.
func (t *terasort) verify() error {
	if err := bench.VerifyTeraSort(t.env.FS, tsOutput, t.records); err != nil {
		return err
	}
	got, err := teraOutputSum(t.env.FS, tsOutput)
	if err != nil {
		return err
	}
	if got != t.want {
		return fmt.Errorf("terasort: output checksum %+v, input %+v", got, t.want)
	}
	return nil
}

// teraSum is an order-independent checksum of a multiset of records: the
// count plus the sum and the xor of each record's FNV-1a hash. A dropped,
// duplicated or altered record changes it even where the record count and
// sort order still hold.
type teraSum struct {
	n        int
	sum, xor uint64
}

func (s *teraSum) add(parts ...[]byte) {
	h := uint64(14695981039346656037)
	for _, p := range parts {
		for _, c := range p {
			h ^= uint64(c)
			h *= 1099511628211
		}
	}
	s.n++
	s.sum += h
	s.xor ^= h
}

// teraOutputSum checksums every full record (key then value) of a sorted
// output.
func teraOutputSum(fs *hdfs.FileSystem, prefix string) (teraSum, error) {
	var sum teraSum
	for _, p := range fs.List(prefix + "/") {
		data, err := fs.ReadAll(p, -1)
		if err != nil {
			return sum, err
		}
		r := kv.NewReader(bytes.NewReader(data))
		for {
			rec, err := r.Read()
			if err == io.EOF {
				break
			}
			if err != nil {
				return sum, err
			}
			sum.add(rec.Key, rec.Value)
		}
	}
	return sum, nil
}
