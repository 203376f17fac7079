package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"time"

	"datampi"
	"datampi/internal/bench"
	"datampi/internal/hdfs"
	"datampi/internal/kv"
)

// The wordcount workload: Zipf text from the simulated HDFS, summed with
// the SumCombine combiner over the default in-memory transport. The O side
// (read, tokenize, sort, combine, encode) does most of the work; the
// combiner shrinks the shuffle several-fold, so transport, spill and
// checkpoint do little.
const (
	wcLines        = 300000
	wcWordsPerLine = 10
	wcVocab        = 5000
	wcInput        = "/wc/in"
	wcOutput       = "/wc/out"
)

type wordcount struct {
	lines int
	// oHook, when set, runs at the start of every O task (a test seam for
	// injecting a stall).
	oHook func()

	env        *bench.Env
	splits     []hdfs.Split
	inputBytes int64
	want       map[string]uint64
}

func (w *wordcount) name() string { return "wordcount" }

// spl is the default send-partition-list buffer size the job runs with.
func (w *wordcount) spl() int { return 64 << 10 }

func (w *wordcount) setup(_ context.Context, seed int64) error {
	env, err := newBatchEnv()
	if err != nil {
		return err
	}
	w.env = env
	if err := bench.TextGen(env.FS, wcInput, w.lines, wcWordsPerLine, wcVocab, seed); err != nil {
		return err
	}
	if w.splits, err = env.FS.Splits(wcInput); err != nil {
		return err
	}
	w.inputBytes, err = env.FS.Size(wcInput)
	return err
}

func (w *wordcount) close() {
	if w.env != nil {
		w.env.Close()
		w.env = nil
	}
}

// reference counts the input's words in one plain single-threaded pass.
func (w *wordcount) reference() (time.Duration, error) {
	t0 := time.Now()
	data, err := w.env.FS.ReadAll(wcInput, -1)
	if err != nil {
		return 0, err
	}
	w.want = countWords(data)
	return time.Since(t0), nil
}

func countWords(text []byte) map[string]uint64 {
	counts := map[string]uint64{}
	for len(text) > 0 {
		line := text
		if i := bytes.IndexByte(text, '\n'); i >= 0 {
			line, text = text[:i], text[i+1:]
		} else {
			text = nil
		}
		for _, word := range bytes.Fields(line) {
			counts[string(word)]++
		}
	}
	return counts
}

func (w *wordcount) shape() []kv.Record {
	data, err := w.env.FS.ReadAll(wcInput, -1)
	if err != nil {
		return nil
	}
	// Ten-byte words: the first MiB holds more than probeRecords.
	words := bytes.Fields(data[:min(len(data), 1<<20)])
	if len(words) > probeRecords {
		words = words[:probeRecords]
	}
	recs := make([]kv.Record, len(words))
	for i, word := range words {
		recs[i] = kv.Record{Key: word, Value: binary.BigEndian.AppendUint64(nil, 1)}
	}
	return recs
}

func (w *wordcount) op(ctx context.Context, o *opState) (*opResult, error) {
	fs, splits := w.env.FS, w.splits
	if err := deleteAll(fs, wcOutput); err != nil {
		return nil, err
	}
	b := newBatchOp(o)
	job := &datampi.Job{
		Name: "wordcount",
		Mode: datampi.MapReduce,
		Conf: datampi.Config{
			KeyCodec:   datampi.BytesCodec,
			ValueCodec: datampi.BytesCodec,
			Combine:    bench.SumCombine,
		},
		NumO: len(splits), NumA: batchNumA, Procs: batchNodes, Slots: batchSlots,
		Input:      splits,
		SpillDisks: w.env.NodeDisks,
		OTask: func(ctx *datampi.Context) error {
			if w.oHook != nil {
				w.oHook()
			}
			one := binary.BigEndian.AppendUint64(nil, 1)
			var sw stopwatch
			var read, send int64
			for _, s := range datampi.SplitsForTask(ctx, splits) {
				if b.lt != nil {
					sw = startStopwatch()
				}
				err := fs.ReadLinesInSplit(s, ctx.Proc(), func(line []byte) error {
					if b.lt != nil {
						read += sw.lap()
					}
					words := bytes.Fields(line)
					if b.lt != nil {
						sw.lap() // tokenizing is the job's own work, no layer's
					}
					for _, word := range words {
						if err := ctx.SendRecord(kv.Record{Key: word, Value: one}); err != nil {
							return err
						}
					}
					if b.lt != nil {
						send += sw.lap()
					}
					return nil
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
			var sum [8]byte
			return b.writePart(ctx, fs, wcOutput, func() (kv.Record, bool, error) {
				g, ok, err := ctx.NextGroup()
				if err != nil || !ok {
					return kv.Record{}, ok, err
				}
				var n uint64
				for _, v := range g.Values {
					n += binary.BigEndian.Uint64(v)
				}
				binary.BigEndian.PutUint64(sum[:], n)
				return kv.Record{Key: g.Key, Value: sum[:]}, true, nil
			})
		},
	}
	res := &opResult{records: int64(w.lines), bytes: w.inputBytes}
	if err := b.run(ctx, o, job, res); err != nil {
		return nil, err
	}
	o.setPhase("verify")
	if err := w.verify(); err != nil {
		return nil, err
	}
	return res, nil
}

// verify checks the job's output counts against the reference count.
func (w *wordcount) verify() error {
	got, err := bench.ReadCounts(w.env.FS, wcOutput)
	if err != nil {
		return err
	}
	for word, n := range w.want {
		if got[word] != n {
			return fmt.Errorf("wordcount: %q counted %d, reference %d", word, got[word], n)
		}
	}
	if len(got) != len(w.want) {
		return fmt.Errorf("wordcount: output has %d words, reference %d", len(got), len(w.want))
	}
	return nil
}
