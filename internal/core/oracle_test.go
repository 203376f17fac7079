package core

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"datampi/internal/kv"
)

// Differential/property tests: each of the four modes runs seeded random
// workloads through the full runtime on both transports, and the delivered
// data is checked against a sequential in-memory oracle built from the very
// same Partition/Compare/Combine hooks the job uses. Every run must also
// leave the runtime counters balanced: shuffle bytes/records sent equal
// bytes/records received, and the combiner can only shrink data.

// byteSumPartition spreads keys by the sum of their bytes — a custom
// partitioner the oracle can replay exactly.
func byteSumPartition(key, _ []byte, numDest int) int {
	s := 0
	for _, b := range key {
		s += int(b)
	}
	return s % numDest
}

// descCompare orders keys descending, so a run that ignored the custom
// comparator would fail the order check.
func descCompare(a, b []byte) int { return -kv.DefaultCompare(a, b) }

// sumCombine folds int64 values into their sum — associative, so any
// buffer-boundary-dependent application still preserves per-key totals.
func sumCombine(_ []byte, values [][]byte) [][]byte {
	var total int64
	for _, v := range values {
		x, err := kv.Int64.Decode(v)
		if err != nil {
			return values
		}
		total += x.(int64)
	}
	enc, err := kv.Int64.Encode(nil, total)
	if err != nil {
		return values
	}
	return [][]byte{enc}
}

// assertBalancedCounters checks the shuffle-accounting invariants that must
// hold for any run that consumed everything it sent.
func assertBalancedCounters(t *testing.T, rc map[string]int64) {
	t.Helper()
	if rc == nil {
		t.Fatal("Result.RuntimeCounters is nil")
	}
	if s, r := rc["shuffle.bytes.sent"], rc["shuffle.bytes.received"]; s != r {
		t.Errorf("shuffle bytes unbalanced: sent %d, received %d", s, r)
	}
	if s, r := rc["shuffle.records.sent"], rc["shuffle.records.received"]; s != r {
		t.Errorf("shuffle records unbalanced: sent %d, received %d", s, r)
	}
	if in, out := rc["combine.records.in"], rc["combine.records.out"]; out > in {
		t.Errorf("combiner grew data: %d records in, %d out", in, out)
	}
	// Every per-pair sent counter must have a matching received counter.
	for k, v := range rc {
		if !strings.HasPrefix(k, "shuffle.bytes.sent.") {
			continue
		}
		pair := strings.TrimPrefix(k, "shuffle.bytes.sent.")
		if got := rc["shuffle.bytes.received."+pair]; got != v {
			t.Errorf("pair %s unbalanced: sent %d, received %d", pair, v, got)
		}
	}
}

// oracleRecord is one generated input pair.
type oracleRecord struct {
	key string
	val int64
}

// genWorkload builds a deterministic per-O-task workload from a seed.
func genWorkload(seed int64, numO, perTask, keySpace int) [][]oracleRecord {
	recs := make([][]oracleRecord, numO)
	for o := range recs {
		rng := rand.New(rand.NewSource(seed + int64(o)*104729))
		recs[o] = make([]oracleRecord, perTask)
		for i := range recs[o] {
			recs[o][i] = oracleRecord{
				key: fmt.Sprintf("key-%03d", rng.Intn(keySpace)),
				val: rng.Int63n(1000),
			}
		}
	}
	return recs
}

// oracleSums is the sequential reference: partition every record with the
// job's own partitioner and sum values per key per A task.
func oracleSums(recs [][]oracleRecord, numA int) []map[string]int64 {
	want := make([]map[string]int64, numA)
	for a := range want {
		want[a] = map[string]int64{}
	}
	for _, task := range recs {
		for _, r := range task {
			p := byteSumPartition([]byte(r.key), nil, numA)
			want[p][r.key] += r.val
		}
	}
	return want
}

// sumCollector gathers per-A-task key sums (and key arrival order) from the
// parallel run.
type sumCollector struct {
	mu    sync.Mutex
	sums  []map[string]int64
	order [][]string
}

func newSumCollector(numA int) *sumCollector {
	c := &sumCollector{sums: make([]map[string]int64, numA), order: make([][]string, numA)}
	for a := range c.sums {
		c.sums[a] = map[string]int64{}
	}
	return c
}

func (c *sumCollector) add(a int, key string, v int64) {
	c.mu.Lock()
	c.sums[a][key] += v
	c.order[a] = append(c.order[a], key)
	c.mu.Unlock()
}

func (c *sumCollector) check(t *testing.T, want []map[string]int64, wantDescending bool) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	for a := range want {
		if len(c.sums[a]) != len(want[a]) {
			t.Errorf("A%d: %d keys, oracle has %d", a, len(c.sums[a]), len(want[a]))
		}
		for k, w := range want[a] {
			if got := c.sums[a][k]; got != w {
				t.Errorf("A%d key %q: sum %d, oracle %d", a, k, got, w)
			}
		}
		if wantDescending {
			for i := 1; i < len(c.order[a]); i++ {
				if c.order[a][i] > c.order[a][i-1] {
					t.Fatalf("A%d: keys not in descending order at %d: %q > %q",
						a, i, c.order[a][i], c.order[a][i-1])
				}
			}
		}
	}
}

// transportCases runs fn once per transport; fn builds a fresh job each time
// because task closures capture per-run collectors.
func transportCases(t *testing.T, fn func(t *testing.T, opts ...RunOption)) {
	t.Run("mem", func(t *testing.T) { fn(t) })
	t.Run("tcp", func(t *testing.T) { fn(t, WithTCPTransport()) })
}

// groupedSumJob is the shared batch-mode job (Common and MapReduce differ
// only in Mode and the optional combiner): O tasks emit their slice of the
// workload, A tasks group with NextGroup and sum each group's values.
func groupedSumJob(mode Mode, recs [][]oracleRecord, numA, procs int, combine kv.Combine, out *sumCollector) *Job {
	return &Job{
		Mode: mode,
		Conf: Config{
			ValueCodec: kv.Int64,
			Compare:    descCompare,
			Partition:  byteSumPartition,
			Combine:    combine,
		},
		NumO: len(recs), NumA: numA, Procs: procs,
		OTask: func(ctx *Context) error {
			for _, r := range recs[ctx.Rank()] {
				if err := ctx.Send(r.key, r.val); err != nil {
					return err
				}
			}
			return nil
		},
		ATask: func(ctx *Context) error {
			for {
				g, ok, err := ctx.NextGroup()
				if err != nil {
					return err
				}
				if !ok {
					return nil
				}
				var sum int64
				for _, v := range g.Values {
					x, err := kv.Int64.Decode(v)
					if err != nil {
						return err
					}
					sum += x.(int64)
				}
				out.add(ctx.Rank(), string(g.Key), sum)
			}
		},
	}
}

func TestOracleCommonMode(t *testing.T) {
	for _, seed := range []int64{11, 0x5EED} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			transportCases(t, func(t *testing.T, opts ...RunOption) {
				rng := rand.New(rand.NewSource(seed))
				numO, numA := 2+rng.Intn(3), 1+rng.Intn(3)
				procs := 1 + rng.Intn(3)
				recs := genWorkload(seed, numO, 50+rng.Intn(150), 1+rng.Intn(40))
				out := newSumCollector(numA)
				res, err := Run(groupedSumJob(Common, recs, numA, procs, nil, out), opts...)
				if err != nil {
					t.Fatal(err)
				}
				out.check(t, oracleSums(recs, numA), true)
				assertBalancedCounters(t, res.RuntimeCounters)
			})
		})
	}
}

func TestOracleMapReduceModeWithCombiner(t *testing.T) {
	for _, seed := range []int64{23, 0xC0FFEE} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			transportCases(t, func(t *testing.T, opts ...RunOption) {
				rng := rand.New(rand.NewSource(seed))
				numO, numA := 2+rng.Intn(3), 1+rng.Intn(3)
				procs := 1 + rng.Intn(3)
				// A small key space makes the combiner actually fold records.
				recs := genWorkload(seed, numO, 100+rng.Intn(200), 1+rng.Intn(10))
				out := newSumCollector(numA)
				res, err := Run(groupedSumJob(MapReduce, recs, numA, procs, sumCombine, out), opts...)
				if err != nil {
					t.Fatal(err)
				}
				out.check(t, oracleSums(recs, numA), true)
				assertBalancedCounters(t, res.RuntimeCounters)
				rc := res.RuntimeCounters
				if rc["combine.records.in"] == 0 {
					t.Error("combiner never ran: combine.records.in = 0")
				}
				if rc["combine.records.out"] >= rc["combine.records.in"] {
					t.Errorf("combiner folded nothing: %d in, %d out",
						rc["combine.records.in"], rc["combine.records.out"])
				}
			})
		})
	}
}

func TestOracleIterationMode(t *testing.T) {
	// Deterministic per-(task, round, index) generation so the oracle can
	// replay both the forward shuffle and the feedback totals.
	iterKey := func(o, r, j, keySpace int) int64 { return int64((o*31 + r*17 + j) % keySpace) }
	iterVal := func(o, r, j int) int64 { return int64(o + r*7 + j%13 + 1) }

	for _, seed := range []int64{5, 0xD1CE} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			transportCases(t, func(t *testing.T, opts ...RunOption) {
				rng := rand.New(rand.NewSource(seed))
				numO, numA := 2+rng.Intn(2), 1+rng.Intn(2)
				rounds := 3 + rng.Intn(3)
				perRound := 30 + rng.Intn(60)
				keySpace := 5 + rng.Intn(20)

				var mu sync.Mutex
				gotSums := make([]map[int64]int64, numA)
				for a := range gotSums {
					gotSums[a] = map[int64]int64{}
				}
				fbTotals := make([]int64, numO)

				job := &Job{
					Mode: Iteration,
					Conf: Config{KeyCodec: kv.Int64, ValueCodec: kv.Int64, Partition: intKeyPartition},
					NumO: numO, NumA: numA, Procs: 2, Slots: 2,
					Rounds: rounds,
					OTask: func(ctx *Context) error {
						if ctx.Round() > 0 {
							n := 0
							for {
								_, v, ok, err := ctx.Recv()
								if err != nil {
									return err
								}
								if !ok {
									break
								}
								mu.Lock()
								fbTotals[ctx.Rank()] += v.(int64)
								mu.Unlock()
								n++
							}
							if n != numA {
								return fmt.Errorf("O%d round %d: %d feedback records, want %d",
									ctx.Rank(), ctx.Round(), n, numA)
							}
						}
						for j := 0; j < perRound; j++ {
							k := iterKey(ctx.Rank(), ctx.Round(), j, keySpace)
							if err := ctx.Send(k, iterVal(ctx.Rank(), ctx.Round(), j)); err != nil {
								return err
							}
						}
						return nil
					},
					ATask: func(ctx *Context) error {
						var count int64
						for {
							k, v, ok, err := ctx.Recv()
							if err != nil {
								return err
							}
							if !ok {
								break
							}
							mu.Lock()
							gotSums[ctx.Rank()][k.(int64)] += v.(int64)
							mu.Unlock()
							count++
						}
						// Feed the round's record count back to every O task —
						// except after the final round, when no O task runs
						// again to consume it (and the shuffle counters must
						// balance at shutdown).
						if ctx.Round() == ctx.job.Rounds-1 {
							return nil
						}
						for o := 0; o < ctx.CommSize(CommO); o++ {
							if err := ctx.Send(int64(o), count); err != nil {
								return err
							}
						}
						return nil
					},
				}
				res, err := Run(job, opts...)
				if err != nil {
					t.Fatal(err)
				}

				// Sequential oracle: replay every round.
				wantSums := make([]map[int64]int64, numA)
				for a := range wantSums {
					wantSums[a] = map[int64]int64{}
				}
				roundCount := make([][]int64, rounds) // [round][a] records delivered
				for r := 0; r < rounds; r++ {
					roundCount[r] = make([]int64, numA)
					for o := 0; o < numO; o++ {
						for j := 0; j < perRound; j++ {
							k := iterKey(o, r, j, keySpace)
							a := int(k) % numA
							wantSums[a][k] += iterVal(o, r, j)
							roundCount[r][a]++
						}
					}
				}
				var wantFB int64 // every O task hears every A task's count once per non-final round
				for r := 0; r < rounds-1; r++ {
					for a := 0; a < numA; a++ {
						wantFB += roundCount[r][a]
					}
				}

				mu.Lock()
				for a := range wantSums {
					if len(gotSums[a]) != len(wantSums[a]) {
						t.Errorf("A%d: %d keys, oracle has %d", a, len(gotSums[a]), len(wantSums[a]))
					}
					for k, w := range wantSums[a] {
						if got := gotSums[a][k]; got != w {
							t.Errorf("A%d key %d: sum %d, oracle %d", a, k, got, w)
						}
					}
				}
				for o := range fbTotals {
					if fbTotals[o] != wantFB {
						t.Errorf("O%d feedback total %d, oracle %d", o, fbTotals[o], wantFB)
					}
				}
				mu.Unlock()
				assertBalancedCounters(t, res.RuntimeCounters)
			})
		})
	}
}

func TestOracleStreamingMode(t *testing.T) {
	for _, seed := range []int64{17, 0xFEED} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			transportCases(t, func(t *testing.T, opts ...RunOption) {
				rng := rand.New(rand.NewSource(seed))
				procs, slots := 2, 2
				numO := 2 + rng.Intn(3)
				numA := 1 + rng.Intn(procs*slots) // Streaming: NumA <= Procs*Slots
				recs := genWorkload(seed, numO, 80+rng.Intn(120), 1+rng.Intn(30))
				out := newSumCollector(numA)
				job := &Job{
					Mode: Streaming,
					Conf: Config{ValueCodec: kv.Int64, Partition: byteSumPartition},
					NumO: numO, NumA: numA, Procs: procs, Slots: slots,
					OTask: func(ctx *Context) error {
						for _, r := range recs[ctx.Rank()] {
							if err := ctx.Send(r.key, r.val); err != nil {
								return err
							}
						}
						return nil
					},
					ATask: func(ctx *Context) error {
						for {
							k, v, ok, err := ctx.Recv()
							if err != nil {
								return err
							}
							if !ok {
								return nil
							}
							out.add(ctx.Rank(), k.(string), v.(int64))
						}
					},
				}
				res, err := Run(job, opts...)
				if err != nil {
					t.Fatal(err)
				}
				out.check(t, oracleSums(recs, numA), false) // streams are unordered
				assertBalancedCounters(t, res.RuntimeCounters)
			})
		})
	}
}
