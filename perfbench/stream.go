package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"datampi"
	"datampi/internal/kv"
	"datampi/internal/trace"
)

// The stream-window workload: a resident StreamJob over TCP with paced
// sources, a small hot key space and tumbling event-time windows, with
// in-band watermarks. It drives the same O side and transport as the batch
// jobs with small latency-bound frames instead of bulk; credit flow
// control and the window machine run only here, and nothing spills or
// checkpoints. Each operation is one session: an open-loop schedule at a
// fixed offered rate, started with RunStream and drained to Wait. Every
// event is stamped with its scheduled creation time, which is also its
// event time.
const (
	// swRate is the offered rate of both sources together, in events/s:
	// credit flow control is loaded (outstanding credits climb well above
	// zero) but does not stall.
	swRate    = 40000
	swSession = time.Second
	// swWarmup is the schedule length of the set-up's warm-up session.
	swWarmup  = 200 * time.Millisecond
	swSources = 2
	swKeys    = 64
	swWindow  = 100 * time.Millisecond
	// swTick is how far a source's watermark may trail its schedule.
	swTick = time.Millisecond
	swLead = 50 * time.Millisecond
	// swLateBound fails a session whose generator ran this far behind its
	// schedule: results would then measure the generator, not the program.
	swLateBound = 100 * time.Millisecond
	swSPL       = 8 << 10
	swFlush     = 2 * time.Millisecond
)

type streamWindow struct {
	rate    int
	session time.Duration
	// lead separates RunStream from the first scheduled event; a negative
	// lead starts the schedule already behind.
	lead time.Duration

	keys  [][]byte
	sched [swSources][]uint8 // each source's events, as indexes into keys
}

func (s *streamWindow) name() string { return "stream-window" }

func (s *streamWindow) spl() int { return swSPL }

// setup generates the sources' key schedules from the seed and starts the
// service once, for a short verified warm-up session.
func (s *streamWindow) setup(ctx context.Context, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	s.keys = make([][]byte, swKeys)
	for i := range s.keys {
		s.keys[i] = []byte(fmt.Sprintf("key%02d", i))
	}
	n := s.perSource(s.session)
	for src := range s.sched {
		s.sched[src] = make([]uint8, n)
		for i := range s.sched[src] {
			s.sched[src][i] = uint8(rng.Intn(swKeys))
		}
	}
	_, err := s.runSession(ctx, &opState{}, s.perSource(swWarmup))
	return err
}

func (s *streamWindow) close() {}

// perSource is how many events each source emits in a schedule of length d.
func (s *streamWindow) perSource(d time.Duration) int {
	return int(int64(s.rate) * int64(d) / int64(time.Second) / swSources)
}

// reference aggregates one session's schedule into per-(window, key)
// counts in one plain single-threaded pass.
func (s *streamWindow) reference() (time.Duration, error) {
	t0 := time.Now()
	want := s.expected(time.Now().UnixNano(), s.perSource(s.session))
	if len(want) == 0 {
		return 0, fmt.Errorf("stream-window: empty schedule")
	}
	return time.Since(t0), nil
}

func (s *streamWindow) shape() []kv.Record {
	recs := make([]kv.Record, 0, probeRecords)
	for i := 0; i < probeRecords && i < len(s.sched[0]); i++ {
		v := binary.BigEndian.AppendUint64(nil, uint64(i))
		recs = append(recs, kv.Record{Key: s.keys[s.sched[0][i]], Value: binary.BigEndian.AppendUint64(v, uint64(i))})
	}
	return recs
}

// winKey names one result: a window (by its start) and a key.
type winKey struct {
	start int64
	key   string
}

// due is the scheduled time, in Unix ns, of a source's i-th event:
// the sources interleave on one global schedule.
func (s *streamWindow) due(start int64, src, i int) int64 {
	return start + int64(i*swSources+src)*int64(time.Second)/int64(s.rate)
}

// expected is the reference aggregation of a schedule starting at start.
func (s *streamWindow) expected(start int64, n int) map[winKey]int {
	win := int64(swWindow)
	want := map[winKey]int{}
	for src := range s.sched {
		for i, k := range s.sched[src][:n] {
			at := s.due(start, src, i)
			want[winKey{at / win * win, string(s.keys[k])}]++
		}
	}
	return want
}

// session is one run of the service.
type session struct {
	s      *streamWindow
	start  int64
	n      int
	traced bool

	srcLeft atomic.Int32
	// phase names the session's current step for a stall report.
	phase func(string)

	// Per source, written only by that source's task.
	late  [swSources][]float64       // ms behind schedule, traced only
	emit  [swSources][]float64       // µs per Emit call, traced only
	cross [swSources]map[int64]int64 // window end -> when the watermark passed it
	sends [swSources]int64           // ns inside Emit

	wall   time.Duration
	trace  *trace.Tracer
	proc   procDelta
	layers map[string]float64

	mu    sync.Mutex
	got   map[winKey]int
	lat   []float64
	fires []fire
	bad   error
}

// fire is one A task's firing of one window.
type fire struct{ end, at int64 }

func (ss *session) source(sc *datampi.SourceContext) error {
	src := sc.Rank()
	var payload [8]byte
	nextTick := int64(0)
	win := int64(swWindow)
	lastEnd := ss.start / win * win
	cross := map[int64]int64{}
	for i, k := range ss.s.sched[src][:ss.n] {
		if sc.Stopping() {
			return nil
		}
		due := ss.s.due(ss.start, src, i)
		now := time.Now().UnixNano()
		if now < due {
			time.Sleep(time.Duration(due - now))
			now = time.Now().UnixNano()
		}
		if behind := time.Duration(now - due); behind > swLateBound {
			err := fmt.Errorf("source %d ran %v behind its schedule (bound %v)", src, behind, swLateBound)
			// A failed source can leave the service unable to shut down,
			// so the stall report must carry the cause too.
			ss.phase("emit: " + err.Error())
			return fmt.Errorf("stream-window: %w", err)
		}
		if ss.traced {
			ss.late[src] = append(ss.late[src], ms(now-due))
		}
		binary.BigEndian.PutUint64(payload[:], uint64(due))
		if err := sc.Emit(ss.s.keys[k], payload[:], time.Unix(0, due)); err != nil {
			return err
		}
		if ss.traced {
			d := time.Now().UnixNano() - now
			ss.sends[src] += d
			ss.emit[src] = append(ss.emit[src], float64(d)/1e3)
		}
		if due >= nextTick {
			if ss.traced {
				at := time.Now().UnixNano()
				for ; lastEnd+win <= due; lastEnd += win {
					cross[lastEnd+win] = at
				}
			}
			if err := sc.Watermark(time.Unix(0, due)); err != nil {
				return err
			}
			nextTick = (due/int64(swTick) + 1) * int64(swTick)
		}
	}
	ss.cross[src] = cross
	if ss.srcLeft.Add(-1) == 0 {
		ss.phase("drain")
	}
	return nil
}

func (ss *session) fired(fw datampi.FiredWindow) error {
	now := time.Now().UnixNano()
	ss.mu.Lock()
	defer ss.mu.Unlock()
	for _, g := range fw.Groups {
		var newest int64
		for _, v := range g.Values {
			if len(v) != 8 {
				ss.bad = fmt.Errorf("stream-window: event payload of %d bytes, want 8", len(v))
				continue
			}
			newest = max(newest, int64(binary.BigEndian.Uint64(v)))
		}
		ss.lat = append(ss.lat, ms(now-newest))
		ss.got[winKey{fw.Start.UnixNano(), string(g.Key)}] += len(g.Values)
	}
	ss.fires = append(ss.fires, fire{fw.End.UnixNano(), now})
	return nil
}

func (s *streamWindow) op(ctx context.Context, o *opState) (*opResult, error) {
	return s.runSession(ctx, o, s.perSource(s.session))
}

// runSession starts the service, runs an n-events-per-source schedule
// through it, waits for it to drain, and checks every window.
func (s *streamWindow) runSession(ctx context.Context, o *opState, n int) (*opResult, error) {
	ss := &session{s: s, n: n, traced: o.traced, got: map[winKey]int{}}
	r, err := ss.run(ctx, o)
	if err != nil {
		return nil, err
	}
	o.setPhase("verify")
	if err := ss.verify(r.RuntimeCounters); err != nil {
		return nil, err
	}
	events := int64(n) * swSources
	res := &opResult{
		wall:    ss.wall,
		lat:     ss.lat,
		records: events,
		bytes:   events * int64(len(s.keys[0])+8),
	}
	if o.traced {
		res.layers = ss.layers
		var traceOut bytes.Buffer
		if err := ss.trace.WriteJSON(&traceOut); err != nil {
			return nil, err
		}
		spans, err := spanTotals(traceOut.Bytes())
		if err != nil {
			return nil, err
		}
		runtimeLayers(r.RuntimeCounters, spans, res.layers)
		res.dists = map[string][]float64{}
		var send int64
		for src := range ss.late {
			send += ss.sends[src]
			res.dists["gen_late_ms"] = append(res.dists["gen_late_ms"], ss.late[src]...)
			res.dists["emit_us"] = append(res.dists["emit_us"], ss.emit[src]...)
		}
		res.layers["core.o.send_ms"] = ms(send)
		res.dists["close_to_fire_ms"] = ss.closeToFire()
	}
	return res, nil
}

// run starts the service, feeds it the session's schedule and waits until
// it has drained or ctx is done.
func (ss *session) run(ctx context.Context, o *opState) (*datampi.Result, error) {
	ss.srcLeft.Store(swSources)
	ss.phase = o.setPhase
	sj := &datampi.StreamJob{
		Name: "stream-window",
		Conf: datampi.Config{
			KeyCodec:      datampi.BytesCodec,
			ValueCodec:    datampi.BytesCodec,
			SPLBytes:      swSPL,
			FlushInterval: swFlush,
		},
		NumO: swSources, NumA: swSources, Procs: swSources, Slots: 2,
		Window: datampi.WindowSpec{Size: swWindow},
		Source: ss.source,
		Emit:   ss.fired,
	}
	opts := []datampi.RunOption{
		datampi.WithTransport(datampi.TransportConfig{Kind: datampi.TransportTCP}),
		datampi.WithCounters(),
	}
	if ss.traced {
		// RunStream does not apply WithTrace, so the job carries the
		// runtime's tracer itself, as WithTrace would attach it.
		ss.trace = trace.New()
		sj.Trace = ss.trace
		ss.proc = procStart()
	}
	o.setPhase("emit")
	t0 := time.Now()
	ss.start = t0.Add(ss.s.lead).UnixNano()
	h, err := datampi.RunStream(sj, opts...)
	if err != nil {
		return nil, err
	}
	type waited struct {
		r   *datampi.Result
		err error
	}
	done := make(chan waited, 1)
	go func() {
		r, err := h.Wait()
		done <- waited{r, err}
	}()
	select {
	case w := <-done:
		ss.wall = time.Since(t0)
		if w.err != nil {
			return nil, fmt.Errorf("stream-window session: %w", w.err)
		}
		if ss.traced {
			ss.layers = map[string]float64{}
			ss.proc.add(ss.layers)
		}
		return w.r, nil
	case <-ctx.Done():
		h.Stop()
		return nil, ctx.Err()
	}
}

// verify checks the session's windows against the reference aggregation
// of its schedule, and that every event that went in came out.
func (ss *session) verify(ctr map[string]int64) error {
	if ss.bad != nil {
		return ss.bad
	}
	if err := verifyWindows(ss.got, ss.s.expected(ss.start, ss.n)); err != nil {
		return err
	}
	if in, out := ctr["stream.events.in"], ctr["stream.events.out"]; in != out || in == 0 {
		return fmt.Errorf("stream-window: %d events in, %d out", in, out)
	}
	if d := ctr["stream.late.dropped"]; d != 0 {
		return fmt.Errorf("stream-window: %d events dropped as late", d)
	}
	return nil
}

// verifyWindows checks per-(window, key) counts against the reference.
func verifyWindows(got, want map[winKey]int) error {
	for k, n := range want {
		if got[k] != n {
			return fmt.Errorf("stream-window: window %d key %q counted %d events, reference %d", k.start, k.key, got[k], n)
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("stream-window: %d (window, key) results, reference %d", len(got), len(want))
	}
	return nil
}

// closeToFire returns, for every window closed by the sources' watermarks
// rather than by the end of the stream, the ms from the moment the last
// source's watermark passed the window's end to each firing of it.
func (ss *session) closeToFire() []float64 {
	var out []float64
	for _, f := range ss.fires {
		var closed int64
		for src := range ss.cross {
			at, ok := ss.cross[src][f.end]
			if !ok {
				closed = 0
				break
			}
			closed = max(closed, at)
		}
		if closed > 0 {
			out = append(out, ms(f.at-closed))
		}
	}
	return out
}
