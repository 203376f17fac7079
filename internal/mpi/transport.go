package mpi

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"datampi/internal/netsim"
)

// transport moves frames between world ranks. src and dst are world ranks;
// src lets a fault-injection wrapper attribute traffic to its true sender
// even on sub-communicators, where frame.srcRank is a comm rank.
type transport interface {
	// send delivers f toward dst. Ownership contract: the caller may reuse
	// f.data as soon as send returns, so an implementation that retains the
	// payload past the call (a buffering inbox, an async delivery queue)
	// must copy it first; a synchronous write path that puts the bytes on
	// the wire before returning (TCP) must not. On the receive side the
	// contract inverts: a frame handed out by recv is owned by the
	// receiver and is never touched by the transport again.
	send(src, dst int, f frame) error
	// recv blocks for the next frame addressed to world rank r; ok=false
	// means the transport has been closed.
	recv(r int) (frame, bool)
	// stats returns the transport's cumulative counters.
	stats() Stats
	close()
}

// Stats are cumulative transport-level counters for one World, exposed
// through World.Stats so the DataMPI runtime can fold link behaviour
// (retransmits, reconnects, wire volume) into its job counters.
type Stats struct {
	// FramesSent/BytesSent count payloads handed to the wire (after any
	// fault-injection drops); a frame counts once, when its write succeeds.
	FramesSent, BytesSent int64
	// FramesRecv/BytesRecv count payloads delivered to receivers.
	FramesRecv, BytesRecv int64
	// SendRetries counts TCP frame rewrites after a failed attempt;
	// the in-memory transport never retries.
	SendRetries int64
	// Dials counts TCP connection establishments (first connects and
	// post-reset redials).
	Dials int64

	// MuxConns is the peak number of simultaneously open outgoing
	// connections: one per destination, since every communicator and
	// sender rank shares it.
	MuxConns int64
	// WritevCalls counts successful vectored writes; each ships one frame
	// (header and payload) in a single syscall.
	WritevCalls int64

	// ChunkFramesSent/ChunkMsgsSent count the BigMPI-style chunked
	// transfer layer's activity on the send side: messages above the chunk
	// threshold are split into sequenced continuation frames
	// (ChunkFramesSent counts those frames, ChunkMsgsSent the original
	// messages). ChunkFramesRecv/ChunkMsgsReassembled mirror them at the
	// receive demux, which reassembles continuations back into the
	// original message before delivery. These are World-level counters:
	// chunking happens above the raw transport, identically over TCP and
	// the in-memory channels.
	ChunkFramesSent      int64
	ChunkFramesRecv      int64
	ChunkMsgsSent        int64
	ChunkMsgsReassembled int64
}

// transportStats is the shared atomic implementation behind Stats.
type transportStats struct {
	framesSent, bytesSent atomic.Int64
	framesRecv, bytesRecv atomic.Int64
	sendRetries, dials    atomic.Int64
}

func (s *transportStats) countSend(n int) {
	s.framesSent.Add(1)
	s.bytesSent.Add(int64(n))
}

func (s *transportStats) countRecv(n int) {
	s.framesRecv.Add(1)
	s.bytesRecv.Add(int64(n))
}

func (s *transportStats) stats() Stats {
	return Stats{
		FramesSent: s.framesSent.Load(), BytesSent: s.bytesSent.Load(),
		FramesRecv: s.framesRecv.Load(), BytesRecv: s.bytesRecv.Load(),
		SendRetries: s.sendRetries.Load(), Dials: s.dials.Load(),
	}
}

// frameHeaderSize is the fixed wire header: comm id + src + tag + seq +
// payload length.
const frameHeaderSize = 24

// frameOverhead is the per-message protocol overhead we charge to the
// network link: the frame header plus a nominal transport-layer framing
// cost comparable to a TCP/IP header.
const frameOverhead = frameHeaderSize + 52

// maxFrameSize is the absolute cap on one frame's payload, the bound the
// stream parser enforces: a corrupt or hostile length header can
// therefore not force an unbounded allocation; readFrame rejects larger
// claims with ErrFrameTooLarge. The send-side cap defaults to it but can
// be lowered per world (frameConfig.maxFrame / WithMaxFrame); messages
// larger than a frame allows travel as chunked continuation frames, so
// the cap bounds frames, not messages.
const maxFrameSize = 256 << 20

// FrameCap exports the absolute frame payload cap for configuration
// validation at higher layers (WithMaxFrame values beyond it are
// meaningless — the parser would reject such frames).
const FrameCap = maxFrameSize

// frameAllocChunk bounds how much readFrame allocates ahead of the bytes
// the stream has actually produced, so even an in-cap lying header cannot
// balloon memory before the short read surfaces.
const frameAllocChunk = 1 << 20

// tcpSendRetries is how many times a TCP send redials and rewrites after
// a connection failure before declaring the peer dead.
const tcpSendRetries = 4

// tcpDialTimeout bounds one dial attempt inside the retry loop.
const tcpDialTimeout = 2 * time.Second

// frameConfig holds a world's frame-size limits, shared by every
// transport. The zero value selects the defaults.
type frameConfig struct {
	// chunkBytes is the chunked-transfer threshold: a message payload
	// strictly larger travels as sequenced continuation frames of at most
	// chunkBytes each (plus the chunk sub-header). maxFrame is the
	// send-side frame cap, defaulting to (and clamped by) the absolute
	// maxFrameSize parse bound.
	chunkBytes int
	maxFrame   int
}

// defaultChunkBytes is the default chunked-transfer threshold and chunk
// payload size (the BigMPI chunking strategy). It sits far above the
// runtime's 64 KiB SPL frames — ordinary shuffle traffic never chunks —
// and far below maxFrameSize, so chunk frames stay cheap to buffer,
// retry and checkpoint while oversized values stream through in
// O(chunk) memory.
const defaultChunkBytes = 4 << 20

func (e *frameConfig) normalize() {
	if e.maxFrame <= 0 || e.maxFrame > maxFrameSize {
		e.maxFrame = maxFrameSize
	}
	if e.chunkBytes <= 0 {
		e.chunkBytes = defaultChunkBytes
	}
	// A chunk frame carries chunkHdrSize bytes of sub-header on top of
	// its data; the threshold must leave room for it under the frame cap
	// (config-level validation rejects this loudly — the clamp keeps the
	// invariant for worlds built from raw options).
	if e.chunkBytes > e.maxFrame-chunkHdrSize {
		e.chunkBytes = e.maxFrame - chunkHdrSize
	}
}

// ---------------------------------------------------------------------------
// In-memory transport

type memTransport struct {
	transportStats
	inboxes     []chan frame
	link        *netsim.Link
	sendTimeout time.Duration
	done        chan struct{}
	once        sync.Once
}

func newMemTransport(n int, link *netsim.Link, sendTimeout time.Duration) (*memTransport, error) {
	t := &memTransport{
		inboxes:     make([]chan frame, n),
		link:        link,
		sendTimeout: sendTimeout,
		done:        make(chan struct{}),
	}
	for i := range t.inboxes {
		t.inboxes[i] = make(chan frame, 1024)
	}
	return t, nil
}

func (t *memTransport) send(src, dst int, f frame) error {
	if t.link != nil {
		t.link.Transfer(int64(len(f.data)), frameOverhead, 0)
	}
	// The inbox retains the frame past this call, so take the ownership
	// copy here (transport.send contract); the receiver then owns it.
	if f.data != nil {
		f.data = append([]byte(nil), f.data...)
	}
	select {
	case t.inboxes[dst] <- f:
		t.countSend(len(f.data))
		return nil
	case <-t.done:
		return ErrClosed
	default:
	}
	// Inbox full: wait, but never forever when a deadline is configured —
	// a receiver that has exited (dead rank) would otherwise block this
	// sender indefinitely.
	if t.sendTimeout <= 0 {
		select {
		case t.inboxes[dst] <- f:
			t.countSend(len(f.data))
			return nil
		case <-t.done:
			return ErrClosed
		}
	}
	tm := time.NewTimer(t.sendTimeout)
	defer tm.Stop()
	select {
	case t.inboxes[dst] <- f:
		t.countSend(len(f.data))
		return nil
	case <-t.done:
		return ErrClosed
	case <-tm.C:
		return fmt.Errorf("mpi: send to rank %d: inbox full for %v: %w", dst, t.sendTimeout, ErrTimeout)
	}
}

func (t *memTransport) recv(r int) (frame, bool) {
	// Prefer pending frames over shutdown so queued messages drain.
	select {
	case f := <-t.inboxes[r]:
		t.countRecv(len(f.data))
		return f, true
	default:
	}
	select {
	case f := <-t.inboxes[r]:
		t.countRecv(len(f.data))
		return f, true
	case <-t.done:
		return frame{}, false
	}
}

func (t *memTransport) close() {
	t.once.Do(func() { close(t.done) })
}

// ---------------------------------------------------------------------------
// TCP transport
//
// Every send is one synchronous vectored write (frame header + payload)
// on the single connection this process keeps toward the destination:
// all communicators and sender ranks multiplex onto it, serialized by the
// connection's flushMu, and the receive side demultiplexes by the (comm,
// srcRank) header every frame carries. A failed write redials and
// rewrites the frame; per-stream sequence numbers keep delivery
// exactly-once and in order across those resets, and a destination that
// stays unreachable through every retry gets a sticky ErrRankDead
// verdict. This is the paper's communication thread sending each sealed
// buffer with plain point-to-point (§IV-C); the runtime's SPL frames are
// already large, and an asynchronous coalescing writer layered on top
// measured no faster.

type tcpTransport struct {
	transportStats
	link        *netsim.Link
	sendTimeout time.Duration
	onRetry     func(src, dst, attempt int)
	maxFrame    int
	listeners   []net.Listener
	addrs       []string
	inboxes     []chan frame
	done        chan struct{}

	writevCalls atomic.Int64

	mu       sync.Mutex
	conns    map[int]*tcpConn  // destination world rank -> its connection
	sendSeq  map[[3]int]uint64 // [comm,srcRank,dst] -> next sequence number per stream
	outbound map[net.Conn]struct{}
	muxPeak  int64 // peak len(outbound), reported as Stats.MuxConns
	accepted map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup

	rdMu    sync.Mutex
	streams map[[3]int]*streamState // [comm,srcRank,dst] -> receive ordering
}

// streamState reorders one incoming stream. After a connection reset the
// sender redials, and the replacement connection's readLoop races the old
// one draining its final frames into the inbox; delivering strictly by the
// sender-assigned sequence number restores stream order and discards the
// rare duplicate (a frame whose write "failed" after the bytes were
// already delivered, then was rewritten on the new connection).
type streamState struct {
	next uint64
	held map[uint64]frame
}

// tcpConn is one destination's outgoing connection: the live socket
// (redialed on demand after a drop) and — after a send exhausts its
// retries — the sticky failure-detector verdict. flushMu serializes the
// senders sharing the connection, so each frame's write (and its retry
// ladder) completes before the next begins.
type tcpConn struct {
	dst     int
	flushMu sync.Mutex

	mu      sync.Mutex
	c       net.Conn // nil until dialed, and after a drop
	err     error    // sticky ErrRankDead verdict; lives until rank replacement retires the conn
	stopped bool     // retired by replaceRank: senders drop their frames
}

func newTCPTransport(n int, link *netsim.Link, sendTimeout time.Duration, onRetry func(src, dst, attempt int), fc frameConfig) (*tcpTransport, error) {
	t := newTCPState(n, link, sendTimeout, onRetry, fc)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.close()
			return nil, fmt.Errorf("mpi: listen: %w", err)
		}
		t.listeners[i] = ln
		t.addrs[i] = ln.Addr().String()
		t.inboxes[i] = make(chan frame, 1024)
	}
	for i := 0; i < n; i++ {
		t.wg.Add(1)
		go t.acceptLoop(i)
	}
	return t, nil
}

// newDistTCPTransport builds the single-process slice of a distributed
// TCP transport: rank self listens on ln (whose address must equal
// addrs[self]); every other rank is reached by dialing its directory
// address. The wire protocol, per-stream sequencing and retry machinery
// are exactly those of the all-local transport — each (comm, srcRank,
// dst) stream originates in exactly one process, so sender-assigned
// sequence numbers stay consistent across the distributed world — and
// the whole process shares one outgoing connection per destination
// process.
func newDistTCPTransport(n, self int, ln net.Listener, addrs []string, link *netsim.Link, sendTimeout time.Duration, onRetry func(src, dst, attempt int), fc frameConfig) (*tcpTransport, error) {
	t := newTCPState(n, link, sendTimeout, onRetry, fc)
	copy(t.addrs, addrs)
	t.listeners[self] = ln
	t.addrs[self] = ln.Addr().String()
	t.inboxes[self] = make(chan frame, 1024)
	t.wg.Add(1)
	go t.acceptLoop(self)
	return t, nil
}

// newTCPState builds the transport state shared by both constructors for
// a world of n ranks; the callers open the listeners.
func newTCPState(n int, link *netsim.Link, sendTimeout time.Duration, onRetry func(src, dst, attempt int), fc frameConfig) *tcpTransport {
	fc.normalize()
	return &tcpTransport{
		link:        link,
		sendTimeout: sendTimeout,
		onRetry:     onRetry,
		maxFrame:    fc.maxFrame,
		listeners:   make([]net.Listener, n),
		addrs:       make([]string, n),
		inboxes:     make([]chan frame, n),
		done:        make(chan struct{}),
		conns:       make(map[int]*tcpConn),
		sendSeq:     make(map[[3]int]uint64),
		outbound:    make(map[net.Conn]struct{}),
		streams:     make(map[[3]int]*streamState),
	}
}

func (t *tcpTransport) stats() Stats {
	s := t.transportStats.stats()
	s.WritevCalls = t.writevCalls.Load()
	t.mu.Lock()
	s.MuxConns = t.muxPeak
	t.mu.Unlock()
	return s
}

func (t *tcpTransport) acceptLoop(r int) {
	defer t.wg.Done()
	for {
		conn, err := t.listeners[r].Accept()
		if err != nil {
			return // listener closed
		}
		t.wg.Add(1)
		go t.readLoop(r, conn)
	}
}

func (t *tcpTransport) readLoop(r int, conn net.Conn) {
	defer t.wg.Done()
	defer conn.Close()
	// Track the accepted connection so close() can sever it: in a
	// distributed world its peer lives in another process and stays open
	// across our shutdown, so the read below would otherwise block forever.
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	if t.accepted == nil {
		t.accepted = make(map[net.Conn]struct{})
	}
	t.accepted[conn] = struct{}{}
	t.mu.Unlock()
	defer func() {
		t.mu.Lock()
		delete(t.accepted, conn)
		t.mu.Unlock()
	}()
	br := bufio.NewReaderSize(conn, 64<<10)
	for {
		f, err := readFrame(br)
		if err != nil {
			return
		}
		for _, g := range t.orderStream(r, f) {
			select {
			case t.inboxes[r] <- g:
			case <-t.done:
				return
			}
		}
	}
}

// orderStream admits a received frame into its stream's sequence order,
// returning the frames that are now deliverable (possibly none: the frame
// is held until its predecessors arrive; possibly several: it filled a
// gap). Duplicates — sequence numbers already delivered — are discarded,
// making TCP delivery exactly-once even across connection resets.
func (t *tcpTransport) orderStream(r int, f frame) []frame {
	key := [3]int{int(f.comm), int(f.srcRank), r}
	t.rdMu.Lock()
	defer t.rdMu.Unlock()
	st := t.streams[key]
	if st == nil {
		st = &streamState{held: make(map[uint64]frame)}
		t.streams[key] = st
	}
	if f.seq < st.next {
		return nil // duplicate of an already-delivered frame
	}
	if f.seq > st.next {
		st.held[f.seq] = f
		return nil
	}
	out := []frame{f}
	st.next++
	for {
		g, ok := st.held[st.next]
		if !ok {
			return out
		}
		delete(st.held, st.next)
		out = append(out, g)
		st.next++
	}
}

// putFrameHeader writes f's fixed wire header into hdr, which must be at
// least frameHeaderSize bytes.
func putFrameHeader(hdr []byte, f frame) {
	binary.BigEndian.PutUint32(hdr[0:], f.comm)
	binary.BigEndian.PutUint32(hdr[4:], uint32(f.srcRank))
	binary.BigEndian.PutUint32(hdr[8:], uint32(int32(f.tag)))
	binary.BigEndian.PutUint64(hdr[12:], f.seq)
	binary.BigEndian.PutUint32(hdr[20:], uint32(len(f.data)))
}

// writeFrame writes one frame through a buffered writer and flushes. The
// transport does not use it — it exists as the reference serializer
// readFrame is tested against.
func writeFrame(w *bufio.Writer, f frame) error {
	if len(f.data) > maxFrameSize {
		return fmt.Errorf("mpi: %d-byte frame: %w", len(f.data), ErrFrameTooLarge)
	}
	var hdr [frameHeaderSize]byte
	putFrameHeader(hdr[:], f)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(f.data); err != nil {
		return err
	}
	return w.Flush()
}

func readFrame(r io.Reader) (frame, error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return frame{}, err
	}
	f := frame{
		comm:    binary.BigEndian.Uint32(hdr[0:]),
		srcRank: int32(binary.BigEndian.Uint32(hdr[4:])),
		tag:     int32(binary.BigEndian.Uint32(hdr[8:])),
		seq:     binary.BigEndian.Uint64(hdr[12:]),
	}
	n := int64(binary.BigEndian.Uint32(hdr[20:]))
	if n > maxFrameSize {
		return frame{}, fmt.Errorf("mpi: frame header claims %d bytes: %w", n, ErrFrameTooLarge)
	}
	// Grow in bounded chunks: the stream must keep producing bytes before
	// the next chunk is allocated, so a lying in-cap length cannot reserve
	// memory the connection never backs.
	for int64(len(f.data)) < n {
		chunk := n - int64(len(f.data))
		if chunk > frameAllocChunk {
			chunk = frameAllocChunk
		}
		old := len(f.data)
		f.data = append(f.data, make([]byte, chunk)...)
		if _, err := io.ReadFull(r, f.data[old:]); err != nil {
			return frame{}, err
		}
	}
	return f, nil
}

func (t *tcpTransport) send(src, dst int, f frame) error {
	if len(f.data) > t.maxFrame {
		return fmt.Errorf("mpi: %d-byte frame: %w", len(f.data), ErrFrameTooLarge)
	}
	if t.link != nil {
		t.link.Transfer(int64(len(f.data)), frameOverhead, 0)
	}
	// The stream sequence number is assigned once and reused across
	// retries: a rewrite after a connection failure carries the same seq,
	// so the receiver's reorderer can discard it if the original actually
	// arrived. Streams stay keyed by the full triple even though their
	// frames share the destination's connection. The conn and the seq are
	// resolved under one t.mu hold, so a concurrent replaceRank either
	// retires both (the frame is dropped with its incarnation) or neither.
	seqKey := [3]int{int(f.comm), int(f.srcRank), dst}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return ErrClosed
	}
	f.seq = t.sendSeq[seqKey]
	t.sendSeq[seqKey]++
	tc := t.conns[dst]
	if tc == nil {
		tc = &tcpConn{dst: dst}
		t.conns[dst] = tc
	}
	t.mu.Unlock()

	tc.flushMu.Lock()
	defer tc.flushMu.Unlock()
	tc.mu.Lock()
	err, stopped := tc.err, tc.stopped
	tc.mu.Unlock()
	if err != nil {
		// An earlier send exhausted its retries: this destination is
		// already declared dead. Fail fast — the verdict lives until a
		// replacement takes over the rank.
		return err
	}
	if stopped {
		// replaceRank retired this connection: the frame belongs to the
		// dead incarnation's streams and is dropped with them.
		return nil
	}
	return t.writeFrameTo(tc, src, f)
}

// writeFrameTo ships one frame in a single vectored write (header and
// payload, no copy), redialing and rewriting it on failure. Rewrites are
// safe against duplication: the frame carries its stream sequence number,
// so a receiver that already got it discards the copy. On retry
// exhaustion the error is parked as tc's sticky verdict. Called with
// tc.flushMu held.
func (t *tcpTransport) writeFrameTo(tc *tcpConn, src int, f frame) error {
	var hdr [frameHeaderSize]byte
	putFrameHeader(hdr[:], f)
	var lastErr error
	for attempt := 0; attempt <= tcpSendRetries; attempt++ {
		if attempt > 0 {
			t.sendRetries.Add(1)
			if t.onRetry != nil {
				t.onRetry(src, tc.dst, attempt)
			}
			// Exponential backoff: 1, 2, 4, 8 ms.
			backoff := time.Duration(1<<uint(attempt-1)) * time.Millisecond
			select {
			case <-t.done:
				return ErrClosed
			case <-time.After(backoff):
			}
		}
		tc.mu.Lock()
		if err := t.ensureConnLocked(tc); err != nil {
			tc.mu.Unlock()
			if err == ErrClosed {
				return err
			}
			lastErr = err
			continue
		}
		c := tc.c
		tc.mu.Unlock()
		if t.sendTimeout > 0 {
			c.SetWriteDeadline(time.Now().Add(t.sendTimeout))
		}
		// net.Buffers consumes itself on write, so it is rebuilt per
		// attempt; the header and payload bytes are untouched.
		bufs := net.Buffers{hdr[:], f.data}
		_, err := bufs.WriteTo(c)
		if err == nil {
			t.writevCalls.Add(1)
			t.countSend(len(f.data))
			return nil
		}
		lastErr = err
		// The connection (and any partially written frame) is poisoned:
		// drop it so the next attempt redials and rewrites from scratch.
		// The receiver discards partial frames and deduplicates complete
		// ones by sequence number, so a rewrite cannot double-deliver.
		tc.mu.Lock()
		t.dropConnLocked(tc)
		tc.mu.Unlock()
	}
	// Failure-detector verdict: the destination stayed unreachable through
	// every redial. Make it sticky so later sends fail fast instead of
	// re-running the whole retry ladder per frame.
	tc.mu.Lock()
	tc.err = fmt.Errorf("mpi: send to rank %d failed after %d attempts (%v): %w",
		tc.dst, tcpSendRetries+1, lastErr, ErrRankDead)
	err := tc.err
	tc.mu.Unlock()
	return err
}

// ensureConnLocked dials tc's destination if its socket is down. Called
// with tc.mu held.
func (t *tcpTransport) ensureConnLocked(tc *tcpConn) error {
	if tc.c != nil {
		return nil
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return ErrClosed
	}
	addr := t.addrs[tc.dst]
	t.mu.Unlock()
	d := net.Dialer{Timeout: tcpDialTimeout}
	c, err := d.Dial("tcp", addr)
	if err != nil {
		return fmt.Errorf("mpi: dial rank %d: %w", tc.dst, err)
	}
	t.dials.Add(1)
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		c.Close()
		return ErrClosed
	}
	t.outbound[c] = struct{}{}
	if n := int64(len(t.outbound)); n > t.muxPeak {
		t.muxPeak = n
	}
	t.mu.Unlock()
	tc.c = c
	return nil
}

// dropConnLocked closes and forgets tc's socket. Stream sequence state
// survives the drop, so the next send redials and carries on. Called with
// tc.mu held.
func (t *tcpTransport) dropConnLocked(tc *tcpConn) {
	if tc.c == nil {
		return
	}
	t.mu.Lock()
	delete(t.outbound, tc.c)
	t.mu.Unlock()
	tc.c.Close()
	tc.c = nil
}

// resetPair injects a connection reset: the next send toward dst must
// redial. Used by the fault layer; the triple's frames share the
// destination's connection, so the reset severs that shared socket, which
// the rewrite/dedup machinery absorbs.
func (t *tcpTransport) resetPair(comm uint32, srcRank int32, dst int) {
	t.mu.Lock()
	tc := t.conns[dst]
	t.mu.Unlock()
	if tc == nil {
		return
	}
	tc.mu.Lock()
	t.dropConnLocked(tc)
	tc.mu.Unlock()
}

// replaceRank rewires the transport around a respawned rank: the address
// directory points at the replacement, the outgoing connection — with any
// sticky dead-peer verdict — and sequence counters toward the rank are
// dropped (the new incarnation expects every stream to restart at
// sequence 0, and frames addressed to the old one must not leak into it;
// committed-chunk replay re-covers that data), and receive-stream
// ordering state from the old incarnation is cleared so the
// replacement's streams are admitted from scratch. commRanks maps
// communicator id -> the replaced rank's rank within that communicator,
// the key space of incoming streams.
func (t *tcpTransport) replaceRank(worldRank int, addr string, commRanks map[uint32]int) {
	t.mu.Lock()
	t.addrs[worldRank] = addr
	stale := t.conns[worldRank]
	delete(t.conns, worldRank)
	for key := range t.sendSeq {
		if key[2] == worldRank {
			delete(t.sendSeq, key)
		}
	}
	t.mu.Unlock()
	if stale != nil {
		// Retire the connection outright rather than reviving it in place:
		// racing senders that already resolved it drop their frames
		// (old-incarnation streams), and the next send toward the rank
		// creates a fresh conn.
		stale.mu.Lock()
		stale.stopped = true
		t.dropConnLocked(stale)
		stale.mu.Unlock()
	}
	t.rdMu.Lock()
	for key := range t.streams {
		if cr, ok := commRanks[uint32(key[0])]; ok && key[1] == cr {
			delete(t.streams, key)
		}
	}
	t.rdMu.Unlock()
}

func (t *tcpTransport) recv(r int) (frame, bool) {
	if t.inboxes[r] == nil {
		return frame{}, false // remote rank of a distributed world
	}
	select {
	case f := <-t.inboxes[r]:
		t.countRecv(len(f.data))
		return f, true
	default:
	}
	select {
	case f := <-t.inboxes[r]:
		t.countRecv(len(f.data))
		return f, true
	case <-t.done:
		return frame{}, false
	}
}

// close severs every socket and waits for the accept and read loops.
// Sends are synchronous, so a send that returned success has already
// handed its frame to the kernel; a send still in flight fails into its
// retry loop, which observes done and returns ErrClosed.
func (t *tcpTransport) close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	t.conns = map[int]*tcpConn{}
	outbound := make([]net.Conn, 0, len(t.outbound))
	for c := range t.outbound {
		outbound = append(outbound, c)
	}
	t.outbound = map[net.Conn]struct{}{}
	accepted := make([]net.Conn, 0, len(t.accepted))
	for c := range t.accepted {
		accepted = append(accepted, c)
	}
	t.mu.Unlock()
	close(t.done)
	for _, ln := range t.listeners {
		if ln != nil {
			ln.Close()
		}
	}
	for _, c := range outbound {
		c.Close()
	}
	for _, c := range accepted {
		c.Close()
	}
	t.wg.Wait()
}
