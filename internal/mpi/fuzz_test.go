package mpi

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"testing"
)

// FuzzFrameRoundTrip: every frame writeFrame accepts must read back
// identical through readFrame.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(uint32(0), int32(0), int32(0), uint64(0), []byte(nil))
	f.Add(uint32(1), int32(3), int32(-7), uint64(1<<40), []byte("payload"))
	f.Add(uint32(0xFFFFFFFF), int32(-1), int32(1<<30), uint64(0xFFFFFFFFFFFFFFFF), bytes.Repeat([]byte{0xAA}, 1024))
	f.Fuzz(func(t *testing.T, comm uint32, srcRank, tag int32, seq uint64, data []byte) {
		in := frame{comm: comm, srcRank: srcRank, tag: tag, seq: seq, data: data}
		var sink bytes.Buffer
		if err := writeFrame(bufio.NewWriter(&sink), in); err != nil {
			if errors.Is(err, ErrFrameTooLarge) {
				t.Skip()
			}
			t.Fatalf("writeFrame: %v", err)
		}
		out, err := readFrame(bytes.NewReader(sink.Bytes()))
		if err != nil {
			t.Fatalf("readFrame of writeFrame output: %v", err)
		}
		if out.comm != in.comm || out.srcRank != in.srcRank || out.tag != in.tag || out.seq != in.seq {
			t.Fatalf("header mismatch: %+v != %+v", out, in)
		}
		if !bytes.Equal(out.data, in.data) {
			t.Fatalf("payload mismatch: %d vs %d bytes", len(out.data), len(in.data))
		}
	})
}

// FuzzReadFrame: arbitrary bytes must never panic readFrame or make it
// allocate beyond what the stream backs; anything it does parse must
// re-encode and re-parse to the same frame.
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 3})
	// A well-formed empty-payload frame header.
	f.Add(make([]byte, 24))
	// A header claiming 2 GiB.
	f.Add(append(make([]byte, 20), 0x80, 0, 0, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		in, err := readFrame(bytes.NewReader(data))
		if err != nil {
			return // malformed input must error, not panic — fine
		}
		var sink bytes.Buffer
		if err := writeFrame(bufio.NewWriter(&sink), in); err != nil {
			t.Fatalf("re-encode of parsed frame: %v", err)
		}
		out, err := readFrame(bytes.NewReader(sink.Bytes()))
		if err != nil {
			t.Fatalf("re-parse: %v", err)
		}
		if out.comm != in.comm || out.srcRank != in.srcRank || out.tag != in.tag ||
			out.seq != in.seq || !bytes.Equal(out.data, in.data) {
			t.Fatalf("re-parse mismatch: %+v != %+v", out, in)
		}
	})
}

// FuzzReadHello: the rendezvous hello parser faces the launcher's open
// TCP port, so arbitrary bytes (port scanners, stale peers, truncated
// writes) must never panic it or make it over-allocate; every hello it
// does accept must re-encode and re-parse identically.
func FuzzReadHello(f *testing.F) {
	f.Add([]byte(nil))
	var valid bytes.Buffer
	writeHello(&valid, 3, "127.0.0.1:40404")
	f.Add(valid.Bytes())
	f.Add([]byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n"))    // wrong magic
	f.Add([]byte("DMPH\x02\x00\x00\x00\x00\x00\x04addr")) // future version
	f.Add([]byte("DMPH\x01\x00\x00\x00\x07\xff\xff"))     // lying addr length
	f.Add([]byte("DMPH\x01\xff\xff\xff\xff\x00\x01x"))    // negative rank
	f.Fuzz(func(t *testing.T, data []byte) {
		rank, addr, err := readHello(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadHello) && !errors.Is(err, io.EOF) &&
				!errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("hello parse error %v is neither ErrBadHello nor an io error", err)
			}
			return
		}
		if len(addr) == 0 || len(addr) > maxBootAddr {
			t.Fatalf("accepted address of length %d", len(addr))
		}
		var sink bytes.Buffer
		if err := writeHello(&sink, rank, addr); err != nil {
			t.Fatalf("re-encode of parsed hello: %v", err)
		}
		rank2, addr2, err := readHello(bytes.NewReader(sink.Bytes()))
		if err != nil || rank2 != rank || addr2 != addr {
			t.Fatalf("re-parse: (%d, %q, %v) != (%d, %q)", rank2, addr2, err, rank, addr)
		}
	})
}

// FuzzReadDirectory: the worker-side directory parser reads from the
// rendezvous socket; arbitrary bytes must error cleanly with bounded
// allocation, never panic or hang.
func FuzzReadDirectory(f *testing.F) {
	f.Add([]byte(nil))
	var ok bytes.Buffer
	writeDirectory(&ok, []string{"127.0.0.1:1", "127.0.0.1:2"})
	f.Add(ok.Bytes())
	var rej bytes.Buffer
	writeReject(&rej, bootStatusDuplicate, "rank 1 already registered")
	f.Add(rej.Bytes())
	f.Add([]byte("DMPD\x01\x00\xff\xff\xff\xff")) // lying entry count
	f.Fuzz(func(t *testing.T, data []byte) {
		addrs, err := readDirectory(bytes.NewReader(data))
		if err != nil {
			return // must not panic; typed-ness is covered by unit tests
		}
		if len(addrs) == 0 || len(addrs) > maxBootWorld {
			t.Fatalf("accepted directory of %d entries", len(addrs))
		}
		var sink bytes.Buffer
		if err := writeDirectory(&sink, addrs); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		addrs2, err := readDirectory(bytes.NewReader(sink.Bytes()))
		if err != nil || len(addrs2) != len(addrs) {
			t.Fatalf("re-parse: %v (%d entries, want %d)", err, len(addrs2), len(addrs))
		}
	})
}

// FuzzReadFrameBatch targets the TCP wire stream: a connection carries
// concatenated frames (appendFrame), possibly from interleaved streams,
// possibly torn mid-frame by a connection reset.
// The fuzzer builds a batch from the input spec and checks three
// properties: (1) the whole batch reads back frame-for-frame identical;
// (2) a batch torn at any byte offset parses exactly its fully-contained
// frame prefix, then fails with an io error — never a wrong frame, never
// a panic; (3) a batch with one corrupted byte (lying length, broken
// header, flipped payload) never panics the parser or makes it run away.
func FuzzReadFrameBatch(f *testing.F) {
	f.Add([]byte(nil), uint16(0))
	// Two small frames on one stream, torn inside the second header.
	f.Add([]byte{0, 3, 0, 1, 0, 3, 0, 2}, uint16(30))
	// Four interleaved streams, cut on a frame boundary.
	f.Add([]byte{0, 1, 0, 9, 1, 1, 0, 9, 2, 1, 0, 9, 3, 1, 0, 9}, uint16(50))
	// A zero-payload frame followed by a near-threshold one.
	f.Add([]byte{1, 0, 0, 5, 2, 255, 3, 6}, uint16(999))
	f.Fuzz(func(t *testing.T, spec []byte, cut uint16) {
		// Decode spec into frames over four interleaved streams: each
		// 4-byte descriptor is (stream, payload-len-lo, payload-len-hi,
		// tag). seq is per-stream, as the transport assigns it.
		var frames []frame
		var batch []byte
		var ends []int // batch offset where each frame's bytes end
		seqs := map[byte]uint64{}
		for i := 0; i+4 <= len(spec) && len(frames) < 32; i += 4 {
			stream := spec[i] & 3
			plen := (int(spec[i+1]) | int(spec[i+2])<<8) & 0x3FF
			fr := frame{
				comm:    uint32(stream >> 1),
				srcRank: int32(stream & 1),
				tag:     int32(spec[i+3]),
				seq:     seqs[stream],
				data:    bytes.Repeat([]byte{spec[i+3] ^ byte(i)}, plen),
			}
			seqs[stream]++
			frames = append(frames, fr)
			batch = appendFrame(batch, fr)
			ends = append(ends, len(batch))
		}
		// (1) Whole-batch round trip.
		r := bufio.NewReader(bytes.NewReader(batch))
		for idx, want := range frames {
			got, err := readFrame(r)
			if err != nil {
				t.Fatalf("frame %d of complete batch: %v", idx, err)
			}
			if got.comm != want.comm || got.srcRank != want.srcRank ||
				got.tag != want.tag || got.seq != want.seq || !bytes.Equal(got.data, want.data) {
				t.Fatalf("frame %d mismatch: %+v != %+v", idx, got, want)
			}
		}
		if _, err := readFrame(r); !errors.Is(err, io.EOF) {
			t.Fatalf("after complete batch: %v, want EOF", err)
		}
		// (2) Torn batch: exactly the fully-contained prefix parses.
		cutAt := int(cut) % (len(batch) + 1)
		wantFrames := 0
		for _, e := range ends {
			if e <= cutAt {
				wantFrames++
			}
		}
		tr := bufio.NewReader(bytes.NewReader(batch[:cutAt]))
		gotFrames := 0
		for {
			got, err := readFrame(tr)
			if err != nil {
				if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
					t.Fatalf("torn batch at %d: %v, want an io error", cutAt, err)
				}
				break
			}
			want := frames[gotFrames]
			if got.comm != want.comm || got.seq != want.seq || !bytes.Equal(got.data, want.data) {
				t.Fatalf("torn batch frame %d mismatch: %+v != %+v", gotFrames, got, want)
			}
			gotFrames++
		}
		if gotFrames != wantFrames {
			t.Fatalf("torn batch at %d parsed %d frames, want %d", cutAt, gotFrames, wantFrames)
		}
		// (3) One corrupted byte: bounded parse, no panic. A flipped
		// length byte is a lying header; the parser must stop at an
		// error or the stream's end without over-reading.
		if len(batch) > 0 {
			mutated := append([]byte(nil), batch...)
			mutated[int(cut)%len(mutated)] ^= 0xFF
			mr := bufio.NewReader(bytes.NewReader(mutated))
			for i := 0; i <= len(frames); i++ {
				g, err := readFrame(mr)
				if err != nil {
					break // any error ends the connection; must not panic
				}
				if int64(len(g.data)) > maxFrameSize {
					t.Fatalf("corrupted batch yielded %d-byte payload past the cap", len(g.data))
				}
			}
		}
	})
}

// FuzzReadFrameStream: a stream of arbitrary bytes, read as consecutive
// frames the way readLoop does, terminates (no infinite loop on a stuck
// parser) and stops at the first malformed frame.
func FuzzReadFrameStream(f *testing.F) {
	f.Add([]byte(nil))
	var two bytes.Buffer
	w := bufio.NewWriter(&two)
	writeFrame(w, frame{comm: 1, tag: 2, data: []byte("a")})
	writeFrame(w, frame{comm: 1, tag: 3, seq: 1, data: []byte("bb")})
	f.Add(two.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		for i := 0; i < 1<<16; i++ {
			if _, err := readFrame(r); err != nil {
				if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
					errors.Is(err, ErrFrameTooLarge) {
					return
				}
				return // any parse error ends the connection; must not panic
			}
		}
		t.Fatal("65536 frames from a fuzz input: runaway parse")
	})
}

// appendFrame serializes f (header + payload) onto b: the exact bytes the
// transport's vectored write puts on the wire for one frame.
func appendFrame(b []byte, f frame) []byte {
	var hdr [frameHeaderSize]byte
	putFrameHeader(hdr[:], f)
	b = append(b, hdr[:]...)
	return append(b, f.data...)
}
