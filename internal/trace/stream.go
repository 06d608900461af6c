package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
)

// ChunkStream is a replayable handle on a chunked trace file. Opening
// one scans only the chunk headers (seeking over payloads), so the
// handle knows the trace's totals without reading the data; each Replay
// then streams the file through ReplayReader's prefetch pipeline at a
// memory bound of two chunks regardless of trace size.
//
// A ChunkStream holds no open file descriptor; each Replay opens its
// own, so one handle may be replayed from any number of goroutines
// concurrently (the paper's one-trace-many-policies discipline).
type ChunkStream struct {
	path        string
	sizeBytes   int64
	events      int64
	chunks      int
	fingerprint uint64
}

// OpenChunkStream opens path as a chunked trace, validating the magic
// and every chunk header (index order, payload bounds, fingerprint
// consistency, no truncation). Payload CRCs are verified during replay,
// when the data is read anyway. Errors name the path; a file that is
// not a chunked trace fails with ErrBadChunkMagic.
func OpenChunkStream(path string) (*ChunkStream, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	s := &ChunkStream{path: path, sizeBytes: st.Size()}
	cr := NewChunkReader(f)
	for {
		h, err := cr.nextHeader()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		end, err := f.Seek(int64(h.plen), io.SeekCurrent)
		if err != nil {
			return nil, err
		}
		if end > s.sizeBytes {
			return nil, fmt.Errorf("%s: trace: chunk %d: truncated payload (file ends %d bytes short)", path, cr.chunks, end-s.sizeBytes)
		}
		cr.advance(h)
	}
	s.events, s.chunks, s.fingerprint = cr.events, cr.chunks, cr.fingerprint
	return s, nil
}

// Path reports the file the stream replays from.
func (s *ChunkStream) Path() string { return s.path }

// Len reports the total number of events in the trace.
func (s *ChunkStream) Len() int64 { return s.events }

// Chunks reports the number of chunks in the trace.
func (s *ChunkStream) Chunks() int { return s.chunks }

// Fingerprint reports the generating configuration's fingerprint stamped
// in the chunk headers (0 for an empty trace).
func (s *ChunkStream) Fingerprint() uint64 { return s.fingerprint }

// SizeBytes reports the on-disk size of the trace file.
func (s *ChunkStream) SizeBytes() int64 { return s.sizeBytes }

// Replay streams every event in the file into sink in recording order.
func (s *ChunkStream) Replay(sink Sink) error { return s.ReplayHook(sink, -1, nil) }

// ReplayHook streams every event into sink, invoking hook once after
// exactly `at` events have been delivered (a negative at or nil hook
// disables the callback), with the same semantics as Frozen.ReplayHook.
func (s *ChunkStream) ReplayHook(sink Sink, at int64, hook func()) error {
	f, err := os.Open(s.path)
	if err != nil {
		return err
	}
	defer f.Close()
	n, err := ReplayReader(f, sink, at, hook)
	if err != nil {
		return err
	}
	if n != s.events {
		return fmt.Errorf("trace: %s: replay delivered %d events, header scan counted %d (file changed since open?)", s.path, n, s.events)
	}
	return nil
}

// ReplayReader streams a chunked trace from r into sink and, on success,
// reports the number of events delivered. Reading, CRC verification, and columnar
// decoding of chunk N+1 proceed on a prefetch goroutine while the
// caller's sink drains chunk N, so memory is bounded by two chunks. The
// hook fires after exactly `at` events, as in Frozen.ReplayHook. A
// stream that is not a chunked trace fails with ErrBadChunkMagic; no
// goroutine reads r after ReplayReader returns.
func ReplayReader(r io.Reader, sink Sink, at int64, hook func()) (int64, error) {
	cr := NewChunkReader(bufio.NewReaderSize(r, 1<<20))

	// Two chunk slots rotate between the prefetcher and the drain loop.
	decoded := make(chan *Chunk)
	free := make(chan *Chunk, 2)
	free <- new(Chunk)
	free <- new(Chunk)
	stop := make(chan struct{})
	readErr := make(chan error, 1)
	go func() {
		defer close(decoded)
		for {
			var c *Chunk
			select {
			case c = <-free:
			case <-stop:
				return
			}
			if err := cr.Next(c); err != nil {
				if !errors.Is(err, io.EOF) {
					readErr <- err
				}
				return
			}
			select {
			case decoded <- c:
			case <-stop:
				return
			}
		}
	}()

	p := startPass(sink, at, hook)
	var sinkErr error
	for c := range decoded {
		if sinkErr = p.drain(c); sinkErr != nil {
			break
		}
		free <- c // cap 2 and only two slots exist: never blocks
	}
	close(stop)
	for range decoded {
		// Wait out the prefetcher so it never touches r after return.
	}
	if sinkErr != nil {
		return 0, sinkErr
	}
	select {
	case err := <-readErr:
		return 0, err
	default:
	}
	return p.delivered, nil
}

// AsyncWriter pipelines writes to an underlying stream through a
// background goroutine: Write copies p into a recycled buffer and
// returns as soon as the copy is queued, so a producer (trace
// generation, chunk encoding) overlaps with file I/O. Memory is bounded
// by the buffer pool. Close waits for all queued writes and reports the
// first write error; Write reports a prior asynchronous error on a later
// call.
type AsyncWriter struct {
	queue chan []byte
	pool  chan []byte
	done  chan struct{}
	err   error // written by the worker before done closes
}

// NewAsyncWriter returns an AsyncWriter over w with depth recycled
// buffers (depth <= 0 selects 2).
func NewAsyncWriter(w io.Writer, depth int) *AsyncWriter {
	if depth <= 0 {
		depth = 2
	}
	a := &AsyncWriter{
		queue: make(chan []byte, depth),
		pool:  make(chan []byte, depth),
		done:  make(chan struct{}),
	}
	for i := 0; i < depth; i++ {
		a.pool <- nil
	}
	go func() {
		defer close(a.done)
		for buf := range a.queue {
			if a.err == nil {
				if _, err := w.Write(buf); err != nil {
					a.err = err
				}
			}
			a.pool <- buf
		}
	}()
	return a
}

// Write implements io.Writer. The data is copied before Write returns,
// so the caller may immediately reuse p.
func (a *AsyncWriter) Write(p []byte) (int, error) {
	select {
	case <-a.done:
		return 0, fmt.Errorf("trace: write after Close of AsyncWriter")
	default:
	}
	buf := <-a.pool
	buf = append(buf[:0], p...)
	a.queue <- buf
	return len(p), nil
}

// Close drains the queue, stops the worker, and returns the first error
// any asynchronous write hit. It does not close the underlying stream.
func (a *AsyncWriter) Close() error {
	close(a.queue)
	<-a.done
	return a.err
}

// parseChunkHeader decodes and validates one chunk header against the
// expected index and (for chunks past the first) fingerprint.
type chunkHeader struct {
	events, plen, index, crc uint32
	fp                       uint64
}

func parseChunkHeader(hdr [chunkHeaderSize]byte, expectIndex int, expectFP uint64) (chunkHeader, error) {
	h := chunkHeader{
		events: binary.LittleEndian.Uint32(hdr[0:4]),
		plen:   binary.LittleEndian.Uint32(hdr[4:8]),
		index:  binary.LittleEndian.Uint32(hdr[8:12]),
		crc:    binary.LittleEndian.Uint32(hdr[12:16]),
		fp:     binary.LittleEndian.Uint64(hdr[16:24]),
	}
	switch {
	case h.index != uint32(expectIndex):
		return h, fmt.Errorf("trace: chunk %d: header names chunk %d (missing or reordered chunk)", expectIndex, h.index)
	case h.plen > maxChunkPayload:
		return h, fmt.Errorf("trace: chunk %d: implausible payload length %d", expectIndex, h.plen)
	case expectIndex > 0 && h.fp != expectFP:
		return h, fmt.Errorf("trace: chunk %d: fingerprint %#016x differs from chunk 0's %#016x (mixed trace files?)", expectIndex, h.fp, expectFP)
	}
	return h, nil
}
