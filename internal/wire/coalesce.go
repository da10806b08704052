package wire

import (
	"errors"
	"io"
	"net"
	"sync"
)

// ErrWriterBroken reports that a previous flush left the stream in an
// undefined state (a partial frame reached the peer), so no further
// frames may be written on this connection.
var ErrWriterBroken = errors.New("wire: writer broken by partial flush")

// FlushObserver receives one callback per flush with the number of
// frames and bytes the single Write carried. Implementations must be
// goroutine-safe and cheap (the callback runs on the flush path).
type FlushObserver func(frames int, bytes int)

// extSeg is one external payload segment spliced into a flush at byte
// offset off of the encode buffer: the zero-copy tail of a frame written
// with WriteFrameExt. release fires once the flush attempt carrying the
// segment has completed (or the queued frames are abandoned), ending
// the caller's lease on b.
type extSeg struct {
	off     int
	b       []byte
	release func()
}

// CoalescedWriter turns per-frame writes from many goroutines into
// group-committed flushes. A caller that finds no flush in progress is
// its own flusher: it encodes its frame into a pooled buffer and issues
// the Write itself — nothing allocated. A caller that arrives while a
// flush is on the wire encodes into a shared pending buffer and returns
// at once; the active flusher drains that buffer with one Write per
// batch before it gives up the role. Under concurrency the syscall
// count amortizes across the batch (writev-style without the iovec
// plumbing); a lone caller pays one mutex pair over a bare Write.
//
// A queued caller does not wait for the flush that will carry its
// frame, because on a connection the flusher may be blocked on the
// peer, and the peer on the queued caller: an RPC client's caller and
// a server connection's reader have to go back to reading. So a write
// call reports the error of a flush it made itself, and only that one;
// a frame queued behind a flush that fails is lost without a word, and
// the connection's owner learns of the dead stream from the stream.
// Either way f and its payload are free again when the call returns;
// only an ext segment stays leased, until its release fires.
//
// The writer never sets a deadline on the connection: a Write that must
// be bounded is bounded by whoever owns the connection (rpc.Client arms
// one only when a flush is stuck past a pending call's deadline).
type CoalescedWriter struct {
	w  io.Writer
	ob FlushObserver // nil = no instrumentation

	mu         sync.Mutex
	pend       *Buf     // frames queued behind the active flusher (nil = none)
	segs       []extSeg // external segments spliced into pend's frames
	pendFrames int      // frames in pend
	flushing   bool     // a flusher is active (owns the scratch below)
	flushes    uint64   // flushes started, the one in flight included
	broken     bool     // a partial flush corrupted the stream

	// Scratch of whichever caller holds flushing — only one flusher
	// exists at a time, so no lock is needed around it. solo carries the
	// flusher's own external segment, vec backs the vectored write, and
	// bufs is the net.Buffers header WriteTo consumes (a field, because
	// WriteTo's pointer receiver would force a local one to the heap).
	solo [1]extSeg
	vec  [][]byte
	bufs net.Buffers
}

// NewCoalescedWriter wraps w. The observer may be nil.
func NewCoalescedWriter(w io.Writer, ob FlushObserver) *CoalescedWriter {
	return &CoalescedWriter{w: w, ob: ob}
}

// WriteFrame writes f: as the flusher, it returns once its flush — and
// the flushes of every frame that queued behind it meanwhile — are
// done, with its own flush's error; behind another flusher, once f is
// queued, with nil.
func (cw *CoalescedWriter) WriteFrame(f *Frame) error {
	return cw.WriteFrameExt(f, nil, nil)
}

// WriteFrameExt is WriteFrame for a frame whose payload tail lives
// outside the encode buffer: the frame's declared length covers
// f.Payload plus ext, f.Payload (the head) is copied into the buffer,
// and ext is spliced in at flush time without copying — the zero-copy
// path a leased RAM-tier read rides.
//
// release (which may be nil) is invoked exactly once, after the flush
// attempt carrying the frame finishes — success, error, or abandonment
// on an already-broken writer — ending the caller's lease on ext. It
// runs on the flusher's goroutine and must be cheap, non-blocking, and
// must not call back into this writer.
func (cw *CoalescedWriter) WriteFrameExt(f *Frame, ext []byte, release func()) error {
	hasExt := ext != nil || release != nil
	cw.mu.Lock()
	if cw.broken {
		cw.mu.Unlock()
		if release != nil {
			release()
		}
		return ErrWriterBroken
	}
	if cw.flushing {
		// A flusher is on the wire; it picks this frame up in its drain
		// loop before it gives up the role.
		if cw.pend == nil {
			cw.pend = acquireBuf(0)
		}
		if hasExt {
			cw.pend.b = appendFrameHead(cw.pend.b, f, len(ext))
			cw.segs = append(cw.segs, extSeg{off: len(cw.pend.b), b: ext, release: release})
		} else {
			cw.pend.b = AppendFrame(cw.pend.b, f)
		}
		cw.pendFrames++
		cw.mu.Unlock()
		return nil
	}
	// No flusher means nothing is queued either (a flusher drains before
	// it leaves), so this frame travels alone, encoded outside the lock.
	cw.flushing = true
	cw.flushes++
	cw.mu.Unlock()

	buf := acquireBuf(0)
	buf.b = appendFrameHead(buf.b, f, len(ext))
	var segs []extSeg
	if hasExt {
		cw.solo[0] = extSeg{off: len(buf.b), b: ext, release: release}
		segs = cw.solo[:]
	}
	own := cw.flush(buf.b, segs, 1)
	releaseSegs(segs)
	cw.solo[0] = extSeg{}
	buf.Release()

	cw.mu.Lock()
	for last := own; ; {
		if last != nil && brokenByFlush(last) {
			cw.broken = true
			// Drop everything that queued behind the corrupting flush:
			// its bytes must never reach the wire. Queued external
			// leases are released — abandoned, not written.
			if cw.pend != nil {
				cw.pend.Release()
				releaseSegs(cw.segs)
				cw.pend, cw.segs, cw.pendFrames = nil, nil, 0
			}
		}
		if cw.pend == nil {
			break
		}
		qbuf, qsegs, frames := cw.pend, cw.segs, cw.pendFrames
		cw.pend, cw.segs, cw.pendFrames = nil, nil, 0
		cw.flushes++
		cw.mu.Unlock()

		last = cw.flush(qbuf.b, qsegs, frames)
		releaseSegs(qsegs)
		qbuf.Release()

		cw.mu.Lock()
	}
	cw.flushing = false
	cw.mu.Unlock()
	return own
}

// Flushing reports whether a flush is in flight, and its ordinal among
// the flushes this writer has started. Two calls that both report busy
// with the same ordinal bracket one Write that did not return in
// between — how the connection's owner tells a blocked Write from a
// busy writer.
func (cw *CoalescedWriter) Flushing() (flush uint64, busy bool) {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	return cw.flushes, cw.flushing
}

// releaseSegs ends the leases of a batch's external segments.
func releaseSegs(segs []extSeg) {
	for i := range segs {
		if segs[i].release != nil {
			segs[i].release()
		}
	}
}

// flush issues the write for one batch. A batch without external
// segments leaves in a single Write call; one with segments leaves as a
// vectored write (net.Buffers — writev on TCP conns, sequential writes
// elsewhere) that interleaves encode-buffer spans with the spliced
// segments. Runs with flushing held (no lock).
func (cw *CoalescedWriter) flush(buf []byte, segs []extSeg, frames int) error {
	var n int64
	var err error
	total := len(buf)
	if len(segs) == 0 {
		var ni int
		ni, err = cw.w.Write(buf)
		n = int64(ni)
	} else {
		vec := cw.vec[:0]
		prev := 0
		for i := range segs {
			if segs[i].off > prev {
				vec = append(vec, buf[prev:segs[i].off])
				prev = segs[i].off
			}
			if len(segs[i].b) > 0 {
				vec = append(vec, segs[i].b)
				total += len(segs[i].b)
			}
		}
		if prev < len(buf) {
			vec = append(vec, buf[prev:])
		}
		cw.vec, cw.bufs = vec, vec
		n, err = cw.bufs.WriteTo(cw.w)
		clear(vec) // the scratch must not pin leased segments past the flush
	}
	if cw.ob != nil {
		cw.ob(frames, total)
	}
	if err != nil && n > 0 && n < int64(total) {
		// A prefix reached the peer: the stream is mid-frame and every
		// further byte would be parsed as garbage.
		return &partialFlushError{err: err}
	}
	return err
}

// partialFlushError marks a flush that wrote a strict prefix of its
// batch — the condition that permanently corrupts the framing.
type partialFlushError struct{ err error }

func (e *partialFlushError) Error() string { return "wire: partial flush: " + e.err.Error() }
func (e *partialFlushError) Unwrap() error { return e.err }

// brokenByFlush reports whether a flush error corrupted the stream.
func brokenByFlush(err error) bool {
	var p *partialFlushError
	return errors.As(err, &p)
}
