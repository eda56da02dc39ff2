package obs

import (
	"bytes"
	"sync"
)

// Ring is the telemetry plane's one bounded buffer: it keeps the last N
// values pushed and evicts the oldest first. Every value pushed is
// numbered 1, 2, 3, …, so a poller can ask for everything after the last
// number it saw and notice when the ring lapped it. The
// event ring, the flight recorder, the rolling latency windows and the
// span store's retention classes are all Rings, and Since is the one
// read path over each of them. Nil is the off switch: Push and Delete
// no-op and the reads return nothing on a nil receiver.
type Ring[T any] struct {
	mu  sync.Mutex
	buf []T
	n   int    // values retained, ≤ len(buf)
	seq uint64 // number of the newest value; value k lives at buf[(k-1)%len(buf)]
}

// NewRing returns a ring keeping the last capacity values (capacity <= 0
// defaults to 256).
func NewRing[T any](capacity int) *Ring[T] {
	if capacity <= 0 {
		capacity = 256
	}
	return &Ring[T]{buf: make([]T, capacity)}
}

// Push appends v and returns the value it evicted to make room, if the
// ring was full.
func (r *Ring[T]) Push(v T) (old T, evicted bool) {
	if r == nil {
		return old, false
	}
	r.mu.Lock()
	i := r.seq % uint64(len(r.buf))
	old, evicted = r.buf[i], r.n == len(r.buf)
	r.buf[i] = v
	r.seq++
	if !evicted {
		r.n++
	}
	r.mu.Unlock()
	return old, evicted
}

// Delete removes the retained values del reports true for and keeps the
// rest in order. The values after a removed one are renumbered down, so
// Delete suits only a ring nobody polls by number.
func (r *Ring[T]) Delete(del func(T) bool) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := uint64(len(r.buf))
	w := r.seq - uint64(r.n)
	for k := w; k < r.seq; k++ {
		if v := r.buf[k%n]; !del(v) {
			r.buf[w%n] = v
			w++
		}
	}
	var zero T
	for k := w; k < r.seq; k++ {
		r.buf[k%n] = zero
	}
	r.n -= int(r.seq - w)
	r.seq = w
}

// Since returns a copy of the retained values numbered after seq, oldest
// first, and the number of the first one. Since(0) is everything
// retained. The slice is empty but not nil on a live ring, so it
// marshals as [] rather than null.
func (r *Ring[T]) Since(seq uint64) (vals []T, first uint64) {
	if r == nil {
		return nil, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := uint64(len(r.buf))
	from := max(seq, r.seq-uint64(r.n))
	vals = make([]T, 0, r.seq-min(from, r.seq))
	for k := from; k < r.seq; k++ {
		vals = append(vals, r.buf[k%n])
	}
	return vals, from + 1
}

// Seq returns the number of the newest value — how many were ever
// pushed, on a ring nothing was deleted from — which a poller passes
// back to Since.
func (r *Ring[T]) Seq() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// maxLineFrag bounds how much of an unterminated trailing line a
// lineWriter buffers while waiting for the next chunk's newline — a
// backstop against a writer that never terminates a line.
const maxLineFrag = 1 << 20

// lineWriter is the one line splitter: an io.Writer that hands each
// complete, non-empty line of a JSONL stream to fn, without its newline,
// as a copy fn may keep. A trailing chunk without its newline is held
// until a later Write delivers the rest, so a chunked upstream writer
// never gets a truncated line recorded. Each stream needs its own
// lineWriter: the held chunk belongs to the stream that wrote it. Write
// always reports len(p) consumed so a Fanout never detaches it.
type lineWriter struct {
	mu   sync.Mutex
	frag []byte
	fn   func(line []byte)
}

func (w *lineWriter) Write(p []byte) (int, error) {
	total := len(p)
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.frag) > 0 {
		p = append(w.frag, p...)
		w.frag = nil
	}
	for len(p) > 0 {
		nl := bytes.IndexByte(p, '\n')
		if nl < 0 {
			if len(p) <= maxLineFrag {
				w.frag = bytes.Clone(p)
			}
			break
		}
		if nl > 0 {
			w.fn(bytes.Clone(p[:nl]))
		}
		p = p[nl+1:]
	}
	return total, nil
}
