package trace

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// maxAttrs bounds the inline attribute array; setters beyond it drop the
// attribute rather than allocate. The engine's "compile" span carries ten.
const maxAttrs = 10

// numShards is the lock-shard count of the flight recorder; a power of
// two so shard selection is a mask.
const numShards = 8

// DefaultCapacity is the event capacity NewRecorder(0) selects: at 496
// bytes per event the recorder then holds ~7.8 MiB, enough for several
// minutes of prefix-batch-granularity spans.
const DefaultCapacity = 16384

// Attr is one span attribute. A non-empty Str makes it a string
// attribute; otherwise it is the integer Val.
type Attr struct {
	Key string
	Str string
	Val int64
}

// Event is one completed span as stored in the flight recorder. Events
// are fixed-size values: copying one into the ring allocates nothing.
type Event struct {
	Trace  TraceID
	Span   SpanID
	Parent SpanID
	// Link references a causally related span in possibly another lease:
	// a steal lease links the victim lease it re-split.
	Link SpanContext
	Name string
	// Start is wall-clock Unix nanoseconds; Dur is the span length in
	// nanoseconds. Durations are measured on the monotonic clock when
	// both ends came from time.Now.
	Start int64
	Dur   int64
	// Lane is the visualization row (Chrome tid): worker index for fleet
	// timelines, walker goroutine index for engine spans, 0 otherwise.
	Lane   int32
	nattrs int32
	Attrs  [maxAttrs]Attr
}

// AttrList returns the populated prefix of the attribute array.
func (e *Event) AttrList() []Attr { return e.Attrs[:e.nattrs] }

// Int returns the integer attribute named key, or def when absent.
func (e *Event) Int(key string, def int64) int64 {
	for i := int32(0); i < e.nattrs; i++ {
		if e.Attrs[i].Key == key && e.Attrs[i].Str == "" {
			return e.Attrs[i].Val
		}
	}
	return def
}

// Str returns the string attribute named key, or "" when absent.
func (e *Event) Str(key string) string {
	for i := int32(0); i < e.nattrs; i++ {
		if e.Attrs[i].Key == key {
			return e.Attrs[i].Str
		}
	}
	return ""
}

// End returns the span's end time in Unix nanoseconds.
func (e *Event) End() int64 { return e.Start + e.Dur }

// shard is one lock-striped ring. next counts writes ever; the live
// window is the last min(next, len(buf)) events, so a full ring evicts
// its oldest event on every write.
type shard struct {
	mu   sync.Mutex
	buf  []Event
	next uint64
	_    [24]byte // keep neighboring shard headers off one cache line
}

// Recorder is the flight recorder: a fixed-memory, lock-sharded ring of
// completed span events, oldest-evicted. All methods are safe for
// concurrent use and safe on a nil receiver (no-ops), so callers thread
// an optional *Recorder without nil checks.
type Recorder struct {
	shards []shard
	sel    atomic.Uint64
}

// NewRecorder returns a recorder holding about capacity events
// (rounded up to a multiple of the shard count). capacity <= 0 selects
// DefaultCapacity.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	per := (capacity + numShards - 1) / numShards
	r := &Recorder{shards: make([]shard, numShards)}
	for i := range r.shards {
		r.shards[i].buf = make([]Event, per)
	}
	return r
}

// add copies one completed event into a ring shard. Shards are chosen
// round-robin so a burst from one goroutine spreads across locks.
func (r *Recorder) add(ev *Event) {
	if r == nil {
		return
	}
	sh := &r.shards[r.sel.Add(1)&(numShards-1)]
	sh.mu.Lock()
	sh.buf[sh.next%uint64(len(sh.buf))] = *ev
	sh.next++
	sh.mu.Unlock()
}

// Len reports the number of live (not yet evicted) events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	n := 0
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		if sh.next < uint64(len(sh.buf)) {
			n += int(sh.next)
		} else {
			n += len(sh.buf)
		}
		sh.mu.Unlock()
	}
	return n
}

// Evicted reports how many events have been overwritten by newer ones —
// the flight recorder's only loss mode.
func (r *Recorder) Evicted() uint64 {
	if r == nil {
		return 0
	}
	var n uint64
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		if sh.next > uint64(len(sh.buf)) {
			n += sh.next - uint64(len(sh.buf))
		}
		sh.mu.Unlock()
	}
	return n
}

// Capacity reports the total event capacity across shards.
func (r *Recorder) Capacity() int {
	if r == nil {
		return 0
	}
	n := 0
	for i := range r.shards {
		n += len(r.shards[i].buf)
	}
	return n
}

// Snapshot copies the live events out of the rings, ordered by start
// time. The copy is independent of the recorder, which keeps recording.
func (r *Recorder) Snapshot() []Event {
	if r == nil {
		return nil
	}
	out := make([]Event, 0, r.Capacity())
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		live := sh.next
		if live > uint64(len(sh.buf)) {
			live = uint64(len(sh.buf))
		}
		out = append(out, sh.buf[:live]...)
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Start < out[k].Start })
	return out
}

// SnapshotTrace is Snapshot filtered to one trace ID.
func (r *Recorder) SnapshotTrace(id TraceID) []Event {
	all := r.Snapshot()
	out := all[:0]
	for _, ev := range all {
		if ev.Trace == id {
			out = append(out, ev)
		}
	}
	return out
}

// Span is an in-flight span: a value handle whose event lives on the
// caller's stack until End copies it into the recorder. The zero Span
// (and any span started on a nil recorder) is a no-op.
type Span struct {
	rec *Recorder
	t0  time.Time
	ev  Event
}

// Start begins a span under parent. An invalid parent roots a fresh
// trace. Safe on a nil recorder: the returned no-op span still carries a
// zero context, and all its methods do nothing.
func (r *Recorder) Start(parent SpanContext, name string) Span {
	return r.StartAt(parent, name, time.Now())
}

// StartAt is Start with an explicit start time, for spans reconstructed
// from measurements taken elsewhere (worker execution windows shifted by
// the estimated clock offset, queue waits dated from enqueue time).
func (r *Recorder) StartAt(parent SpanContext, name string, start time.Time) Span {
	var s Span
	if r == nil {
		return s
	}
	s.rec = r
	s.t0 = start
	s.ev.Name = name
	s.ev.Start = start.UnixNano()
	if parent.Valid() {
		s.ev.Trace = parent.Trace
		s.ev.Parent = parent.Span
	} else {
		s.ev.Trace = NewTraceID()
	}
	s.ev.Span = NewSpanID()
	return s
}

// Context returns the span's propagation context (zero for no-op spans).
func (s *Span) Context() SpanContext {
	if s.rec == nil {
		return SpanContext{}
	}
	return SpanContext{Trace: s.ev.Trace, Span: s.ev.Span}
}

// SetInt attaches an integer attribute; past the inline capacity the
// attribute is dropped rather than allocated.
func (s *Span) SetInt(key string, v int64) {
	if s.rec == nil || s.ev.nattrs >= maxAttrs {
		return
	}
	s.ev.Attrs[s.ev.nattrs] = Attr{Key: key, Val: v}
	s.ev.nattrs++
}

// SetStr attaches a string attribute (same capacity rule as SetInt).
func (s *Span) SetStr(key, v string) {
	if s.rec == nil || s.ev.nattrs >= maxAttrs {
		return
	}
	s.ev.Attrs[s.ev.nattrs] = Attr{Key: key, Str: v}
	s.ev.nattrs++
}

// SetLane assigns the visualization row (Chrome tid).
func (s *Span) SetLane(lane int) {
	if s.rec == nil {
		return
	}
	s.ev.Lane = int32(lane)
}

// Link records a causal reference to another span (a steal lease links
// the victim lease it was re-split from).
func (s *Span) Link(sc SpanContext) {
	if s.rec == nil {
		return
	}
	s.ev.Link = sc
}

// End completes the span and records it. Idempotent: a second End is a
// no-op.
func (s *Span) End() { s.EndAt(time.Now()) }

// EndAt is End with an explicit end time (paired with StartAt).
func (s *Span) EndAt(end time.Time) {
	if s.rec == nil {
		return
	}
	d := end.Sub(s.t0)
	if d < 0 {
		d = 0
	}
	s.ev.Dur = int64(d)
	s.rec.add(&s.ev)
	s.rec = nil
}
