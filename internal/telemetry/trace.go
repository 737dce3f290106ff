package telemetry

import (
	"sync"
	"time"
)

// A Tracer retains the most recent traces in a fixed ring. Traces are
// inserted at Start so in-flight requests are visible at /tracez;
// Finish marks them done with an outcome.
type Tracer struct {
	mu    sync.Mutex
	ring  []*Trace
	next  int
	seq   uint64
	total uint64
}

// NewTracer builds a tracer retaining the last capacity traces
// (minimum 1).
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{ring: make([]*Trace, 0, capacity)}
}

// Start opens a trace for one request. Nil-safe: a nil tracer returns
// a nil trace, whose span methods all no-op — the disabled-telemetry
// fast path costs one nil check per call site.
func (t *Tracer) Start(proto, path string) *Trace {
	tr := t.Open(proto, path)
	t.Publish(tr)
	return tr
}

// Open is Start without the ring: the trace takes spans like any
// other, but it has no id, is not counted and appears nowhere until
// Publish. It is for a request that may yet be handed to someone else
// unanswered — the attempt then simply drops its trace, and the one
// who does answer starts a trace of their own.
func (t *Tracer) Open(proto, path string) *Trace {
	if t == nil {
		return nil
	}
	return &Trace{proto: proto, path: path, start: time.Now()}
}

// Publish enters an Open trace into the ring. Call it at most once per
// trace.
func (t *Tracer) Publish(tr *Trace) {
	if t == nil || tr == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	t.total++
	tr.id = t.seq
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, tr)
		return
	}
	t.ring[t.next] = tr
	t.next = (t.next + 1) % cap(t.ring)
}

// Total reports how many traces were ever started.
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Snapshot returns the retained traces, oldest first.
func (t *Tracer) Snapshot() []TraceSnapshot {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	traces := make([]*Trace, 0, len(t.ring))
	traces = append(traces, t.ring[t.next:]...)
	traces = append(traces, t.ring[:t.next]...)
	t.mu.Unlock()
	out := make([]TraceSnapshot, 0, len(traces))
	for _, tr := range traces {
		out = append(out, tr.snapshot())
	}
	return out
}

// A Span is one recorded stage of a trace: offset from the trace
// start, duration (zero for point annotations), and an optional note
// ("hit", "gen=basic|img|txt", a shed reason).
type Span struct {
	Stage string        `json:"stage"`
	Start time.Duration `json:"start"`
	Dur   time.Duration `json:"dur"`
	Note  string        `json:"note,omitempty"`
}

// A Trace follows one request through the serving stages. All methods
// are nil-safe and safe for concurrent use (generation spans may be
// recorded from singleflight goroutines).
type Trace struct {
	id    uint64
	proto string
	path  string
	start time.Time

	mu      sync.Mutex
	spans   []Span
	outcome string
	end     time.Time
	done    bool
}

// Note records a zero-duration annotation span.
func (tr *Trace) Note(stage, note string) {
	if tr == nil {
		return
	}
	off := time.Since(tr.start)
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans = append(tr.spans, Span{Stage: stage, Start: off, Note: note})
}

// StartSpan opens a timed stage; close it with End or EndNote.
func (tr *Trace) StartSpan(stage string) *SpanTimer {
	if tr == nil {
		return nil
	}
	return &SpanTimer{tr: tr, stage: stage, start: time.Now()}
}

// A SpanTimer is an open stage of a trace.
type SpanTimer struct {
	tr    *Trace
	stage string
	start time.Time
}

// End closes the span.
func (sp *SpanTimer) End() { sp.EndNote("") }

// EndNote closes the span with an annotation.
func (sp *SpanTimer) EndNote(note string) {
	if sp == nil {
		return
	}
	tr := sp.tr
	span := Span{
		Stage: sp.stage,
		Start: sp.start.Sub(tr.start),
		Dur:   time.Since(sp.start),
		Note:  note,
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans = append(tr.spans, span)
}

// Finish closes the trace with its outcome ("prompt", "cached",
// "traditional", "policy-flip", "shed", "asset", ...). Repeated calls
// keep the first outcome.
func (tr *Trace) Finish(outcome string) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.done {
		return
	}
	tr.done = true
	tr.outcome = outcome
	tr.end = time.Now()
}

// Outcome returns the recorded outcome ("" while in flight).
func (tr *Trace) Outcome() string {
	if tr == nil {
		return ""
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.outcome
}

// Duration returns the total wall time (so far, if unfinished).
func (tr *Trace) Duration() time.Duration {
	if tr == nil {
		return 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.done {
		return tr.end.Sub(tr.start)
	}
	return time.Since(tr.start)
}

// TraceSnapshot is the immutable view of one trace.
type TraceSnapshot struct {
	ID      uint64        `json:"id"`
	Proto   string        `json:"proto"`
	Path    string        `json:"path"`
	Start   time.Time     `json:"start"`
	Total   time.Duration `json:"total"`
	Outcome string        `json:"outcome"`
	Done    bool          `json:"done"`
	Spans   []Span        `json:"spans"`
}

func (tr *Trace) snapshot() TraceSnapshot {
	if tr == nil {
		return TraceSnapshot{}
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	total := time.Since(tr.start)
	if tr.done {
		total = tr.end.Sub(tr.start)
	}
	return TraceSnapshot{
		ID:      tr.id,
		Proto:   tr.proto,
		Path:    tr.path,
		Start:   tr.start,
		Total:   total,
		Outcome: tr.outcome,
		Done:    tr.done,
		Spans:   append([]Span(nil), tr.spans...),
	}
}
