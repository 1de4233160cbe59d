package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"strings"
	"sync"
	"time"
)

// SpanSink receives every finished span's duration; *Registry implements it
// by aggregating into the per-stage histogram family.  A sink must be safe
// for concurrent use.
type SpanSink interface {
	ObserveSpan(name string, d time.Duration)
}

// SpanExemplarSink is optionally implemented by a SpanSink that can attach a
// trace-ID exemplar to the stage observation.  Span.End uses it only when the
// bound trace carries a trace ID, so library calls without trace identity pay
// the plain ObserveSpan path.
type SpanExemplarSink interface {
	ObserveSpanExemplar(name string, d time.Duration, traceID string)
}

// binding is what a context carries: an optional per-request trace and an
// optional aggregation sink.  One context key for both keeps StartSpan at a
// single context lookup.
type binding struct {
	tr   *Trace
	sink SpanSink
}

type bindingKey struct{}

// With returns a context carrying the trace and sink; either may be nil.
// The serving layer binds both per request; library callers usually rely on
// core binding the system registry via EnsureSink.
func With(ctx context.Context, tr *Trace, sink SpanSink) context.Context {
	return context.WithValue(ctx, bindingKey{}, binding{tr: tr, sink: sink})
}

// EnsureSink returns ctx unchanged when it already carries a span sink, and
// otherwise binds sink (keeping any trace already present).  It lets the
// core pipeline guarantee stage histograms are fed even when called as a
// library, without double-wrapping contexts arriving from the HTTP layer.
func EnsureSink(ctx context.Context, sink SpanSink) context.Context {
	b, _ := ctx.Value(bindingKey{}).(binding)
	if b.sink != nil {
		return ctx
	}
	b.sink = sink
	return context.WithValue(ctx, bindingKey{}, b)
}

// TraceFrom returns the per-request trace bound to ctx, or nil.
func TraceFrom(ctx context.Context) *Trace {
	b, _ := ctx.Value(bindingKey{}).(binding)
	return b.tr
}

// Span is one in-flight timed region.  The zero Span (from an unbound
// context) is valid and End/SetAttr are no-ops, so instrumented code needs no
// branches.
type Span struct {
	name  string
	start time.Time
	b     binding
	attrs []Attr
}

// Attr is one span attribute: a small key/value annotation (e.g. the peer a
// failover attempt targeted and how it answered).
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// StartSpan begins a span named name (e.g. "impute.predict").  When ctx
// carries no trace and no sink the returned Span does nothing.
func StartSpan(ctx context.Context, name string) *Span {
	b, _ := ctx.Value(bindingKey{}).(binding)
	if b.tr == nil && b.sink == nil {
		return &Span{}
	}
	return &Span{name: name, start: time.Now(), b: b}
}

// SetAttr annotates the span.  Attributes ride into the trace's SpanRecord;
// the aggregated stage histograms ignore them (unbounded cardinality).
func (s *Span) SetAttr(key, value string) {
	if s.name == "" {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// End finishes the span: its duration is aggregated into the sink's stage
// histogram and appended to the request trace, when either is present.
func (s *Span) End() {
	if s.name == "" {
		return
	}
	d := time.Since(s.start)
	if s.b.sink != nil {
		if tid := s.traceID(); tid != "" {
			if es, ok := s.b.sink.(SpanExemplarSink); ok {
				es.ObserveSpanExemplar(s.name, d, tid)
			} else {
				s.b.sink.ObserveSpan(s.name, d)
			}
		} else {
			s.b.sink.ObserveSpan(s.name, d)
		}
	}
	if s.b.tr != nil {
		s.b.tr.add(s.name, s.start, d, s.attrs)
	}
}

func (s *Span) traceID() string {
	if s.b.tr == nil {
		return ""
	}
	return s.b.tr.TraceID
}

// Observer returns a callback recording (stage, duration) observations
// against ctx's trace and sink, or nil when ctx carries neither — letting
// hot loops skip timing entirely when nobody is watching.  The duration is
// assumed to have just elapsed, so the span's start is back-dated by d.
func Observer(ctx context.Context) func(stage string, d time.Duration) {
	b, _ := ctx.Value(bindingKey{}).(binding)
	if b.tr == nil && b.sink == nil {
		return nil
	}
	return func(stage string, d time.Duration) {
		if b.sink != nil {
			if b.tr != nil && b.tr.TraceID != "" {
				if es, ok := b.sink.(SpanExemplarSink); ok {
					es.ObserveSpanExemplar(stage, d, b.tr.TraceID)
				} else {
					b.sink.ObserveSpan(stage, d)
				}
			} else {
				b.sink.ObserveSpan(stage, d)
			}
		}
		if b.tr != nil {
			b.tr.add(stage, time.Now().Add(-d), d, nil)
		}
	}
}

// maxTraceSpans caps one request's recorded spans; a beam search over many
// gaps can emit hundreds.  Beyond the cap only aggregates are kept.
const maxTraceSpans = 256

// SpanRecord is one finished span, offsets relative to the trace start.
type SpanRecord struct {
	Name  string
	Start time.Duration // offset from trace start
	Dur   time.Duration
	Attrs []Attr // optional annotations (failover attempts, outcomes, ...)
}

// StageSummary aggregates every span of one name within a trace.
type StageSummary struct {
	Name  string
	Count int
	Total time.Duration
}

// Trace records the spans of one request and carries its distributed
// identity.  It is safe for concurrent use (a batch request's items may be
// traced in sequence or parallel).  The ID fields are set at construction and
// never mutated afterwards, so they are readable without the lock.
type Trace struct {
	// TraceID is the 32-hex request identity shared by every hop of one
	// distributed request; empty on identity-less traces (NewTrace).
	TraceID string
	// SpanID is this hop's own 16-hex identity, the ParentSpanID of any hop
	// this node forwards to.
	SpanID string
	// ParentSpanID is the upstream hop's SpanID, empty at the trace root.
	ParentSpanID string
	// Sampled is the head-sampling decision, inherited across hops via the
	// traceparent flags so one decision governs the whole distributed trace.
	Sampled bool

	start   time.Time
	mu      sync.Mutex
	spans   []SpanRecord
	dropped int
	totals  map[string]*StageSummary
	order   []string
}

// NewTrace starts an empty identity-less trace clocked from now — the
// bench-harness recorder.  Serving paths use NewRootTrace /
// NewChildTrace so the trace participates in distributed retention.
func NewTrace() *Trace {
	return &Trace{start: time.Now(), totals: make(map[string]*StageSummary)}
}

// NewRootTrace starts a trace with fresh distributed identity; sampled is the
// head-sampling decision to propagate downstream.
func NewRootTrace(sampled bool) *Trace {
	t := NewTrace()
	t.TraceID = NewTraceID()
	t.SpanID = NewSpanID()
	t.Sampled = sampled
	return t
}

// NewChildTrace starts this hop's trace under an upstream hop's identity: the
// trace ID and sampling decision are adopted, the upstream span becomes the
// parent, and the hop gets its own span ID.
func NewChildTrace(tc TraceContext) *Trace {
	t := NewTrace()
	t.TraceID = tc.TraceID
	t.ParentSpanID = tc.SpanID
	t.SpanID = NewSpanID()
	t.Sampled = tc.Sampled
	return t
}

func (t *Trace) add(name string, start time.Time, d time.Duration, attrs []Attr) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) < maxTraceSpans {
		t.spans = append(t.spans, SpanRecord{Name: name, Start: start.Sub(t.start), Dur: d, Attrs: attrs})
	} else {
		t.dropped++
	}
	s := t.totals[name]
	if s == nil {
		s = &StageSummary{Name: name}
		t.totals[name] = s
		t.order = append(t.order, name)
	}
	s.Count++
	s.Total += d
}

// Records returns a copy of the recorded spans in completion order.
func (t *Trace) Records() []SpanRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanRecord, len(t.spans))
	copy(out, t.spans)
	return out
}

// Dropped reports how many spans overflowed the per-trace cap (their
// durations still count in Stages).
func (t *Trace) Dropped() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Stages returns per-stage aggregates in first-seen order.
func (t *Trace) Stages() []StageSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]StageSummary, 0, len(t.order))
	for _, name := range t.order {
		out = append(out, *t.totals[name])
	}
	return out
}

// Start is the trace's start time.
func (t *Trace) Start() time.Time { return t.start }

// HeaderTraceparent is the cross-hop trace propagation header.  The value is
// the W3C traceparent shape: "00-<32 hex trace id>-<16 hex span id>-<flags>",
// flags bit 0 carrying the head-sampling decision.
const HeaderTraceparent = "Traceparent"

// TraceContext is a parsed traceparent header: the identity one hop hands the
// next.
type TraceContext struct {
	TraceID string
	SpanID  string
	Sampled bool
}

// Context returns the identity this trace would propagate downstream: its
// trace ID, its own span ID as the downstream parent, and the sampling bit.
// ok is false for identity-less traces, which must not propagate.
func (t *Trace) Context() (TraceContext, bool) {
	if t == nil || t.TraceID == "" {
		return TraceContext{}, false
	}
	return TraceContext{TraceID: t.TraceID, SpanID: t.SpanID, Sampled: t.Sampled}, true
}

// FormatTraceparent renders a TraceContext as a traceparent header value.
func FormatTraceparent(tc TraceContext) string {
	flags := "00"
	if tc.Sampled {
		flags = "01"
	}
	return "00-" + tc.TraceID + "-" + tc.SpanID + "-" + flags
}

// ParseTraceparent parses a traceparent header value.  ok is false for
// malformed values (wrong field count, wrong lengths, non-hex IDs, or the
// all-zero identities the spec reserves for "no trace").
func ParseTraceparent(v string) (TraceContext, bool) {
	parts := strings.Split(strings.TrimSpace(v), "-")
	if len(parts) != 4 || len(parts[0]) != 2 || len(parts[1]) != 32 || len(parts[2]) != 16 || len(parts[3]) != 2 {
		return TraceContext{}, false
	}
	if !isHex(parts[1]) || !isHex(parts[2]) || !isHex(parts[3]) {
		return TraceContext{}, false
	}
	if parts[1] == strings.Repeat("0", 32) || parts[2] == strings.Repeat("0", 16) {
		return TraceContext{}, false
	}
	flags, err := hex.DecodeString(parts[3])
	if err != nil {
		return TraceContext{}, false
	}
	return TraceContext{TraceID: parts[1], SpanID: parts[2], Sampled: flags[0]&1 == 1}, true
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// NewTraceID returns a 32-hex-char random trace identifier.
func NewTraceID() string { return randHex(16) }

// NewSpanID returns a 16-hex-char random span identifier.
func NewSpanID() string { return randHex(8) }

func randHex(n int) string {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; a fixed ID keeps
		// the serving path alive (matching NewRequestID's posture).
		return strings.Repeat("42", n)
	}
	return hex.EncodeToString(b)
}

// NewRequestID returns a 16-hex-char random request identifier for the
// X-Request-ID header and log correlation.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; a fixed ID
		// keeps the serving path alive.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

type requestIDKey struct{}

// ContextWithRequestID attaches a request ID for log correlation.
func ContextWithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey{}, id)
}

// RequestIDFrom returns the request ID bound to ctx, or "".
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}
