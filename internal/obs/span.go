package obs

// Span tracing (DESIGN.md §10, §16): a Span is one unit of work — a
// served request, or one build (an sdd run or a table6 sweep row) — with
// sequential child stages (decode, parse, scan, ... for a request; gen,
// atpg.detect, resp, proc1, ... for a build), flushed to the durable
// JSONL tracer as a single `span` event when it ends. A server handles
// many concurrent requests, and "the p99 spiked" is useless without
// knowing which request was slow and where inside it the time went; a
// build needs the same answer for its layers.
//
// Three properties shape the design:
//
//   - Determinism of the sampled set: whether a span is emitted is a
//     pure hash of its request ID against the sampling rate, never a
//     roll of a shared RNG or a worker-local counter, so the same
//     request-ID stream yields the same sampled-span set at any
//     concurrency. Slow requests (over SpanOptions.Slow) and failed
//     ones (status >= 500) always emit, sampled or not — they are the
//     requests worth finding.
//
//   - Zero allocations when not emitting: spans are recycled through a
//     free list, stage records live in a fixed inline buffer, and
//     inbound trace IDs are substrings of the traceparent header, so a
//     request that ends unsampled allocates nothing in this layer
//     (span_test.go pins this with testing.AllocsPerRun).
//
//   - Cross-process identity: the request ID is the W3C trace-id. A
//     client that sends `traceparent` (cmd/sddload does) names the
//     request on both sides of the wire; the server echoes it back as
//     X-Request-ID either way, so a client-observed latency can always
//     be joined to the server's span journal (cmd/sddstat serve).
//
// Like the rest of the package, everything is nil-safe: a nil *Spans or
// *Span is "request tracing off", and the clock is caller-supplied.

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// SpanOptions parameterizes a Spans layer.
type SpanOptions struct {
	// Sample is the emission probability for request spans, applied as
	// a deterministic hash of the request ID: 1 (or more) emits every
	// span, 0 emits none. Slow and failed requests emit regardless.
	Sample float64
	// Slow is the slow-request threshold: a request lasting at least
	// this long always emits its span, sampled or not. 0 disables the
	// slow-request log.
	Slow time.Duration
}

// Spans tracks the spans of one server or command: it assigns request
// IDs, applies the sampling decision, keeps the in-flight set (the
// /debug/requests dump), and recycles ended spans through a free list so
// the unsampled path allocates nothing.
type Spans struct {
	ob    *Observer
	clock func() time.Time
	opts  SpanOptions
	// threshold is the precomputed sampling cut: emit when the request
	// ID's hash, mapped into [0,1), is below it.
	threshold float64
	// seq numbers spans monotonically (1-based); generated request IDs
	// embed it, and the /debug/requests dump orders by it.
	seq atomic.Int64
	// base salts generated request IDs so two server processes started
	// at different times do not mint colliding IDs.
	base uint64

	mu       sync.Mutex
	inflight *Span // doubly-linked in-flight list (insertion order)
	free     *Span // singly-linked (via next) recycle list
}

// NewSpans builds the span layer. Emission goes through ob's tracer
// (nil tracer: spans are still tracked for /debug/requests, never
// emitted). clock supplies timestamps and may be nil only if no span is
// ever started; servers pass their injectable clock.
func NewSpans(ob *Observer, clock func() time.Time, opts SpanOptions) *Spans {
	if clock == nil {
		clock = time.Now
	}
	sp := &Spans{ob: ob, clock: clock, opts: opts}
	switch {
	case opts.Sample >= 1:
		sp.threshold = 2 // every hash fraction is < 2
	case opts.Sample > 0:
		sp.threshold = opts.Sample
	default:
		sp.threshold = 0 // no hash fraction is < 0
	}
	// UnixNano would be the obvious salt, but the span layer honors the
	// injected clock contract: derive the salt from whatever clock the
	// caller supplied so tests stay hermetic.
	sp.base = uint64(clock().UnixNano())*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	return sp
}

// sampleFraction maps a request ID onto [0,1) by FNV-1a hash — the
// deterministic sampling coin. Exported logic lives in Sampled.
func sampleFraction(id string) float64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= prime64
	}
	// FNV alone leaves the high bits dominated by the ID's prefix (the
	// multiply moves entropy low→high one step per byte), and request
	// IDs often share long prefixes — finish with a splitmix64-style
	// avalanche so every input byte reaches every output bit.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	// Top 53 bits → exactly representable float64 in [0,1).
	return float64(h>>11) / (1 << 53)
}

// Sampled reports the deterministic sampling verdict for a request ID
// at the given rate — the pure function the Spans layer applies, so
// tests (and capacity planning) can predict the sampled set without a
// server.
func Sampled(id string, rate float64) bool {
	if rate >= 1 {
		return true
	}
	if rate <= 0 {
		return false
	}
	return sampleFraction(id) < rate
}

// Stage is one child stage of a span: a named interval, expressed
// relative to the span's start so nesting is evident from the record
// alone.
type Stage struct {
	Name    string `json:"name"`
	StartUs int64  `json:"start_us"`
	DurUs   int64  `json:"dur_us"`
}

// spanStages is the inline stage capacity: a single-observation
// diagnosis uses at most seven (decode, load, parse, recall, scan,
// record, encode), so eight needs no allocation; batches and builds
// spill to the heap, which is fine — they are not the zero-alloc path.
const spanStages = 8

// Span is one in-flight (or just-ended) request or build. All mutating
// methods and the /debug/requests snapshot synchronize on the owning
// Spans mutex; a nil Span is a no-op throughout, so handlers and layers
// instrument unconditionally.
type Span struct {
	owner *Spans
	seq   int64
	id    string // request ID == W3C trace-id (32 lowercase hex chars)
	// parent is the client's span ID from the inbound traceparent (""
	// for a server-minted request) — the join key's provenance.
	parent  string
	method  string
	path    string
	sampled bool
	start   time.Time
	status  int
	errMsg  string
	// interrupted marks a build span whose context ended first.
	interrupted bool

	stageName  string // open stage ("" when none)
	stageStart time.Time
	stagesBuf  [spanStages]Stage
	stages     []Stage

	w spanWriter

	prev, next *Span
}

// Start opens a request span. traceparent is the inbound W3C header
// value ("" or malformed: the server mints a fresh request ID from its
// monotonic counter). The span is tracked as in-flight until End.
func (sp *Spans) Start(method, path, traceparent string) *Span {
	if sp == nil {
		return nil
	}
	seq := sp.seq.Add(1)
	id, parent, ok := ParseTraceparent(traceparent)
	if !ok {
		id, parent = fmt.Sprintf("%016x%016x", sp.base, uint64(seq)), ""
	}
	now := sp.clock()

	sp.mu.Lock()
	s := sp.free
	if s != nil {
		sp.free = s.next
		*s = Span{owner: sp}
	} else {
		s = &Span{owner: sp}
	}
	s.seq, s.id, s.parent = seq, id, parent
	s.method, s.path = method, path
	s.sampled = sampleFraction(id) < sp.threshold
	s.start = now
	s.status = 200
	s.stages = s.stagesBuf[:0]
	// Link at the head: End unlinks in O(1) and /debug/requests sorts
	// by seq anyway.
	s.next = sp.inflight
	if sp.inflight != nil {
		sp.inflight.prev = s
	}
	sp.inflight = s
	sp.mu.Unlock()
	return s
}

// End closes the span: any open stage is closed first (a panic unwinds
// past EndStage), the span leaves the in-flight set, and — when the
// sampling verdict, the slow threshold, or a failure status says so —
// one `span` event is flushed to the tracer before the span is
// recycled.
func (sp *Spans) End(s *Span) {
	if sp == nil || s == nil {
		return
	}
	now := sp.clock()

	sp.mu.Lock()
	s.closeStageLocked(now)
	durUs := now.Sub(s.start).Microseconds()
	slow := sp.opts.Slow > 0 && now.Sub(s.start) >= sp.opts.Slow
	emit := s.sampled || slow || s.status >= 500
	// Unlink from the in-flight list.
	if s.prev != nil {
		s.prev.next = s.next
	} else if sp.inflight == s {
		sp.inflight = s.next
	}
	if s.next != nil {
		s.next.prev = s.prev
	}
	s.prev, s.next = nil, nil

	var fields map[string]any
	if emit && sp.ob.Tracing() {
		fields = map[string]any{
			"request_id": s.id,
			"method":     s.method,
			"path":       s.path,
			"status":     s.status,
			"dur_us":     durUs,
			"sampled":    s.sampled,
		}
		if s.parent != "" {
			fields["parent"] = s.parent
		}
		if slow {
			fields["slow"] = true
		}
		if s.errMsg != "" {
			fields["error"] = s.errMsg
		}
		if s.interrupted {
			fields["interrupted"] = true
		}
		if len(s.stages) > 0 {
			fields["stages"] = append([]Stage(nil), s.stages...)
		}
	}
	// Recycle. Strings are cleared so the free list retains no header
	// backing arrays.
	*s = Span{owner: sp, next: sp.free}
	sp.free = s
	sp.mu.Unlock()

	if slow {
		sp.ob.M().Inc(ServeSlowRequests)
	}
	if fields != nil {
		sp.ob.M().Inc(ServeSpans)
		sp.ob.Emit("span", fields)
	}
}

// EndBuild closes a build span: marked interrupted when ctx ended
// first, failed (status 500) when err is non-nil.
func (s *Span) EndBuild(ctx context.Context, err error) {
	if s == nil {
		return
	}
	s.owner.mu.Lock()
	if ctx.Err() != nil {
		s.interrupted = true
	} else if err != nil {
		s.status, s.errMsg = 500, err.Error()
	}
	s.owner.mu.Unlock()
	s.owner.End(s)
}

// RequestID returns the span's request ID ("" on nil) — what the
// middleware echoes as X-Request-ID.
func (s *Span) RequestID() string {
	if s == nil {
		return ""
	}
	return s.id
}

// Sampled reports the span's sampling verdict (false on nil).
func (s *Span) Sampled() bool {
	if s == nil {
		return false
	}
	return s.sampled
}

// BeginStage opens a named child stage. Stages are sequential — opening
// a new one closes any still-open stage first, so a handler that errors
// out between BeginStage and EndStage cannot corrupt the record.
func (s *Span) BeginStage(name string) {
	if s == nil {
		return
	}
	now := s.owner.clock()
	s.owner.mu.Lock()
	s.closeStageLocked(now)
	s.stageName, s.stageStart = name, now
	s.owner.mu.Unlock()
}

// EndStage closes the open stage (no-op when none is open).
func (s *Span) EndStage() {
	if s == nil {
		return
	}
	now := s.owner.clock()
	s.owner.mu.Lock()
	s.closeStageLocked(now)
	s.owner.mu.Unlock()
}

// closeStageLocked appends the open stage, if any, to the record.
// Caller holds owner.mu.
func (s *Span) closeStageLocked(now time.Time) {
	if s.stageName == "" {
		return
	}
	s.stages = append(s.stages, Stage{
		Name:    s.stageName,
		StartUs: s.stageStart.Sub(s.start).Microseconds(),
		DurUs:   now.Sub(s.stageStart).Microseconds(),
	})
	s.stageName = ""
}

// SetStatus records the HTTP status the request resolved to. The
// response-writer wrapper (Writer) calls it automatically; middleware
// that bypasses the writer (panic paths) calls it directly.
func (s *Span) SetStatus(code int) {
	if s == nil {
		return
	}
	s.owner.mu.Lock()
	s.status = code
	s.owner.mu.Unlock()
}

// SetError attaches an error message to the span (panics, handler
// failures); failed spans always emit.
func (s *Span) SetError(msg string) {
	if s == nil {
		return
	}
	s.owner.mu.Lock()
	s.errMsg = msg
	s.owner.mu.Unlock()
}

// spanWriter captures the response status into the span. It lives
// inside the Span so wrapping allocates nothing.
type spanWriter struct {
	inner http.ResponseWriter
	span  *Span
}

// Writer wraps w so the first WriteHeader lands in the span's status.
// On a nil span it returns w unchanged.
func (s *Span) Writer(w http.ResponseWriter) http.ResponseWriter {
	if s == nil {
		return w
	}
	s.w = spanWriter{inner: w, span: s}
	return &s.w
}

func (sw *spanWriter) Header() http.Header {
	if sw == nil {
		return nil
	}
	return sw.inner.Header()
}

func (sw *spanWriter) Write(b []byte) (int, error) {
	if sw == nil {
		return 0, nil
	}
	return sw.inner.Write(b)
}

func (sw *spanWriter) WriteHeader(code int) {
	if sw == nil {
		return
	}
	sw.span.SetStatus(code)
	sw.inner.WriteHeader(code)
}

// InflightRequest is one live request in the /debug/requests dump.
type InflightRequest struct {
	Seq       int64  `json:"seq"`
	RequestID string `json:"request_id"`
	Method    string `json:"method"`
	Path      string `json:"path"`
	// Stage is the currently open stage ("" between stages).
	Stage string `json:"stage,omitempty"`
	AgeMs int64  `json:"age_ms"`
}

// Inflight snapshots the live request set, oldest (lowest seq) first —
// the answer to "what is this server doing right now". The request
// serving the dump appears in its own snapshot.
func (sp *Spans) Inflight() []InflightRequest {
	if sp == nil {
		return nil
	}
	now := sp.clock()
	sp.mu.Lock()
	var out []InflightRequest
	for s := sp.inflight; s != nil; s = s.next {
		out = append(out, InflightRequest{
			Seq:       s.seq,
			RequestID: s.id,
			Method:    s.method,
			Path:      s.path,
			Stage:     s.stageName,
			AgeMs:     now.Sub(s.start).Milliseconds(),
		})
	}
	sp.mu.Unlock()
	// The list is linked newest-first; present oldest-first.
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// ParseTraceparent validates a W3C trace-context traceparent header
// ("00-<32 hex trace-id>-<16 hex parent-id>-<2 hex flags>") and returns
// the trace-id and parent-id as substrings of h (no allocation). ok is
// false for anything malformed: wrong shape, uppercase hex, the
// all-zero trace or parent ID the spec forbids, or the reserved "ff"
// version.
func ParseTraceparent(h string) (traceID, parentID string, ok bool) {
	if len(h) != 55 || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return "", "", false
	}
	if !hexLower(h[0:2]) || h[0:2] == "ff" {
		return "", "", false
	}
	traceID, parentID = h[3:35], h[36:52]
	if !hexLower(traceID) || !hexLower(parentID) || !hexLower(h[53:55]) {
		return "", "", false
	}
	if allZero(traceID) || allZero(parentID) {
		return "", "", false
	}
	return traceID, parentID, true
}

// FormatTraceparent renders a version-00 traceparent header from a
// 32-hex trace ID and a 16-hex parent span ID; sampled sets the
// trace-flags sampled bit. The client side (cmd/sddload) uses it to
// name its requests before sending them.
func FormatTraceparent(traceID, parentID string, sampled bool) string {
	flags := "00"
	if sampled {
		flags = "01"
	}
	return "00-" + traceID + "-" + parentID + "-" + flags
}

func hexLower(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func allZero(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != '0' {
			return false
		}
	}
	return true
}

// spanCtxKey carries a *Span through a request context.
type spanCtxKey struct{}

// ContextWithSpan attaches s to ctx so downstream layers (handlers,
// internal/casestore's record hook, the build pipeline's layers) can
// open stages without plumbing a new parameter through every signature.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, s)
}

// SpanFrom returns the span carried by ctx, or nil — and nil is a fully
// functional no-op span, per the package contract.
func SpanFrom(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}
