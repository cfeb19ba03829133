package obs

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"
)

// TraceSchemaVersion is the version of the build-event vocabulary
// documented in DESIGN.md §10. build_start events carry it as the
// "schema" field so post-run tooling (cmd/sddstat) can refuse traces it
// does not understand instead of misreading them. Version 2 times each
// build with a root span and its stages.
const TraceSchemaVersion = 2

// Event is one line of the build-event trace. Fields is marshalled with
// encoding/json, which emits map keys sorted, so a trace produced from
// deterministic fold points is itself deterministic (modulo TMs).
type Event struct {
	// Seq is the 1-based emission order within this tracer.
	Seq int64 `json:"seq"`
	// TMs is the event's offset from tracer creation in milliseconds,
	// read from the caller-supplied clock (0 without a clock).
	TMs int64 `json:"t_ms"`
	// Type names the event: build_start, restart_start, restart_end,
	// proc2_sweep, checkpoint_load, checkpoint_save, row_start, row_end,
	// build_end, and span (a root build or request span with its stages).
	Type   string         `json:"type"`
	Fields map[string]any `json:"fields,omitempty"`
}

// Tracer appends build events to a writer as JSON lines. Every event is
// marshalled and written in one Write call under a mutex, so concurrent
// emitters (trace events from in-flight restarts or sweep rows) never
// interleave bytes, and — for file tracers, which are unbuffered on
// purpose — every event already written is durable when a SIGINT ends
// the run: interrupted runs keep their telemetry without any flush
// coordination. Write errors are sticky and surfaced by Err/Close, never
// propagated into the computation being observed.
type Tracer struct {
	clock func() time.Time
	start time.Time

	mu     sync.Mutex
	w      io.Writer
	closer io.Closer
	seq    int64
	err    error
}

// NewTracer traces onto w. clock supplies event timestamps and may be
// nil (events then carry t_ms 0).
func NewTracer(w io.Writer, clock func() time.Time) *Tracer {
	t := &Tracer{w: w, clock: clock}
	if clock != nil {
		t.start = clock()
	}
	return t
}

// NewFileTracer traces into path, opened append-only (O_APPEND|O_CREATE)
// so a rerun extends the history of an interrupted run rather than
// truncating it mid-crash. The file is deliberately unbuffered: each
// event is one durable write.
func NewFileTracer(path string, clock func() time.Time) (*Tracer, error) {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("obs: opening trace file: %w", err)
	}
	t := NewTracer(f, clock)
	t.closer = f
	return t, nil
}

// Emit appends one event. Safe on a nil tracer and from concurrent
// goroutines; a marshal or write failure is recorded and all later
// emits become no-ops.
func (t *Tracer) Emit(typ string, fields map[string]any) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	// The clock is read under the lock: injected clocks need not be
	// thread-safe, and t_ms stays monotonic with seq.
	var tms int64
	if t.clock != nil {
		tms = t.clock().Sub(t.start).Milliseconds()
	}
	t.seq++
	line, err := json.Marshal(Event{Seq: t.seq, TMs: tms, Type: typ, Fields: fields})
	if err != nil {
		t.err = fmt.Errorf("obs: marshalling %s event: %w", typ, err)
		return
	}
	if _, err := t.w.Write(append(line, '\n')); err != nil {
		t.err = fmt.Errorf("obs: writing %s event: %w", typ, err)
	}
}

// Err returns the first emission error, if any.
func (t *Tracer) Err() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Close releases the underlying file (if the tracer owns one) and
// returns the first emission error. Safe on nil.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closer != nil {
		cerr := t.closer.Close()
		t.closer = nil
		if t.err == nil && cerr != nil {
			t.err = fmt.Errorf("obs: closing trace file: %w", cerr)
		}
	}
	return t.err
}

// ErrTruncatedTrace marks a trace whose final line is an incomplete
// event: the writing process died (crash, SIGKILL) mid-append. ReadEvents
// wraps it under the parsed prefix, so callers keep the complete events
// and decide for themselves whether the torn tail matters —
// cmd/sddstat reports it and analyzes the prefix; tests that require a
// clean end treat it as a failure.
var ErrTruncatedTrace = errors.New("trace truncated mid-event")

// ReadEvents parses a JSONL trace back into events — the telemetry side
// of the round trip, used by tests and post-run tooling.
//
// The tracer terminates every event with a newline inside the same
// write, so a final line without one is the signature of a write torn by
// a crash: ReadEvents then returns the events parsed so far together
// with an error wrapping ErrTruncatedTrace. A malformed line that *is*
// newline-terminated (or is followed by more lines) is corruption, not
// truncation, and stays a hard error.
func ReadEvents(r io.Reader) ([]Event, error) {
	br := bufio.NewReader(r)
	var events []Event
	for {
		line, err := br.ReadString('\n')
		if err != nil && !errors.Is(err, io.EOF) {
			return events, fmt.Errorf("obs: reading trace: %w", err)
		}
		complete := err == nil
		if trimmed := strings.TrimSpace(line); trimmed != "" {
			var ev Event
			if uerr := json.Unmarshal([]byte(trimmed), &ev); uerr != nil {
				if !complete {
					return events, fmt.Errorf("obs: trace event %d: %w", len(events)+1, ErrTruncatedTrace)
				}
				return events, fmt.Errorf("obs: parsing trace event %d: %w", len(events)+1, uerr)
			}
			events = append(events, ev)
		}
		if !complete {
			return events, nil
		}
	}
}
