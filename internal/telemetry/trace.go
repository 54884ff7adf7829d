package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"
)

// TraceEvent is one Chrome trace_event record. The subset emitted here
// (ph "X" complete spans and ph "i" instants) renders directly in
// chrome://tracing and Perfetto.
type TraceEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	TS   int64             `json:"ts"`            // microseconds since trace start
	Dur  int64             `json:"dur,omitempty"` // microseconds, ph=="X" only
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
	S    string            `json:"s,omitempty"` // instant scope, ph=="i"
}

// traceFile is the top-level Chrome trace JSON object.
type traceFile struct {
	TraceEvents     []TraceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
	Dropped         int64        `json:"dropped,omitempty"`
}

// Tracer records trace events into a fixed-capacity ring buffer,
// dropping the oldest events when full so a long run keeps the most
// recent window. All methods are nil-safe: a nil *Tracer is a no-op,
// so instrumented code never branches on "is tracing enabled".
type Tracer struct {
	mu      sync.Mutex
	start   time.Time
	buf     []TraceEvent
	head    int // next write position
	n       int // events currently buffered (<= cap)
	dropped int64
}

// NewTracer returns a tracer buffering at most capacity events
// (drop-oldest past that). Capacity <= 0 defaults to 64k events.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 1 << 16
	}
	return &Tracer{start: time.Now(), buf: make([]TraceEvent, capacity)}
}

func (t *Tracer) push(ev TraceEvent) {
	t.mu.Lock()
	t.buf[t.head] = ev
	t.head = (t.head + 1) % len(t.buf)
	if t.n < len(t.buf) {
		t.n++
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// Complete records a ph="X" span covering [begin, begin+dur).
// args may be nil.
func (t *Tracer) Complete(name, cat string, tid int, begin time.Time, dur time.Duration, args map[string]string) {
	if t == nil {
		return
	}
	ts := begin.Sub(t.start).Microseconds()
	us := dur.Microseconds()
	if us < 1 {
		us = 1 // chrome://tracing hides zero-width spans
	}
	t.push(TraceEvent{Name: name, Cat: cat, Ph: "X", TS: ts, Dur: us, TID: tid, Args: args})
}

// Span records a ph="X" span from begin to now. Returns the duration
// for convenience.
func (t *Tracer) Span(name, cat string, tid int, begin time.Time, args map[string]string) time.Duration {
	if t == nil {
		return 0
	}
	d := time.Since(begin)
	t.Complete(name, cat, tid, begin, d, args)
	return d
}

// Instant records a ph="i" instant event at now, thread scope.
func (t *Tracer) Instant(name, cat string, tid int, args map[string]string) {
	if t == nil {
		return
	}
	ts := time.Since(t.start).Microseconds()
	t.push(TraceEvent{Name: name, Cat: cat, Ph: "i", TS: ts, TID: tid, Args: args, S: "t"})
}

// Dropped reports how many events were evicted by the ring.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Events returns the buffered events oldest-first.
func (t *Tracer) Events() []TraceEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TraceEvent, 0, t.n)
	if t.n < len(t.buf) {
		out = append(out, t.buf[:t.n]...)
	} else {
		out = append(out, t.buf[t.head:]...)
		out = append(out, t.buf[:t.head]...)
	}
	return out
}

// WriteJSON writes the buffered events as a Chrome trace JSON object
// ({"traceEvents": [...], "displayTimeUnit": "ms"}).
func (t *Tracer) WriteJSON(w io.Writer) error {
	tf := traceFile{TraceEvents: t.Events(), DisplayTimeUnit: "ms", Dropped: t.Dropped()}
	if tf.TraceEvents == nil {
		tf.TraceEvents = []TraceEvent{}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(tf)
}

// ValidateTrace checks that data is well-formed Chrome trace-event
// JSON of the subset this package emits: a top-level traceEvents
// array whose events all carry a name, a known phase ("X" or "i"),
// non-negative ts, and — for complete spans — a positive dur. Used by
// schema tests here and in cmd/siriussim.
func ValidateTrace(data []byte) error {
	var tf struct {
		TraceEvents     *[]TraceEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
		Dropped         int64         `json:"dropped"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields() // catches schema drift in traceFile
	if err := dec.Decode(&tf); err != nil {
		return fmt.Errorf("trace JSON: %w", err)
	}
	if tf.TraceEvents == nil {
		return errors.New("trace JSON: missing traceEvents array")
	}
	for i, ev := range *tf.TraceEvents {
		if ev.Name == "" {
			return fmt.Errorf("event %d: empty name", i)
		}
		switch ev.Ph {
		case "X":
			if ev.Dur <= 0 {
				return fmt.Errorf("event %d (%s): complete span with dur %d", i, ev.Name, ev.Dur)
			}
		case "i":
			// ok
		default:
			return fmt.Errorf("event %d (%s): unknown phase %q", i, ev.Name, ev.Ph)
		}
		if ev.TS < 0 {
			return fmt.Errorf("event %d (%s): negative ts %d", i, ev.Name, ev.TS)
		}
	}
	return nil
}
