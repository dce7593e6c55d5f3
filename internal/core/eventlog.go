package core

import (
	"fmt"
	"sync"
	"time"
)

// EventKind classifies middleware events.
type EventKind int

// Event kinds recorded by the log.
const (
	// EventPlaced: a file landed on an upper tier.
	EventPlaced EventKind = iota
	// EventSkipped: no tier had room (or fetching was disabled).
	EventSkipped
	// EventFailed: an operational error aborted a placement.
	EventFailed
	// EventEvicted: an eviction-policy ablation removed a file.
	EventEvicted
	// EventFallback: a read was re-served from the PFS after a tier
	// failure.
	EventFallback
	// EventDemoted: the circuit breaker re-pointed a placed file at the
	// source level because its tier is Down.
	EventDemoted
	// EventRetried: a transient placement failure was re-queued under
	// Config.Retry.
	EventRetried
	// EventTierDown: a tier's circuit breaker opened after repeated
	// errors.
	EventTierDown
	// EventTierUp: a recovery probe returned a Down tier to service;
	// Bytes carries the number of entries made re-placeable.
	EventTierUp
	// EventChunkPlaced: one chunk of a chunked placement landed on an
	// upper tier; Bytes carries the chunk length.
	EventChunkPlaced
	// EventPartialHit: a read was served from an upper tier while that
	// file's chunked placement was still in flight; Bytes carries the
	// bytes served.
	EventPartialHit
	// EventOpError: a best-effort side operation failed — partial-copy
	// cleanup after a failed chunk job, an eviction victim's removal,
	// or a probe's scratch-file cleanup. These paths used to drop their
	// errors silently; now they surface here and in the
	// monarch_errors_total metric.
	EventOpError
	// EventPromoted: an unplaceable file re-entered the placement
	// pipeline because its heat came to justify displacing a colder
	// resident.
	EventPromoted
	// EventFlushed: a write-back file's dirty bytes reached the PFS;
	// Bytes carries the dirty bytes retired.
	EventFlushed
	// EventWriteStalled: a write-back writer blocked on the dirty
	// budget until the flusher drained; Bytes carries the write size.
	EventWriteStalled
	// EventRecovered: Init replayed journaled write-back state into the
	// PFS after a crash; Bytes carries the number of files recovered.
	EventRecovered

	// eventKinds counts the kinds above; keep it last.
	eventKinds
)

// eventKindNames are the kind names, in EventKind order.
var eventKindNames = [eventKinds]string{
	"placed", "skipped", "failed", "evicted", "fallback", "demoted", "retried", "tier-down",
	"tier-up", "chunk-placed", "partial-hit", "op-error", "promoted", "flushed",
	"write-stalled", "recovered",
}

// String names the kind.
func (k EventKind) String() string {
	if k < 0 || k >= eventKinds {
		return "unknown"
	}
	return eventKindNames[k]
}

// Event is one middleware occurrence worth surfacing to operators.
type Event struct {
	Kind  EventKind
	File  string
	Level int // tier involved (-1 when not applicable)
	Bytes int64
	Err   error
	// Seq orders events; Wall is the host time the event was recorded
	// (informational only — experiments run on virtual time).
	Seq  uint64
	Wall time.Time
}

// String formats the event for logs.
func (e Event) String() string {
	switch e.Kind {
	case EventPlaced:
		return fmt.Sprintf("#%d placed %s on level %d (%d bytes)", e.Seq, e.File, e.Level, e.Bytes)
	case EventEvicted:
		return fmt.Sprintf("#%d evicted %s from level %d", e.Seq, e.File, e.Level)
	case EventFailed:
		return fmt.Sprintf("#%d placement of %s failed: %v", e.Seq, e.File, e.Err)
	case EventFallback:
		return fmt.Sprintf("#%d read of %s fell back to the source level", e.Seq, e.File)
	case EventDemoted:
		return fmt.Sprintf("#%d demoted %s off level %d to the source level", e.Seq, e.File, e.Level)
	case EventRetried:
		return fmt.Sprintf("#%d placement of %s re-queued after level %d error: %v", e.Seq, e.File, e.Level, e.Err)
	case EventTierDown:
		return fmt.Sprintf("#%d tier %d down: %v", e.Seq, e.Level, e.Err)
	case EventTierUp:
		return fmt.Sprintf("#%d tier %d back in service (%d entries re-placeable)", e.Seq, e.Level, e.Bytes)
	case EventChunkPlaced:
		return fmt.Sprintf("#%d chunk of %s placed on level %d (%d bytes)", e.Seq, e.File, e.Level, e.Bytes)
	case EventPartialHit:
		return fmt.Sprintf("#%d read of %s served mid-copy from level %d (%d bytes)", e.Seq, e.File, e.Level, e.Bytes)
	case EventOpError:
		return fmt.Sprintf("#%d best-effort operation on %s (level %d) failed: %v", e.Seq, e.File, e.Level, e.Err)
	case EventPromoted:
		return fmt.Sprintf("#%d promoted %s back into placement (%d bytes)", e.Seq, e.File, e.Bytes)
	case EventFlushed:
		return fmt.Sprintf("#%d flushed %s to the PFS (%d dirty bytes retired)", e.Seq, e.File, e.Bytes)
	case EventWriteStalled:
		return fmt.Sprintf("#%d write of %s stalled on the dirty budget (%d bytes)", e.Seq, e.File, e.Bytes)
	case EventRecovered:
		return fmt.Sprintf("#%d recovered %d journaled files to the PFS", e.Seq, e.Bytes)
	default:
		return fmt.Sprintf("#%d %s %s", e.Seq, e.Kind, e.File)
	}
}

// EventLog is a bounded ring of recent middleware events, attached via
// Config.Events. It is safe for concurrent use and never blocks the
// read or placement paths; when full, the oldest events are dropped.
type EventLog struct {
	mu      sync.Mutex
	buf     []Event
	start   int
	n       int
	seq     uint64
	dropped uint64
}

// NewEventLog creates a ring holding up to capacity events.
func NewEventLog(capacity int) *EventLog {
	if capacity <= 0 {
		panic("core: event log capacity must be positive")
	}
	return &EventLog{buf: make([]Event, capacity)}
}

// add records one event.
func (l *EventLog) add(e Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	e.Seq = l.seq
	e.Wall = time.Now()
	if l.n < len(l.buf) {
		l.buf[(l.start+l.n)%len(l.buf)] = e
		l.n++
		return
	}
	l.buf[l.start] = e
	l.start = (l.start + 1) % len(l.buf)
	l.dropped++
}

// Events returns the retained events, oldest first.
func (l *EventLog) Events() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, l.n)
	for i := 0; i < l.n; i++ {
		out[i] = l.buf[(l.start+i)%len(l.buf)]
	}
	return out
}

// Dropped returns how many events were evicted from the ring.
func (l *EventLog) Dropped() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// Len returns the number of retained events.
func (l *EventLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// emit is the nil-safe hook used by the middleware internals.
func (l *EventLog) emit(e Event) {
	if l == nil {
		return
	}
	l.add(e)
}
