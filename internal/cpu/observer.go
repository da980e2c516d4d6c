package cpu

import "fmt"

// EventKind classifies pipeline events reported to an Observer.
type EventKind uint8

// Pipeline event kinds.
const (
	EvDispatch   EventKind = iota // instruction entered the window
	EvIssue                       // selected for execution (address generation for memory ops)
	EvExecDone                    // execution result written (the W stage)
	EvMemAccess                   // load access completed
	EvVerify                      // own prediction verified correct
	EvInvalidate                  // nullified by an invalidation wave
	EvResolve                     // control transfer resolved
	EvRetire                      // released from the window
)

func (k EventKind) String() string {
	switch k {
	case EvDispatch:
		return "dispatch"
	case EvIssue:
		return "issue"
	case EvExecDone:
		return "exec"
	case EvMemAccess:
		return "mem"
	case EvVerify:
		return "verify"
	case EvInvalidate:
		return "invalidate"
	case EvResolve:
		return "resolve"
	case EvRetire:
		return "retire"
	}
	return fmt.Sprintf("event(%d)", uint8(k))
}

// Event is one observed pipeline event.
type Event struct {
	Cycle int64
	Kind  EventKind
	Seq   int64 // dynamic sequence number of the instruction
	PC    int
	Slot  int // window slot (ring index) the instruction occupies
}

// Observer receives pipeline events as they happen; used by the pipeline-
// diagram tool, the trace exporter, and tests that assert event orderings.
// Observe is called synchronously from the simulation loop.
type Observer interface {
	Observe(Event)
}

// SetObserver installs an observer; pass nil to remove. Must be called
// before Run.
func (p *Pipeline) SetObserver(o Observer) { p.obs = o }

// emit reports an event of e at cycle c to the observer, if one is set. It
// inlines into every stage as a nil check; building and delivering the
// event stays out of line in observe.
func (p *Pipeline) emit(c int64, kind EventKind, e *entry) {
	if p.obs != nil {
		p.observe(c, kind, e)
	}
}

//go:noinline
func (p *Pipeline) observe(c int64, kind EventKind, e *entry) {
	p.obs.Observe(Event{Cycle: c, Kind: kind, Seq: e.rec.Seq, PC: e.rec.PC, Slot: e.idx})
}

// EventLog is an Observer that records everything, indexed by Seq.
type EventLog struct {
	Events []Event
	bySeq  map[int64][]Event
}

// Observe implements Observer.
func (l *EventLog) Observe(ev Event) {
	l.Events = append(l.Events, ev)
	if l.bySeq == nil {
		l.bySeq = make(map[int64][]Event)
	}
	l.bySeq[ev.Seq] = append(l.bySeq[ev.Seq], ev)
}

// BySeq returns the events of one dynamic instruction in order. The lookup
// is O(1); events appended directly to Events (rather than through Observe)
// are not indexed.
func (l *EventLog) BySeq(seq int64) []Event { return l.bySeq[seq] }

// EventSlice returns the recorded events in observation order.
func (l *EventLog) EventSlice() []Event { return l.Events }

// Dropped implements the truncation-reporting contract of bounded
// observers; an EventLog never drops events.
func (l *EventLog) Dropped() int64 { return 0 }

// RingLog is a bounded Observer: it keeps the most recent events in a
// fixed-capacity ring, overwriting the oldest once full. Steady-state
// observation allocates nothing, so a RingLog can stay attached to long
// production runs where an EventLog would grow without bound.
type RingLog struct {
	events  []Event
	next    int
	n       int
	dropped int64
}

// NewRingLog creates a ring log retaining up to capacity events
// (minimum 1).
func NewRingLog(capacity int) *RingLog {
	if capacity < 1 {
		capacity = 1
	}
	return &RingLog{events: make([]Event, capacity)}
}

// Observe implements Observer.
func (l *RingLog) Observe(ev Event) {
	if l.n == len(l.events) {
		l.dropped++
	} else {
		l.n++
	}
	l.events[l.next] = ev
	l.next = (l.next + 1) % len(l.events)
}

// Dropped returns how many events were overwritten.
func (l *RingLog) Dropped() int64 { return l.dropped }

// Len returns the number of retained events.
func (l *RingLog) Len() int { return l.n }

// EventSlice returns the retained events oldest-first.
func (l *RingLog) EventSlice() []Event {
	out := make([]Event, 0, l.n)
	if l.n < len(l.events) {
		return append(out, l.events[:l.n]...)
	}
	out = append(out, l.events[l.next:]...)
	return append(out, l.events[:l.next]...)
}

// BySeq returns the retained events of one dynamic instruction in order.
// Unlike EventLog.BySeq this scans the ring (O(capacity)): maintaining a
// per-seq index under overwrite-oldest eviction would cost more than the
// bounded scan it saves.
func (l *RingLog) BySeq(seq int64) []Event {
	var out []Event
	for _, ev := range l.EventSlice() {
		if ev.Seq == seq {
			out = append(out, ev)
		}
	}
	return out
}

// Tee fans one event stream out to several observers; nil receivers are
// skipped.
func Tee(obs ...Observer) Observer {
	var live []Observer
	for _, o := range obs {
		if o != nil {
			live = append(live, o)
		}
	}
	if len(live) == 1 {
		return live[0]
	}
	return teeObserver(live)
}

type teeObserver []Observer

// Observe implements Observer.
func (t teeObserver) Observe(ev Event) {
	for _, o := range t {
		o.Observe(ev)
	}
}
