package server

import (
	"log"
	"time"
)

// TraceEvent is one span event in a job's lifecycle trace: the
// submitted → queued → running → checkpointed* → settled sequence (plus
// resumed/recovered markers), replayable after a crash because durable
// daemons journal each event. Traces answer the question metrics can't:
// what happened to *this* job, and when.
type TraceEvent struct {
	TS     time.Time `json:"ts"`
	Event  string    `json:"event"`
	Detail string    `json:"detail,omitempty"`
	Steps  int64     `json:"steps,omitempty"`
}

// Trace event names. Traces are append-only observations, not a state
// machine: a consumer must tolerate unknown events (the cluster
// coordinator adds its own routing/failover vocabulary).
const (
	TraceSubmitted    = "submitted"
	TraceQueued       = "queued"
	TraceCacheHit     = "cache-hit"
	TraceRunning      = "running"
	TraceCheckpointed = "checkpointed"
	TraceResumed      = "resumed"
	TraceRecovered    = "recovered"
	TraceSettled      = "settled"
)

// addTrace appends one event to the entry's in-memory trace and returns
// it as stored. Timestamps strictly increase along a trace: an event
// stamped no later than its predecessor (a coarse or stepped-back wall
// clock) is moved to 1ns after it, so timestamp order is recording order
// and a journal replay can restore it whatever order the lines landed in.
func (e *entry) addTrace(ev TraceEvent) TraceEvent {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.trace, ev = AppendTrace(e.trace, ev)
	return ev
}

// AppendTrace appends ev to trace and returns both, keeping timestamps
// strictly increasing: an event stamped no later than its predecessor (a
// coarse or stepped-back wall clock, or a stamp taken before a racing
// append) is moved to 1ns after it. The caller holds the lock that
// guards trace; both roles' job records append through here.
func AppendTrace(trace []TraceEvent, ev TraceEvent) ([]TraceEvent, TraceEvent) {
	if n := len(trace); n > 0 && !ev.TS.After(trace[n-1].TS) {
		ev.TS = trace[n-1].TS.Add(time.Nanosecond)
	}
	return append(trace, ev), ev
}

// traceEvents snapshots the trace.
func (e *entry) traceEvents() []TraceEvent {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]TraceEvent(nil), e.trace...)
}

// traceEvent records one lifecycle event: in memory always, and in the
// durable journal when there is one — as an un-fsynced append, so
// traces ride the journal's ordering without adding fsyncs to the
// serving path (losing the trace tail on kill -9 is acceptable; losing
// admissions or results is not).
func (s *Server) traceEvent(e *entry, event, detail string, steps int64) {
	s.publishTrace(e, e.addTrace(newTraceEvent(event, detail, steps)))
}

// newTraceEvent stamps one lifecycle event with the current time.
func newTraceEvent(event, detail string, steps int64) TraceEvent {
	return TraceEvent{TS: time.Now().UTC(), Event: event, Detail: detail, Steps: steps}
}

// publishTrace counts and journals an event already in the entry's
// in-memory trace.
func (s *Server) publishTrace(e *entry, ev TraceEvent) {
	s.metrics.traces.Inc()
	if s.persist != nil {
		if err := s.persist.appendEvent(e.id, ev); err != nil {
			// Log-worthy but never fatal: the in-memory trace still serves.
			log.Printf("server: journal trace %s: %v", e.id, err)
		}
	}
}
