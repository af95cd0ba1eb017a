package cluster

import (
	"time"

	"shapesol/internal/server"
)

// Coordinator-specific lifecycle events, extending the worker-side
// vocabulary in internal/server/trace.go: a clustered job is also
// routed to an owner, orphaned by a death, and rehomed on a survivor.
const (
	// TraceRouted records placement on a worker (detail: node name).
	TraceRouted = "routed"
	// TraceFailover records the owning worker's death (detail: why).
	TraceFailover = "failover"
)

// addTrace appends one lifecycle event to the record under its lock.
func (rec *record) addTrace(event, detail string, steps int64) {
	ev := server.TraceEvent{TS: time.Now().UTC(), Event: event, Detail: detail, Steps: steps}
	rec.mu.Lock()
	rec.trace, _ = server.AppendTrace(rec.trace, ev)
	rec.mu.Unlock()
}

// traceEvent records a lifecycle event and counts it in the registry.
func (c *Coordinator) traceEvent(rec *record, event, detail string, steps int64) {
	rec.addTrace(event, detail, steps)
	c.metrics.traceEvents.Inc()
}
