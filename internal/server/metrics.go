package server

import (
	"shapesol/internal/job"
	"shapesol/internal/obs"
)

// serverMetrics is the daemon's observability surface: one obs.Registry
// serving GET /metrics, with the engine counter sets pre-resolved per
// engine label and the serving-path instruments (queue depth, pool
// saturation, cache hit/miss, journal fsync and checkpoint write timing)
// registered around the existing components. NewHandler adds the ones
// both roles share: route latency, the draining flag and the per-state
// job census.
type serverMetrics struct {
	reg     *obs.Registry
	engines map[job.Engine]*obs.EngineMetrics

	fsync      *obs.Histogram
	checkpoint *obs.Histogram
	traces     *obs.Counter
}

// newServerMetrics builds the registry for s. Scrape-time values (queue
// depth, saturation, cache counters) are read through funcs, so nothing
// polls in the background.
func newServerMetrics(s *Server) *serverMetrics {
	reg := obs.NewRegistry()
	m := &serverMetrics{
		reg: reg,
		engines: map[job.Engine]*obs.EngineMetrics{
			job.EngineSim:   obs.NewEngineMetrics(reg, string(job.EngineSim)),
			job.EnginePop:   obs.NewEngineMetrics(reg, string(job.EnginePop)),
			job.EngineUrn:   obs.NewEngineMetrics(reg, string(job.EngineUrn)),
			job.EngineCheck: obs.NewEngineMetrics(reg, string(job.EngineCheck)),
		},
		fsync: reg.Histogram("shapesol_journal_fsync_duration_seconds",
			"Journal append fsync latency.", nil),
		checkpoint: reg.Histogram("shapesol_checkpoint_write_duration_seconds",
			"Time to capture, encode, and atomically write one job checkpoint.", nil),
		traces: reg.Counter("shapesol_trace_events_total",
			"Job lifecycle trace events recorded."),
	}

	reg.GaugeFunc("shapesol_queue_depth",
		"Accepted-but-not-started jobs waiting in the pool queue.",
		func() float64 { return float64(s.pool.QueueDepth()) })
	reg.GaugeFunc("shapesol_queue_capacity",
		"Pool queue capacity (the 503 backpressure bound).",
		func() float64 { return float64(s.pool.QueueCap()) })
	reg.GaugeFunc("shapesol_pool_workers",
		"Worker goroutines in the execution pool.",
		func() float64 { return float64(s.pool.Workers()) })
	reg.GaugeFunc("shapesol_pool_busy",
		"Workers currently executing a job (saturation = busy/workers).",
		func() float64 { return float64(s.pool.Busy()) })
	s.cache.Register(reg)
	return m
}

// engine returns the counter set for an engine label (nil for an
// engine the registry does not know, which Normalize rejects anyway).
func (m *serverMetrics) engine(eng job.Engine) *obs.EngineMetrics {
	return m.engines[eng]
}
