package cluster

import (
	"time"

	"shapesol/internal/obs"
)

// clusterMetrics is the coordinator's slice of the fleet registry: ring
// membership, per-node heartbeat staleness, failover/reassignment
// counters, mirror freshness and the result cache (server.NewHandler
// adds route latency, the draining flag and the job census). Each
// Coordinator owns a private registry, so two coordinators in one
// process (tests) never share counters.
type clusterMetrics struct {
	reg *obs.Registry

	// staleness is repopulated from the node table at every scrape, so
	// a dead (or departed) worker's row disappears instead of freezing
	// at its last value.
	staleness *obs.GaugeVec

	nodeFailures *obs.Counter // workers declared dead
	jobsOrphaned *obs.Counter // in-flight jobs orphaned by a death
	jobsRehomed  *obs.Counter // orphans successfully placed on a survivor
	jobsResumed  *obs.Counter // rehomed from a mirrored checkpoint (vs scratch)
	mirrorPulls  *obs.Counter // checkpoint bodies pulled by the mirror loop
	traceEvents  *obs.Counter
}

func newClusterMetrics(c *Coordinator) *clusterMetrics {
	reg := obs.NewRegistry()
	m := &clusterMetrics{
		reg: reg,
		staleness: reg.GaugeVec("shapesol_cluster_heartbeat_staleness_seconds",
			"Seconds since each registered worker's last heartbeat.", "node"),
		nodeFailures: reg.Counter("shapesol_cluster_node_failures_total",
			"Workers declared dead (missed heartbeats or unreachable)."),
		jobsOrphaned: reg.Counter("shapesol_cluster_jobs_failed_over_total",
			"In-flight jobs orphaned by a worker death."),
		jobsRehomed: reg.Counter("shapesol_cluster_jobs_reassigned_total",
			"Orphaned jobs successfully re-placed on a survivor."),
		jobsResumed: reg.Counter("shapesol_cluster_failover_resumes_total",
			"Reassignments that resumed from a mirrored checkpoint rather than scratch."),
		mirrorPulls: reg.Counter("shapesol_cluster_mirror_pulls_total",
			"Checkpoint bodies pulled coordinator-side by the mirror loop."),
		traceEvents: reg.Counter("shapesol_trace_events_total",
			"Lifecycle trace events recorded across all jobs."),
	}
	reg.GaugeFunc("shapesol_cluster_ring_size",
		"Live workers on the consistent-hash ring.", func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return float64(c.ring.Len())
		})
	reg.GaugeFunc("shapesol_cluster_nodes",
		"Workers ever registered (alive and dead).", func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return float64(len(c.nodes))
		})
	reg.GaugeFunc("shapesol_cluster_nodes_alive",
		"Workers currently considered alive.", func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			alive := 0
			for _, n := range c.nodes {
				if n.alive {
					alive++
				}
			}
			return float64(alive)
		})
	reg.GaugeFunc("shapesol_cluster_mirror_lag_seconds",
		"Seconds since the maintenance loop last completed a mirror pass (0 before the first).",
		func() float64 {
			ns := c.lastMirror.Load()
			if ns == 0 {
				return 0
			}
			return time.Since(time.Unix(0, ns)).Seconds()
		})
	c.cache.Register(reg)
	reg.OnCollect(func() {
		// Per-node staleness is a snapshot of a mutable table: rebuild
		// the vec at scrape time.
		m.staleness.Reset()
		now := time.Now()
		c.mu.Lock()
		defer c.mu.Unlock()
		for _, n := range c.nodes {
			m.staleness.With(n.name).Set(now.Sub(n.lastBeat).Seconds())
		}
	})
	return m
}
