package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer, or one
// daemon-side phase read back from a job trace. Spans of one job repeat
// or request share an ID; Parent names the enclosing span and Depth its
// nesting, root spans (one per repeat or request) at depth 0.
type span struct {
	ID     string    `json:"id"`
	Name   string    `json:"name"`
	Layer  string    `json:"layer"`
	Parent string    `json:"parent,omitempty"`
	Depth  int       `json:"depth"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// recorder keeps spans in memory; a nil recorder records nothing, which
// is how the untraced phase runs the same code.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

func (r *recorder) add(s span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// timed runs fn and records it as a span; it returns fn's duration.
func (r *recorder) timed(id, parent, name, layer string, depth int, fn func()) time.Duration {
	t0 := time.Now()
	fn()
	t1 := time.Now()
	r.add(span{ID: id, Name: name, Layer: layer, Parent: parent, Depth: depth, Start: t0, End: t1})
	return t1.Sub(t0)
}

func (r *recorder) all() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes attributes every instant of each root span to the deepest
// span covering it, and returns each layer's self time and the total busy
// time (the sum of root span durations). A child that outlives its parent
// is clipped to the root's interval.
func selfTimes(spans []span) (self map[string]time.Duration, busy time.Duration) {
	self = map[string]time.Duration{}
	byID := map[string][]span{}
	var ids []string
	for _, s := range spans {
		if _, ok := byID[s.ID]; !ok {
			ids = append(ids, s.ID)
		}
		byID[s.ID] = append(byID[s.ID], s)
	}
	for _, id := range ids {
		group := byID[id]
		var root *span
		for i := range group {
			if group[i].Depth == 0 {
				root = &group[i]
			}
		}
		if root == nil {
			continue
		}
		busy += root.dur()
		var cuts []time.Time
		for _, s := range group {
			for _, t := range []time.Time{s.Start, s.End} {
				if !t.Before(root.Start) && !t.After(root.End) {
					cuts = append(cuts, t)
				}
			}
		}
		sort.Slice(cuts, func(i, j int) bool { return cuts[i].Before(cuts[j]) })
		for i := 0; i+1 < len(cuts); i++ {
			a, b := cuts[i], cuts[i+1]
			if !a.Before(b) {
				continue
			}
			var best *span
			for j := range group {
				s := &group[j]
				if s.Start.After(a) || s.End.Before(b) {
					continue
				}
				if best == nil || s.Depth > best.Depth || (s.Depth == best.Depth && s.Start.After(best.Start)) {
					best = s
				}
			}
			self[best.Layer] += b.Sub(a)
		}
	}
	return self, busy
}

// spanMean is the mean duration of the spans with the given name.
func spanMean(spans []span, name string) time.Duration {
	var total time.Duration
	n := 0
	for _, s := range spans {
		if s.Name == name {
			total += s.dur()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return total / time.Duration(n)
}

var engineLayers = []string{"urn", "pop", "check", "sim"}

// layerShares prints each layer's self time and share of busy time, and
// asserts the shares the workload is built to have: urn is most of
// counting-batch's engine time and absent from shapes-batch, and the
// engines are a minority of request time when serving.
func layerShares(workload string, spans []span) (map[string]any, bool) {
	self, busy := selfTimes(spans)
	var layers []string
	for l := range self {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return self[layers[i]] > self[layers[j]] })
	fmt.Printf("layer self time (busy %.3f s over %d spans):\n", busy.Seconds(), len(spans))
	shares := map[string]float64{}
	for _, l := range layers {
		shares[l] = float64(self[l]) / float64(nonZeroDur(busy))
		fmt.Printf("  %-10s %10.3f s  %5.1f%%\n", l, self[l].Seconds(), 100*shares[l])
	}
	var engine time.Duration
	for _, l := range engineLayers {
		engine += self[l]
	}
	var claim string
	var ok bool
	switch workload {
	case "counting-batch":
		v := float64(self["urn"]) / float64(nonZeroDur(engine))
		claim, ok = fmt.Sprintf("urn is most of the engine time: %.1f%% > 50%%", 100*v), v > 0.5
	case "shapes-batch":
		claim, ok = fmt.Sprintf("urn is absent: %v urn self time", self["urn"]), self["urn"] == 0
	default:
		v := float64(engine) / float64(nonZeroDur(busy))
		claim, ok = fmt.Sprintf("engines are a minority of request time: %.1f%% < 50%%", 100*v), v < 0.5
	}
	verdict := "holds"
	if !ok {
		verdict = "FAILS"
	}
	fmt.Printf("expected share %s: %s\n", verdict, claim)
	return map[string]any{"busy_s": busy.Seconds(), "shares": shares, "assertion": claim, "holds": ok}, ok
}

func nonZeroDur(d time.Duration) time.Duration {
	if d == 0 {
		return 1
	}
	return d
}

// writeTrace writes the traced run's spans and layer shares beside the
// run directory, at exit.
func writeTrace(cfg config, spans []span, shares map[string]any) error {
	dir := filepath.Join(filepath.Dir(cfg.work), "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	body, err := json.Marshal(map[string]any{"workload": cfg.workload, "seed": cfg.seed, "shares": shares, "spans": spans})
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	if err := os.WriteFile(path, body, 0o644); err != nil {
		return err
	}
	fmt.Println("spans and layer shares written to", path)
	return nil
}

// perLayer lists the traced metrics, in print order, with their units and
// the base of every ratio.
var perLayer = []struct{ name, unit, base string }{
	{"urn.ns_per_effective", "ns", "urn engine self time / effective interactions, all repeats"},
	{"urn.effective_per_job", "count", "mean over distinct urn jobs"},
	{"urn.steps_per_job", "count", "simulated steps, mean over distinct urn jobs"},
	{"urn.block_flushes_per_job", "count", "mean over distinct urn jobs"},
	{"urn.alias_rebuilds_per_job", "count", "mean over distinct urn jobs"},
	{"urn.fault_events_per_job", "count", "mean over distinct urn jobs"},
	{"pop.ns_per_step", "ns", "pop engine self time / steps, all repeats"},
	{"pop.steps_per_job", "count", "mean over distinct pop jobs"},
	{"check.ns_per_config", "ns", "check engine self time / discovered configurations, all repeats"},
	{"check.configs_per_job", "count", "discovered configurations, mean over distinct check jobs"},
	{"sim.ns_per_step", "ns", "sim engine self time / steps, all repeats"},
	{"sim.steps_per_job", "count", "mean over distinct sim jobs"},
	{"sim.effective_ratio", "ratio", "effective interactions / steps, all sim repeats"},
	{"snap.capture_us", "us", "mean Job.Checkpoint capture call"},
	{"snap.encode_us", "us", "mean snap.Snapshot.Encode call"},
	{"snap.decode_us", "us", "mean snap.Decode call"},
	{"snap.bytes", "bytes", "encoded snapshot, mean over distinct checkpointed jobs"},
	{"snap.resume_ms", "ms", "mean job.Resume call (restore and run to the end)"},
	{"job.normalize_us", "us", "mean job.Normalize call"},
	{"job.cachekey_us", "us", "mean Job.CacheKey call"},
	{"job.result_encode_us", "us", "mean Result encode (MarshalIndent) call"},
	{"runner.queue_wait_ms", "ms", "queued -> running in the daemon trace, mean over sampled fresh jobs"},
	{"server.submit_rtt_ms", "ms", "client-side POST /v1/jobs round trip, mean over requests"},
	{"server.wait_ms", "ms", "client-side /events wait for the result frame, mean over requests"},
	{"server.submit_handler_ms", "ms", "POST /v1/jobs handler time in the daemons that run jobs, /metrics sum/count"},
	{"server.requests_per_job", "count", "HTTP requests served by the daemon clients talk to / completed submissions"},
	{"server.fsyncs_per_job", "count", "journal fsyncs / completed submissions"},
	{"server.fsync_ms", "ms", "journal fsync time, /metrics sum/count"},
	{"server.journal_bytes_per_job", "bytes", "journal growth / completed submissions"},
	{"server.cache_hit_ratio", "ratio", "daemon cache hits / (hits + misses) of the daemons that run jobs"},
	{"cluster.submit_handler_ms", "ms", "coordinator POST /v1/jobs handler time, /metrics sum/count"},
	{"cluster.hop_ms", "ms", "coordinator submit handler minus worker submit handler"},
	{"cluster.worker_requests_per_job", "count", "HTTP requests served by workers / completed submissions"},
	{"cluster.cache_hit_ratio", "ratio", "coordinator cache hits / (hits + misses)"},
	{"cluster.mirror_pulls_per_job", "count", "checkpoint mirror pulls / completed submissions"},
	{"cluster.failover_detect_s", "s", "kill -9 of the owner -> coordinator failover event"},
	{"cluster.failover_resume_ms", "ms", "coordinator failover event -> routed to the survivor"},
	{"runtime.allocs_per_job", "count", "heap allocations of the batch process / job repeats"},
	{"runtime.alloc_bytes_per_job", "bytes", "heap bytes allocated / job repeats"},
	{"runtime.gc_cycles_per_job", "count", "GC cycles / job repeats"},
	{"proc.cpu_ms_per_job.standalone", "ms", "standalone daemon CPU / completed submissions"},
	{"proc.cpu_ms_per_job.coordinator", "ms", "coordinator CPU / completed submissions"},
	{"proc.cpu_ms_per_job.worker", "ms", "CPU of both workers / completed submissions"},
	{"host.slowdown", "ratio", "median over distinct jobs of median repeat / best repeat"},
	{"host.steal_ticks", "count", "CPU steal ticks in /proc/stat over the timed phase"},
}

// printLayers prints every per-layer metric with its unit and base.
func printLayers(layers map[string]float64) {
	fmt.Println("per-layer metrics (0 where the workload does not use the layer):")
	for _, m := range perLayer {
		fmt.Printf("  %-32s %16.4f %-6s %s\n", m.name, layers[m.name], m.unit, m.base)
	}
}
