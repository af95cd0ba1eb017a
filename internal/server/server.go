// Package server is the job service of the reproduction: an HTTP front
// end over the internal/job registry that turns the one-shot Run API
// into an asynchronous submit/poll/stream/cancel service. The paper's
// protocols are long-running probabilistic computations (Theorem 1's
// counting simulates ~10^13 scheduler steps at n = 10^6 on the urn
// engine), which is exactly the workload shape that wants a daemon: a
// client submits a Job, gets an id back immediately, and then polls the
// typed Result envelope, streams NDJSON progress frames, or cancels —
// all on the Job/Result/RunContext plumbing the engines already have.
//
//	POST   /v1/jobs             submit a Job (JSON), 202 + Status (200 on a cache hit)
//	GET    /v1/jobs             list every submission's Status
//	GET    /v1/jobs/{id}        one job's Status (Result once terminal)
//	GET    /v1/jobs/{id}/result the bare Result envelope, golden-pinned bytes
//	GET    /v1/jobs/{id}/events NDJSON progress frames, then one result frame
//	DELETE /v1/jobs/{id}        cancel (queued or mid-run)
//	GET    /v1/protocols        the registry's Spec schemas
//	GET    /healthz             liveness + pool/cache counters
//
// Execution happens on a bounded runner.Pool: submissions beyond the
// queue capacity are rejected with 503 (backpressure, not buffering),
// and identical deterministic submissions — same canonical job identity
// per job.Job.CacheKey — are answered from an LRU result cache without
// re-simulation. Shutdown drains gracefully: in-flight jobs are canceled
// through their contexts (their Results carry Reason == "canceled"),
// queued jobs are rejected, and new submissions get 503.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"log"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"shapesol/internal/job"
	"shapesol/internal/runner"
	"shapesol/internal/sched"
	"shapesol/internal/snap"
)

// Config parameterizes a Server. The zero value is usable: Default
// registry, one worker per core, a 64-deep queue, a 256-entry cache and
// a 100ms progress-frame throttle.
type Config struct {
	// Registry resolves protocol names; nil means job.Default.
	Registry *job.Registry
	// Workers is the pool size; values < 1 mean "all cores".
	Workers int
	// Queue bounds the number of accepted-but-not-started jobs; beyond
	// it, POST /v1/jobs answers 503. Values < 1 mean 64.
	Queue int
	// CacheSize bounds the LRU result cache; 0 means 256, negative
	// disables caching.
	CacheSize int
	// MaxJobs bounds the retained job records: beyond it, the oldest
	// settled jobs are evicted as new submissions arrive (their ids then
	// answer 404). Values < 1 mean 4096.
	MaxJobs int
	// FrameInterval throttles progress frames per job: at most one frame
	// per interval is fanned out to stream subscribers (the engines call
	// Progress every CheckEvery = 256 steps, far too often to serialize
	// onto an HTTP stream). 0 means 100ms; negative publishes every
	// callback (tests).
	FrameInterval time.Duration
	// DataDir, when set, makes the daemon durable: an append-only journal
	// of admissions and settlements (replayed into the store and result
	// cache at boot) plus periodic snapshots of running jobs, from which
	// interrupted work is re-enqueued at the next boot. Empty keeps the
	// daemon fully in-memory.
	DataDir string
	// CheckpointEvery throttles the running-job snapshots: at most one
	// checkpoint write per interval per job, on the engines' Progress
	// cadence. 0 means 2s; negative checkpoints on every callback
	// (tests). Ignored without a DataDir.
	CheckpointEvery time.Duration
}

func (c Config) withDefaults() Config {
	if c.Registry == nil {
		c.Registry = job.Default
	}
	if c.Queue < 1 {
		c.Queue = 64
	}
	if c.CacheSize == 0 {
		c.CacheSize = 256
	}
	if c.MaxJobs < 1 {
		c.MaxJobs = 4096
	}
	if c.FrameInterval == 0 {
		c.FrameInterval = 100 * time.Millisecond
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 2 * time.Second
	}
	return c
}

// Server is the HTTP job service. Create with New, serve via ServeHTTP
// (it is an http.Handler), stop with Shutdown.
type Server struct {
	cfg     Config
	reg     *job.Registry
	pool    *runner.Pool
	store   *Table[*entry]
	cache   *Cache[job.Result]
	handler http.Handler
	persist *persister     // nil without a DataDir
	metrics *serverMetrics // always non-nil after New

	baseCtx    context.Context
	baseCancel context.CancelFunc
	draining   atomic.Bool
}

// New builds a Server and starts its worker pool. With a Config.DataDir
// it first recovers the previous incarnation's state: journaled
// settlements are reloaded into the store and the result cache, and jobs
// that were interrupted mid-run (crash or drain) are re-enqueued — from
// their latest checkpoint when one exists, from scratch otherwise.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		reg:   cfg.Registry,
		pool:  runner.NewPool(cfg.Workers, cfg.Queue),
		store: NewTable("j", cfg.MaxJobs, func(e *entry) bool { return e.status().State.Terminal() }),
		cache: NewCache[job.Result](cfg.CacheSize),
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.metrics = newServerMetrics(s)
	s.handler = NewHandler(s, cfg.Registry, s.metrics.reg)
	if cfg.DataDir != "" {
		p, err := openPersister(cfg.DataDir)
		if err != nil {
			s.pool.Close()
			return nil, err
		}
		p.observeFsync = s.metrics.fsync.Observe
		p.observeCheckpoint = s.metrics.checkpoint.Observe
		s.persist = p
		if err := s.recover(); err != nil {
			s.pool.Close()
			p.close()
			return nil, err
		}
	}
	return s, nil
}

// recover replays the journal into the store and cache and re-enqueues
// every interrupted job, preferring its latest checkpoint.
func (s *Server) recover() error {
	replayed, maxSeq, err := s.persist.replay()
	if err != nil {
		return err
	}
	// Keep the id sequence ahead of everything journaled, so fresh
	// submissions never collide with recovered ids.
	s.store.EnsureSeq(maxSeq)
	for _, r := range replayed {
		nj, spec, err := s.reg.Normalize(r.job)
		if err != nil {
			// A journal from a build with different specs; surface the job
			// as failed rather than dropping it silently.
			s.store.Put(r.id, &entry{id: r.id, job: r.job, state: StateFailed, errMsg: "recovery: " + err.Error(), trace: r.events})
			s.persist.removeCheckpoint(r.id)
			continue
		}
		e := &entry{id: r.id, job: nj, spec: spec, key: nj.CacheKey(), trace: r.events}
		if r.terminal {
			e.state, e.errMsg, e.result = r.state, r.errMsg, r.result
			s.store.Put(e.id, e)
			if r.state == StateDone && r.result != nil {
				s.cache.Put(e.key, *r.result)
			}
			s.persist.removeCheckpoint(r.id)
			continue
		}
		// Interrupted: re-enqueue, resuming from the checkpoint if there is
		// a valid one.
		e.state = StateQueued
		if data, err := s.persist.readCheckpoint(r.id); err == nil {
			if snapshot, err := snap.Decode(data); err != nil {
				log.Printf("server: job %s checkpoint unusable (%v), restarting from scratch", r.id, err)
			} else if rj, rspec, err := s.reg.ResumeJob(snapshot); err != nil {
				log.Printf("server: job %s checkpoint rejected (%v), restarting from scratch", r.id, err)
			} else {
				e.job, e.spec, e.resumed = rj, rspec, true
				e.steps.Store(snapshot.Steps)
			}
		} else if !errors.Is(err, fs.ErrNotExist) {
			log.Printf("server: job %s checkpoint unreadable (%v), restarting from scratch", r.id, err)
		}
		s.store.Put(e.id, e)
		s.traceEvent(e, TraceRecovered, "re-enqueued at boot", e.steps.Load())
		ctx, cancel := context.WithCancel(s.baseCtx)
		e.setCancel(cancel)
		if err := s.pool.TrySubmit(func() { s.execute(ctx, e) }); err != nil {
			cancel()
			e.finish(StateFailed, nil, "recovery: queue full")
		}
	}
	return nil
}

// ServeHTTP serves the shared /v1 surface (see NewHandler) with s as
// its Backend.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.handler.ServeHTTP(w, r)
}

// Shutdown drains the service: new submissions and queued jobs are
// rejected, in-flight jobs are canceled through their contexts (each
// finishes promptly — within one CheckEvery window — with Reason ==
// "canceled"), and Shutdown returns once every worker has recorded its
// job's terminal Status, or with ctx's error if that takes longer than
// the caller allows.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	for _, e := range s.store.All() {
		e.cancelQueued("server draining")
	}
	s.baseCancel()
	done := make(chan struct{})
	go func() {
		s.pool.Close()
		close(done)
	}()
	select {
	case <-done:
		s.persist.close()
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Draining implements Backend: true once Shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Admit implements Backend for submission and resume alike: cache
// lookup, store entry, journal record, pool submission. A full queue is
// a 503; a deterministic repeat of a cached run is answered 200
// complete, without touching the pool. A resumed admission carries its
// snapshot so the durability layer can seed the new id's checkpoint (a
// crash before the first fresh checkpoint then still resumes from the
// uploaded state rather than from scratch).
func (s *Server) Admit(w http.ResponseWriter, nj job.Job, spec *job.Spec, snapshot []byte) {
	resumed := snapshot != nil
	e := &entry{job: nj, spec: spec, key: nj.CacheKey(), state: StateQueued, resumed: resumed}
	if res, ok := s.cache.Get(e.key); ok {
		e.state, e.cached, e.result = StateDone, true, &res
		s.store.Add(e.withID)
		s.journalSubmit(e)
		s.traceEvent(e, TraceSubmitted, nj.Protocol+"/"+string(nj.Engine), 0)
		s.traceEvent(e, TraceCacheHit, "", res.Steps)
		s.traceEvent(e, TraceSettled, string(StateDone), res.Steps)
		s.journalResult(e.id, StateDone, "", &res)
		WriteJSON(w, http.StatusOK, e.status())
		return
	}
	if resumed {
		e.steps.Store(nj.Restore.Steps)
	}
	s.store.Add(e.withID)
	if resumed && s.persist != nil {
		// Seed the new id's checkpoint before the job can run (or settle):
		// if the daemon dies before the first fresh checkpoint, boot
		// recovery resumes from the uploaded state instead of scratch, and
		// a settling job correctly reaps this file rather than racing it.
		if err := s.persist.writeCheckpoint(e.id, snapshot); err != nil {
			log.Printf("server: seed checkpoint for %s: %v", e.id, err)
		}
	}
	// Stamp and record the admission events before the job can start, so
	// a fast job's running and settled events follow them; count and
	// journal them only once the pool accepts the job, so a refused
	// submission leaves no journal record.
	admission := []TraceEvent{e.addTrace(newTraceEvent(TraceSubmitted, nj.Protocol+"/"+string(nj.Engine), 0))}
	if resumed {
		admission = append(admission, e.addTrace(newTraceEvent(TraceResumed, "from snapshot", nj.Restore.Steps)))
	}
	admission = append(admission, e.addTrace(newTraceEvent(TraceQueued, "", 0)))
	ctx, cancel := context.WithCancel(s.baseCtx)
	e.setCancel(cancel)
	if err := s.pool.TrySubmit(func() { s.execute(ctx, e) }); err != nil {
		cancel()
		// Shed load without retaining state: the id was never exposed.
		s.store.Remove(e.id)
		if s.persist != nil {
			s.persist.removeCheckpoint(e.id)
		}
		if errors.Is(err, runner.ErrQueueFull) {
			WriteError(w, http.StatusServiceUnavailable, "queue full")
			return
		}
		WriteError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	s.journalSubmit(e)
	for _, ev := range admission {
		s.publishTrace(e, ev)
	}
	WriteJSON(w, http.StatusAccepted, e.status())
}

// journalSubmit / journalResult append to the journal when the daemon is
// durable; journal failures are logged, not fatal — the daemon keeps
// serving from memory.
func (s *Server) journalSubmit(e *entry) {
	if s.persist == nil {
		return
	}
	if err := s.persist.appendSubmit(e.id, e.job); err != nil {
		log.Printf("server: journal submit %s: %v", e.id, err)
	}
}

func (s *Server) journalResult(id string, state State, errMsg string, res *job.Result) {
	if s.persist == nil {
		return
	}
	if err := s.persist.appendResult(id, state, errMsg, res); err != nil {
		log.Printf("server: journal result %s: %v", id, err)
	}
	s.persist.removeCheckpoint(id)
}

// execute is the worker-side of one submission: run the normalized job
// with a progress publisher attached, record the terminal Status, and
// feed the result cache.
func (s *Server) execute(ctx context.Context, e *entry) {
	// Release the per-job child context whichever way the run ends, so
	// finished jobs do not accumulate in the base context's children.
	defer e.cancelRun()
	// A panic must not take the daemon (and every other running job) down
	// with it: the engines validate restored snapshots, but snapshots
	// cross a trust boundary (POST /v1/jobs/resume, on-disk checkpoints),
	// so any residual hole fails just this job.
	defer func() {
		if r := recover(); r != nil {
			msg := fmt.Sprintf("panic: %v", r)
			e.finish(StateFailed, nil, msg)
			s.journalResult(e.id, StateFailed, msg, nil)
		}
	}()
	if !e.tryStart() {
		return // canceled while queued
	}
	s.traceEvent(e, TraceRunning, "", e.steps.Load())
	jj := e.job
	// Attach the per-engine fleet counters; like Progress, Metrics is
	// observation-only and invisible to CacheKey and the goldens.
	jj.Metrics = s.metrics.engine(jj.Engine)
	var lastFrame time.Time
	jj.Progress = func(steps int64) {
		e.steps.Store(steps)
		if s.cfg.FrameInterval > 0 {
			now := time.Now()
			if now.Sub(lastFrame) < s.cfg.FrameInterval {
				return
			}
			lastFrame = now
		}
		e.publish(Frame{Type: "progress", ID: e.id, Steps: steps, State: StateRunning})
	}
	if s.persist != nil {
		var lastCp time.Time
		jj.Checkpoint = func(steps int64, capture func() (*snap.Snapshot, error)) {
			if s.cfg.CheckpointEvery > 0 {
				now := time.Now()
				if now.Sub(lastCp) < s.cfg.CheckpointEvery {
					return
				}
				lastCp = now
			}
			snapshot, err := capture()
			if err != nil {
				log.Printf("server: capture %s at step %d: %v", e.id, steps, err)
				return
			}
			data, err := snapshot.Encode()
			if err == nil {
				err = s.persist.writeCheckpoint(e.id, data)
			}
			if err != nil {
				log.Printf("server: checkpoint %s at step %d: %v", e.id, steps, err)
				return
			}
			s.traceEvent(e, TraceCheckpointed, "", steps)
		}
	}
	res, err := job.RunNormalized(ctx, jj, e.spec)
	switch {
	case err != nil:
		e.finish(StateFailed, nil, err.Error())
		s.traceEvent(e, TraceSettled, string(StateFailed)+": "+err.Error(), 0)
		s.journalResult(e.id, StateFailed, err.Error(), nil)
	case res.Reason == job.ReasonCanceled:
		e.finish(StateCanceled, &res, "")
		// A user DELETE settles the job for good; a drain (or any other
		// parent-context cancellation) is an interruption — the journal
		// keeps the admission open and the checkpoint in place, so the
		// next boot re-enqueues the job from where it stopped.
		if e.userCanceled.Load() {
			s.traceEvent(e, TraceSettled, string(StateCanceled), res.Steps)
			s.journalResult(e.id, StateCanceled, "", &res)
		}
	default:
		// Feed the cache before finish publishes completion, so a watcher
		// that resubmits the identical job the instant it sees the result
		// frame cannot race past the cache into a re-simulation.
		s.cache.Put(e.key, res)
		e.finish(StateDone, &res, "")
		s.traceEvent(e, TraceSettled, string(StateDone), res.Steps)
		s.journalResult(e.id, StateDone, "", &res)
	}
}

// Jobs implements Backend.
func (s *Server) Jobs() []Status {
	es := s.store.All()
	out := make([]Status, len(es))
	for i, e := range es {
		out[i] = e.status()
	}
	return out
}

// Job implements Backend.
func (s *Server) Job(id string) (Handle, bool) {
	e, ok := s.store.Get(id)
	return handle{s, e}, ok
}

// handle is a store entry as the shared handlers see it.
type handle struct {
	s *Server
	e *entry
}

func (h handle) Status() Status { return h.e.status() }

func (h handle) Trace() []TraceEvent { return h.e.traceEvents() }

// Result marshals the still-typed payload, so field order matches the
// goldens, which a decode-and-re-marshal through a generic map would not
// preserve.
func (h handle) Result() ([]byte, Status, error) {
	st := h.e.status()
	if !st.State.Terminal() || st.Result == nil {
		return nil, st, nil
	}
	body, err := json.MarshalIndent(st.Result, "", "  ")
	if err != nil {
		return nil, st, err
	}
	return append(body, '\n'), st, nil
}

// Snapshot reads the job's latest persisted checkpoint.
func (h handle) Snapshot() ([]byte, error) {
	if h.s.persist == nil {
		return nil, errors.New("daemon runs without -data-dir; snapshots are not persisted")
	}
	data, err := h.s.persist.readCheckpoint(h.e.id)
	if err != nil {
		return nil, nil
	}
	return data, nil
}

// Cancel settles a queued job to canceled immediately; a running one has
// its context canceled and settles when the engine observes it.
func (h handle) Cancel() Status {
	e := h.e
	e.userCanceled.Store(true)
	if e.cancelQueued("canceled") {
		h.s.traceEvent(e, TraceSettled, string(StateCanceled)+" while queued", 0)
		h.s.journalResult(e.id, StateCanceled, "canceled", nil)
	}
	e.cancelRun()
	return e.status()
}

// Events emits one frame per publisher tick (see Config.FrameInterval),
// then the terminal Status as the result frame. Subscribing to a
// finished job yields the result frame immediately.
func (h handle) Events(ctx context.Context, emit func(Frame) bool) {
	e := h.e
	ch := e.subscribe()
	// An initial snapshot frame, so a watcher sees the job's state
	// without waiting out a long quiet stretch of the engine.
	if st := e.status(); !st.State.Terminal() {
		if !emit(Frame{Type: "progress", ID: e.id, Steps: st.Steps, State: st.State}) {
			e.unsubscribe(ch)
			return
		}
	}
	for {
		select {
		case f, open := <-ch:
			if !open {
				emit(e.status().ResultFrame())
				return
			}
			if !emit(f) {
				e.unsubscribe(ch)
				return
			}
		case <-ctx.Done():
			e.unsubscribe(ch)
			return
		}
	}
}

// ProtocolInfo is the wire projection of a registered Spec. Fault is the
// full schema of the "fault" parameter's profile object (scheduler kinds,
// rates, fault clocks, with per-field engine support), present on every
// spec that takes one, so clients can construct valid profiles from the
// listing alone.
type ProtocolInfo struct {
	Name    string            `json:"name"`
	Title   string            `json:"title"`
	Paper   string            `json:"paper"`
	Engines []job.Engine      `json:"engines"`
	Budget  int64             `json:"budget"`
	Params  []ParamInfo       `json:"params,omitempty"`
	Fault   []sched.FieldSpec `json:"fault,omitempty"`
}

// ParamInfo is one parameter row of a ProtocolInfo.
type ParamInfo struct {
	Name     string `json:"name"`
	Usage    string `json:"usage"`
	Required bool   `json:"required,omitempty"`
	Default  any    `json:"default,omitempty"`
	Min      int    `json:"min,omitempty"`
}

// protocolsPayload renders the registry as the GET /v1/protocols body.
func protocolsPayload(reg *job.Registry) []ProtocolInfo {
	names := reg.Names()
	out := make([]ProtocolInfo, 0, len(names))
	for _, name := range names {
		spec, _ := reg.Get(name)
		info := ProtocolInfo{
			Name:    spec.Name,
			Title:   spec.Title,
			Paper:   spec.Paper,
			Engines: spec.Engines,
			Budget:  spec.Budget,
		}
		for _, f := range spec.Params {
			p := ParamInfo{Name: f.Name, Usage: f.Usage, Required: f.Required, Min: f.Min}
			if f.DefaultStr != "" {
				p.Default = f.DefaultStr
			} else if f.Default != 0 {
				p.Default = f.Default
			}
			info.Params = append(info.Params, p)
			if f.Name == "fault" {
				info.Fault = sched.Schema()
			}
		}
		out = append(out, info)
	}
	return out
}

// health is the /healthz body.
type health struct {
	Status      string `json:"status"`
	Draining    bool   `json:"draining,omitempty"`
	Jobs        int    `json:"jobs"`
	CacheLen    int    `json:"cache_len"`
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	Protocols   string `json:"protocols"`
}

// Health implements Backend.
func (s *Server) Health() any {
	hits, misses := s.cache.Stats()
	return health{
		Status:      "ok",
		Draining:    s.draining.Load(),
		Jobs:        s.store.Len(),
		CacheLen:    s.cache.Len(),
		CacheHits:   hits,
		CacheMisses: misses,
		Protocols:   strings.Join(s.reg.Names(), ","),
	}
}
