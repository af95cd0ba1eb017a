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
	"io"
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
	store   *store
	cache   *Cache
	mux     *http.ServeMux
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
		store: newStore(cfg.MaxJobs),
		cache: NewCache(cfg.CacheSize),
		mux:   http.NewServeMux(),
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.metrics = newServerMetrics(s)
	for _, rt := range s.routes() {
		s.mux.HandleFunc(rt.pattern, s.metrics.instrument(rt.pattern, rt.handler))
	}
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

// route pairs one mux pattern with its handler. routes below is the
// single source of the service's HTTP surface: New registers from it,
// and Routes exposes the patterns so the API reference (API.md) can be
// pinned against the mux by test.
type route struct {
	pattern string
	handler http.HandlerFunc
}

func (s *Server) routes() []route {
	return []route{
		{"POST /v1/jobs", s.handleSubmit},
		{"POST /v1/jobs/resume", s.handleResume},
		{"GET /v1/jobs", s.handleList},
		{"GET /v1/jobs/{id}", s.handleStatus},
		{"GET /v1/jobs/{id}/result", s.handleResult},
		{"GET /v1/jobs/{id}/snapshot", s.handleSnapshot},
		{"DELETE /v1/jobs/{id}", s.handleCancel},
		{"GET /v1/jobs/{id}/events", s.handleEvents},
		{"GET /v1/jobs/{id}/trace", s.handleTrace},
		{"GET /v1/protocols", s.handleProtocols},
		{"GET /healthz", s.handleHealth},
		{"GET /metrics", s.handleMetrics},
	}
}

// Routes returns the mux patterns of every endpoint a Server registers,
// in registration order.
func Routes() []string {
	var s *Server // handlers are method values, never invoked here
	rts := s.routes()
	out := make([]string, len(rts))
	for i, rt := range rts {
		out[i] = rt.pattern
	}
	return out
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
	s.store.ensureSeq(maxSeq)
	for _, r := range replayed {
		nj, spec, err := s.reg.Normalize(r.job)
		if err != nil {
			// A journal from a build with different specs; surface the job
			// as failed rather than dropping it silently.
			e := s.store.addWithID(r.id, r.job, nil, "", StateFailed)
			e.mu.Lock()
			e.errMsg = "recovery: " + err.Error()
			e.trace = r.events
			e.mu.Unlock()
			s.persist.removeCheckpoint(r.id)
			continue
		}
		key := nj.CacheKey()
		if r.terminal {
			e := s.store.addWithID(r.id, nj, spec, key, r.state)
			e.mu.Lock()
			e.errMsg = r.errMsg
			e.result = r.result
			e.trace = r.events
			e.mu.Unlock()
			if r.state == StateDone && r.result != nil {
				s.cache.Put(key, *r.result)
			}
			s.persist.removeCheckpoint(r.id)
			continue
		}
		// Interrupted: re-enqueue, resuming from the checkpoint if there is
		// a valid one.
		e := s.store.addWithID(r.id, nj, spec, key, StateQueued)
		e.mu.Lock()
		e.trace = r.events
		e.mu.Unlock()
		if data, err := s.persist.readCheckpoint(r.id); err == nil {
			if snapshot, err := snap.Decode(data); err != nil {
				log.Printf("server: job %s checkpoint unusable (%v), restarting from scratch", r.id, err)
			} else if rj, rspec, err := s.reg.ResumeJob(snapshot); err != nil {
				log.Printf("server: job %s checkpoint rejected (%v), restarting from scratch", r.id, err)
			} else {
				e.job, e.spec = rj, rspec
				e.markResumed()
				e.steps.Store(snapshot.Steps)
			}
		} else if !errors.Is(err, fs.ErrNotExist) {
			log.Printf("server: job %s checkpoint unreadable (%v), restarting from scratch", r.id, err)
		}
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

// ServeHTTP dispatches to the service's routes.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Shutdown drains the service: new submissions and queued jobs are
// rejected, in-flight jobs are canceled through their contexts (each
// finishes promptly — within one CheckEvery window — with Reason ==
// "canceled"), and Shutdown returns once every worker has recorded its
// job's terminal Status, or with ctx's error if that takes longer than
// the caller allows.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	for _, e := range s.store.all() {
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

// ErrorBody is the JSON shape of every non-2xx response. Fields carries
// the per-field breakdown when the failure is a fault-profile validation
// error, so clients can pinpoint every offending profile field at once.
// Exported because the cluster coordinator speaks the same error dialect.
type ErrorBody struct {
	Error  string             `json:"error"`
	Fields []sched.FieldError `json:"fields,omitempty"`
}

// WriteJSON writes v as the service's canonical JSON response form:
// two-space indented, Content-Type application/json.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // nothing to do about a failed response write
}

// WriteError writes an ErrorBody with the given message.
func WriteError(w http.ResponseWriter, code int, msg string) {
	WriteJSON(w, code, ErrorBody{Error: msg})
}

// WriteValidationError is WriteError for admission failures: when the
// cause is a *sched.ValidationError (an invalid fault profile), the 400
// body carries its field-level entries alongside the message.
func WriteValidationError(w http.ResponseWriter, err error) {
	var ve *sched.ValidationError
	if errors.As(err, &ve) {
		WriteJSON(w, http.StatusBadRequest, ErrorBody{Error: err.Error(), Fields: ve.Fields})
		return
	}
	WriteError(w, http.StatusBadRequest, err.Error())
}

// handleSubmit validates and enqueues one Job. Validation failures
// (unknown protocol or engine, parameters outside the Spec's schema,
// unknown JSON fields) are 400s; a full queue or a draining server is a
// 503; a deterministic repeat of a cached run is answered 200 complete,
// without touching the pool.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		WriteError(w, http.StatusServiceUnavailable, "server draining")
		return
	}
	var j job.Job
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&j); err != nil {
		WriteError(w, http.StatusBadRequest, "bad job JSON: "+err.Error())
		return
	}
	nj, spec, err := s.reg.Normalize(j)
	if err != nil {
		WriteValidationError(w, err)
		return
	}
	s.admit(w, nj, spec, false, nil)
}

// admit runs the shared tail of submission and resume: cache lookup,
// store entry, journal record, pool submission. A resumed admission
// carries its snapshot so the durability layer can seed the new id's
// checkpoint (a crash before the first fresh checkpoint then still
// resumes from the uploaded state rather than from scratch).
func (s *Server) admit(w http.ResponseWriter, nj job.Job, spec *job.Spec, resumed bool, snapshot []byte) {
	key := nj.CacheKey()
	if res, ok := s.cache.Get(key); ok {
		e := s.store.add(nj, spec, key, StateDone)
		if resumed {
			e.markResumed()
		}
		e.setCached(&res)
		s.journalSubmit(e)
		s.traceEvent(e, TraceSubmitted, nj.Protocol+"/"+string(nj.Engine), 0)
		s.traceEvent(e, TraceCacheHit, "", res.Steps)
		s.traceEvent(e, TraceSettled, string(StateDone), res.Steps)
		s.journalResult(e.id, StateDone, "", &res)
		WriteJSON(w, http.StatusOK, e.status())
		return
	}
	e := s.store.add(nj, spec, key, StateQueued)
	if resumed {
		e.markResumed()
		e.steps.Store(nj.Restore.Steps)
		// Seed the new id's checkpoint before the job can run (or settle):
		// if the daemon dies before the first fresh checkpoint, boot
		// recovery resumes from the uploaded state instead of scratch, and
		// a settling job correctly reaps this file rather than racing it.
		if s.persist != nil {
			if err := s.persist.writeCheckpoint(e.id, snapshot); err != nil {
				log.Printf("server: seed checkpoint for %s: %v", e.id, err)
			}
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
		s.store.remove(e.id)
		if s.persist != nil {
			s.persist.removeCheckpoint(e.id)
		}
		if errors.Is(err, runner.ErrQueueFull) {
			WriteError(w, http.StatusServiceUnavailable, "queue full")
			return
		}
		WriteError(w, http.StatusServiceUnavailable, "server draining")
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

func (s *Server) entryFor(w http.ResponseWriter, r *http.Request) (*entry, bool) {
	e, ok := s.store.get(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, "no such job "+r.PathValue("id"))
		return nil, false
	}
	return e, true
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.store.list())
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	e, ok := s.entryFor(w, r)
	if !ok {
		return
	}
	WriteJSON(w, http.StatusOK, e.status())
}

// handleResult serves the bare Result envelope of a finished job,
// byte-identical (MarshalIndent, two-space, trailing newline) to the
// golden-pinned form internal/job's tests check — the payload is still
// the typed outcome struct here, so field order matches the goldens,
// which a decode-and-re-marshal through a generic map would not
// preserve. 409 until the job is terminal; 404 when it settled without
// ever running (canceled while queued, failed).
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	e, ok := s.entryFor(w, r)
	if !ok {
		return
	}
	st := e.status()
	if !st.State.Terminal() {
		WriteError(w, http.StatusConflict, "job "+st.ID+" not finished (state "+string(st.State)+")")
		return
	}
	if st.Result == nil {
		WriteError(w, http.StatusNotFound, "job "+st.ID+" has no result: "+st.Error)
		return
	}
	body, err := json.MarshalIndent(st.Result, "", "  ")
	if err != nil {
		WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(append(body, '\n')) //nolint:errcheck // nothing to do about a failed response write
}

// handleCancel cancels a job. A queued job is settled to canceled
// immediately; a running one has its context canceled and settles when
// the engine observes it (poll or stream to see the final Status, whose
// Result carries Reason == "canceled"). Canceling a terminal job is an
// idempotent no-op.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	e, ok := s.entryFor(w, r)
	if !ok {
		return
	}
	e.userCanceled.Store(true)
	wasQueued := e.cancelQueued("canceled")
	if wasQueued {
		s.traceEvent(e, TraceSettled, string(StateCanceled)+" while queued", 0)
		s.journalResult(e.id, StateCanceled, "canceled", nil)
	}
	e.cancelRun()
	st := e.status()
	code := http.StatusOK
	if !st.State.Terminal() {
		code = http.StatusAccepted // mid-run: the engine will settle it shortly
	}
	WriteJSON(w, code, st)
}

// handleSnapshot serves the job's latest persisted checkpoint — the
// durable snapshot a client can download, ship elsewhere, and feed back
// through POST /v1/jobs/resume (or shapesolctl resume / job.Resume).
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	e, ok := s.entryFor(w, r)
	if !ok {
		return
	}
	if s.persist == nil {
		WriteError(w, http.StatusNotFound, "daemon runs without -data-dir; snapshots are not persisted")
		return
	}
	data, err := s.persist.readCheckpoint(e.id)
	if err != nil {
		WriteError(w, http.StatusNotFound, "job "+e.id+" has no checkpoint (none captured yet, or it already settled)")
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	w.Write(data) //nolint:errcheck // nothing to do about a failed response write
}

// handleResume admits a snapshot (the raw bytes of a snapshot file) as a
// new job that continues the frozen run. The snapshot is self-contained —
// its embedded normalized job is validated like any submission — and the
// admission goes through the same cache, journal and backpressure path,
// so a snapshot of an already-cached deterministic run is answered
// without re-simulation.
func (s *Server) handleResume(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		WriteError(w, http.StatusServiceUnavailable, "server draining")
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 256<<20))
	if err != nil {
		WriteError(w, http.StatusBadRequest, "read snapshot: "+err.Error())
		return
	}
	snapshot, err := snap.Decode(data)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	nj, spec, err := s.reg.ResumeJob(snapshot)
	if err != nil {
		WriteValidationError(w, err)
		return
	}
	s.admit(w, nj, spec, true, data)
}

// handleEvents streams a job's progress as NDJSON: one frame per
// publisher tick (see Config.FrameInterval), then exactly one "result"
// frame with the terminal Status, then EOF. Subscribing to a finished
// job yields the result frame immediately.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	e, ok := s.entryFor(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	emit := func(f Frame) bool {
		if err := enc.Encode(f); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
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
				emit(e.resultFrame())
				return
			}
			if !emit(f) {
				e.unsubscribe(ch)
				return
			}
		case <-r.Context().Done():
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

// ProtocolsPayload renders the registry as the GET /v1/protocols body.
// Shared with the cluster coordinator, which serves the same listing
// locally instead of proxying it.
func ProtocolsPayload(reg *job.Registry) []ProtocolInfo {
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

func (s *Server) handleProtocols(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, ProtocolsPayload(s.reg))
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

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	hits, misses := s.cache.Stats()
	WriteJSON(w, http.StatusOK, health{
		Status:      "ok",
		Draining:    s.draining.Load(),
		Jobs:        s.store.len(),
		CacheLen:    s.cache.Len(),
		CacheHits:   hits,
		CacheMisses: misses,
		Protocols:   strings.Join(s.reg.Names(), ","),
	})
}
