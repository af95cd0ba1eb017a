package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"time"

	"shapesol/internal/job"
	"shapesol/internal/obs"
	"shapesol/internal/sched"
	"shapesol/internal/snap"
)

// Backend is one role behind the /v1 job API. A standalone or worker
// daemon (*Server) runs jobs from its own store, pool and journal; the
// cluster coordinator routes them over its ring to workers. Everything
// the roles do alike — request decoding and validation, status codes,
// response framing, the route timer — lives in the handlers NewHandler
// builds, so a backend supplies only admission, its job table and its
// health body.
type Backend interface {
	// Draining reports a shutdown in progress; submissions then get 503.
	Draining() bool
	// Admit takes a normalized, validated job and writes the admission
	// response: 202 queued, 200 answered from a result cache, or 503.
	// snapshot holds the uploaded bytes of a resume, nil for a fresh
	// submission.
	Admit(w http.ResponseWriter, nj job.Job, spec *job.Spec, snapshot []byte)
	// Jobs lists every retained job's Status in submission order.
	Jobs() []Status
	// Job looks one retained job up by id.
	Job(id string) (Handle, bool)
	// Health returns the GET /healthz body.
	Health() any
}

// Handle is one job of a Backend, as the per-job routes see it.
type Handle interface {
	// Status returns the job's current Status.
	Status() Status
	// Result returns the bare Result envelope in its golden-pinned form
	// (two-space indented, trailing newline) once the job settled with
	// one, and nil bytes otherwise; st then tells "not finished" from
	// "settled without a Result".
	Result() (raw []byte, st Status, err error)
	// Snapshot returns the job's latest checkpoint, nil when it has none;
	// an error says why this backend cannot serve checkpoints at all.
	Snapshot() ([]byte, error)
	// Cancel cancels the job (a no-op once it is terminal) and returns
	// its Status afterwards.
	Cancel() Status
	// Events feeds the job's progress frames to emit and then exactly one
	// result frame, stopping early when emit fails or ctx ends.
	Events(ctx context.Context, emit func(Frame) bool)
	// Trace returns the job's lifecycle trace in recording order.
	Trace() []TraceEvent
}

// Route pairs one mux pattern with its handler.
type Route struct {
	Pattern string
	Handler http.HandlerFunc
}

// handlers is the /v1 job surface both roles serve over their Backend.
type handlers struct {
	b   Backend
	reg *job.Registry
	obs *obs.Registry
}

// routes is the single source of the shared HTTP surface: NewHandler
// registers from it, and Routes exposes the patterns so the API
// reference (API.md) can be pinned against the mux by test.
func (h *handlers) routes() []Route {
	return []Route{
		{"POST /v1/jobs", h.submit},
		{"POST /v1/jobs/resume", h.resume},
		{"GET /v1/jobs", h.list},
		{"GET /v1/jobs/{id}", h.status},
		{"GET /v1/jobs/{id}/result", h.result},
		{"GET /v1/jobs/{id}/snapshot", h.snapshot},
		{"DELETE /v1/jobs/{id}", h.cancel},
		{"GET /v1/jobs/{id}/events", h.events},
		{"GET /v1/jobs/{id}/trace", h.trace},
		{"GET /v1/protocols", h.protocols},
		{"GET /healthz", h.health},
		{"GET /metrics", h.metrics},
	}
}

// Routes returns the mux patterns of the shared /v1 surface, in
// registration order.
func Routes() []string {
	var h *handlers // handlers are method values, never invoked here
	rts := h.routes()
	out := make([]string, len(rts))
	for i, rt := range rts {
		out[i] = rt.Pattern
	}
	return out
}

// NewHandler serves the shared /v1 surface over b, plus the role's own
// extra routes. reg validates submissions and lists the protocols.
// metrics is served on GET /metrics; NewHandler adds to it the
// per-route latency histogram that times every route, and the draining
// flag and per-state job census read from b at scrape time.
func NewHandler(b Backend, reg *job.Registry, metrics *obs.Registry, extra ...Route) http.Handler {
	h := &handlers{b: b, reg: reg, obs: metrics}
	latency := metrics.HistogramVec("shapesol_http_request_duration_seconds",
		"HTTP request latency by mux route pattern.", nil, "route")
	metrics.GaugeFunc("shapesol_draining",
		"1 while the daemon is shutting down and rejecting submissions.",
		func() float64 {
			if b.Draining() {
				return 1
			}
			return 0
		})
	jobs := metrics.GaugeVec("shapesol_jobs",
		"Retained job records by lifecycle state.", "state")
	metrics.OnCollect(func() {
		counts := map[State]float64{
			StateQueued: 0, StateRunning: 0, StateDone: 0,
			StateFailed: 0, StateCanceled: 0,
		}
		for _, st := range b.Jobs() {
			counts[st.State]++
		}
		for state, n := range counts {
			jobs.With(string(state)).Set(n)
		}
	})
	mux := http.NewServeMux()
	for _, rt := range append(h.routes(), extra...) {
		hist, serve := latency.With(rt.Pattern), rt.Handler
		mux.HandleFunc(rt.Pattern, func(w http.ResponseWriter, r *http.Request) {
			t0 := time.Now()
			serve(w, r)
			hist.Observe(time.Since(t0).Seconds())
		})
	}
	return mux
}

// ErrorBody is the JSON shape of every non-2xx response. Fields carries
// the per-field breakdown when the failure is a fault-profile validation
// error, so clients can pinpoint every offending profile field at once.
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

// writeBytes writes a raw response body.
func writeBytes(w http.ResponseWriter, contentType string, body []byte) {
	w.Header().Set("Content-Type", contentType)
	w.WriteHeader(http.StatusOK)
	w.Write(body) //nolint:errcheck // nothing to do about a failed response write
}

// writeValidationError is WriteError for admission failures: when the
// cause is a *sched.ValidationError (an invalid fault profile), the 400
// body carries its field-level entries alongside the message.
func writeValidationError(w http.ResponseWriter, err error) {
	var ve *sched.ValidationError
	if errors.As(err, &ve) {
		WriteJSON(w, http.StatusBadRequest, ErrorBody{Error: err.Error(), Fields: ve.Fields})
		return
	}
	WriteError(w, http.StatusBadRequest, err.Error())
}

// submit validates one Job and hands it to the backend. Malformed or
// unknown-field JSON and everything Normalize rejects (unknown protocol
// or engine, parameters outside the Spec's schema) are 400s; a draining
// backend answers 503.
func (h *handlers) submit(w http.ResponseWriter, r *http.Request) {
	if h.b.Draining() {
		WriteError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	var j job.Job
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&j); err != nil {
		WriteError(w, http.StatusBadRequest, "bad job JSON: "+err.Error())
		return
	}
	nj, spec, err := h.reg.Normalize(j)
	if err != nil {
		writeValidationError(w, err)
		return
	}
	h.b.Admit(w, nj, spec, nil)
}

// resume admits a snapshot (the raw bytes of a snapshot file) as a new
// job that continues the frozen run. The snapshot is self-contained —
// its embedded normalized job is validated like any submission — and the
// admission goes through the backend's cache and backpressure path, so a
// snapshot of an already-cached deterministic run is answered without
// re-simulation.
func (h *handlers) resume(w http.ResponseWriter, r *http.Request) {
	if h.b.Draining() {
		WriteError(w, http.StatusServiceUnavailable, "draining")
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
	nj, spec, err := h.reg.ResumeJob(snapshot)
	if err != nil {
		writeValidationError(w, err)
		return
	}
	h.b.Admit(w, nj, spec, data)
}

// job resolves the path's job id, answering 404 when it is unknown.
func (h *handlers) job(w http.ResponseWriter, r *http.Request) (Handle, bool) {
	id := r.PathValue("id")
	hd, ok := h.b.Job(id)
	if !ok {
		WriteError(w, http.StatusNotFound, "no such job "+id)
	}
	return hd, ok
}

func (h *handlers) list(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, h.b.Jobs())
}

func (h *handlers) status(w http.ResponseWriter, r *http.Request) {
	if hd, ok := h.job(w, r); ok {
		WriteJSON(w, http.StatusOK, hd.Status())
	}
}

// result serves the bare Result envelope of a finished job, byte for
// byte the golden-pinned form internal/job's tests check. 409 until the
// job is terminal; 404 when it settled without ever running (canceled
// while queued, failed).
func (h *handlers) result(w http.ResponseWriter, r *http.Request) {
	hd, ok := h.job(w, r)
	if !ok {
		return
	}
	raw, st, err := hd.Result()
	switch {
	case err != nil:
		WriteError(w, http.StatusInternalServerError, err.Error())
	case raw != nil:
		writeBytes(w, "application/json", raw)
	case !st.State.Terminal():
		WriteError(w, http.StatusConflict, "job "+st.ID+" not finished (state "+string(st.State)+")")
	default:
		WriteError(w, http.StatusNotFound, "job "+st.ID+" has no result: "+st.Error)
	}
}

// snapshot serves the job's latest checkpoint — the durable snapshot a
// client can download, ship elsewhere, and feed back through POST
// /v1/jobs/resume (or shapesolctl resume / job.Resume).
func (h *handlers) snapshot(w http.ResponseWriter, r *http.Request) {
	hd, ok := h.job(w, r)
	if !ok {
		return
	}
	data, err := hd.Snapshot()
	switch {
	case err != nil:
		WriteError(w, http.StatusNotFound, err.Error())
	case data == nil:
		WriteError(w, http.StatusNotFound, "job "+r.PathValue("id")+" has no checkpoint (none captured yet, or it already settled)")
	default:
		writeBytes(w, "application/octet-stream", data)
	}
}

// cancel cancels a job: 200 with the settled Status, or 202 while the
// engine has yet to observe the cancellation (poll or stream to see the
// final Status, whose Result carries Reason == "canceled"). Canceling a
// terminal job is an idempotent no-op.
func (h *handlers) cancel(w http.ResponseWriter, r *http.Request) {
	hd, ok := h.job(w, r)
	if !ok {
		return
	}
	st := hd.Cancel()
	code := http.StatusOK
	if !st.State.Terminal() {
		code = http.StatusAccepted
	}
	WriteJSON(w, code, st)
}

// events streams a job's progress as NDJSON, one flushed line per
// frame, ending in exactly one "result" frame.
func (h *handlers) events(w http.ResponseWriter, r *http.Request) {
	hd, ok := h.job(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	hd.Events(r.Context(), func(f Frame) bool {
		if err := enc.Encode(f); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	})
}

// traceBody is the GET /v1/jobs/{id}/trace response.
type traceBody struct {
	ID     string       `json:"id"`
	Events []TraceEvent `json:"events"`
}

func (h *handlers) trace(w http.ResponseWriter, r *http.Request) {
	if hd, ok := h.job(w, r); ok {
		WriteJSON(w, http.StatusOK, traceBody{ID: r.PathValue("id"), Events: hd.Trace()})
	}
}

func (h *handlers) protocols(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, protocolsPayload(h.reg))
}

func (h *handlers) health(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, h.b.Health())
}

// metrics serves the Prometheus text exposition.
func (h *handlers) metrics(w http.ResponseWriter, r *http.Request) {
	h.obs.Handler().ServeHTTP(w, r)
}
