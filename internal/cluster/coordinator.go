package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"shapesol/internal/job"
	"shapesol/internal/server"
)

// Config parameterizes a Coordinator. The zero value is usable: Default
// registry, 2s heartbeats with a miss budget of 3, 1s mirror cadence,
// a 256-entry result cache and 64 virtual nodes per worker.
type Config struct {
	// Registry resolves protocol names for validation and the local
	// /v1/protocols listing; nil means job.Default.
	Registry *job.Registry
	// HeartbeatEvery is the heartbeat cadence the coordinator dictates to
	// workers at registration. 0 means 2s.
	HeartbeatEvery time.Duration
	// MissBudget is how many consecutive heartbeat intervals a worker may
	// stay silent before it is marked dead and its in-flight jobs fail
	// over to survivors. Values < 1 mean 3.
	MissBudget int
	// PullEvery is the maintenance cadence: death sweep, pending-job
	// reassignment, and the status/checkpoint mirror of running jobs.
	// 0 means 1s.
	PullEvery time.Duration
	// CacheSize bounds the coordinator's LRU result cache fronting the
	// workers' own caches; 0 means 256, negative disables.
	CacheSize int
	// MaxJobs bounds retained job records, like server.Config.MaxJobs.
	// Values < 1 mean 4096.
	MaxJobs int
	// VNodes is the virtual-node count per worker on the hash ring;
	// values < 1 mean 64.
	VNodes int
	// Client makes the unary proxy calls; nil means a 30s-timeout client.
	// Event streams use a dedicated timeout-free client regardless.
	Client *http.Client
	// Logf receives operational log lines; nil means log.Printf.
	Logf func(format string, v ...any)
}

func (c Config) withDefaults() Config {
	if c.Registry == nil {
		c.Registry = job.Default
	}
	if c.HeartbeatEvery == 0 {
		c.HeartbeatEvery = 2 * time.Second
	}
	if c.MissBudget < 1 {
		c.MissBudget = 3
	}
	if c.PullEvery == 0 {
		c.PullEvery = time.Second
	}
	if c.CacheSize == 0 {
		c.CacheSize = 256
	}
	if c.MaxJobs < 1 {
		c.MaxJobs = 4096
	}
	if c.VNodes < 1 {
		c.VNodes = 64
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return c
}

// node is the coordinator's view of one registered worker.
type node struct {
	name       string
	url        string
	alive      bool
	lastBeat   time.Time
	registered time.Time
}

// record is the coordinator's view of one submitted job: where it lives,
// what is known about its state, and the material needed to move it — the
// normalized submission body for a from-scratch restart and the latest
// mirrored checkpoint for a resume-where-it-left-off handoff.
type record struct {
	id       string
	key      string // CacheKey: the normalized job JSON, also the (re)submission body
	protocol string
	engine   job.Engine
	seed     int64

	mu       sync.Mutex
	node     string // owning node name; "" while unassigned
	remoteID string // the job's id on the owning worker
	// pending marks an orphaned record awaiting reassignment. Only
	// failover sets it: a record mid-admission also has node == "" but
	// must not be grabbed by the maintenance loop's reassignment pass
	// while the submit handler is still placing it.
	pending      bool
	state        server.State
	resumed      bool
	cached       bool
	userCanceled bool
	steps        int64
	errMsg       string
	// trace is the job's coordinator-side lifecycle span events, in
	// recording order (see trace.go).
	trace     []server.TraceEvent
	result    *job.Result
	resultRaw []byte // the owner's raw /result bytes (golden-pinned form)
	snapshot  []byte // latest mirrored checkpoint, or the uploaded resume snapshot
}

// withID names a new record as the job table admits it (Table.Add).
func (rec *record) withID(id string) *record {
	rec.id = id
	return rec
}

func (rec *record) status() server.Status {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return rec.statusLocked()
}

func (rec *record) statusLocked() server.Status {
	st := server.Status{
		ID:       rec.id,
		Protocol: rec.protocol,
		Engine:   rec.engine,
		Seed:     rec.seed,
		State:    rec.state,
		Cached:   rec.cached,
		Resumed:  rec.resumed,
		Steps:    rec.steps,
		Error:    rec.errMsg,
		Result:   rec.result,
	}
	if rec.result != nil {
		st.Steps = rec.result.Steps
	}
	return st
}

// applyStatus folds a Status fetched from the owning worker into the
// record (the id is the worker's; the record keeps its own). It reports
// whether this call settled the record, so the caller can trace the
// settlement exactly once.
func (rec *record) applyStatus(st server.Status) (settled bool) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.state.Terminal() {
		return false
	}
	rec.state = st.State
	rec.steps = st.Steps
	if st.Resumed {
		rec.resumed = true
	}
	if st.Cached {
		rec.cached = true
	}
	if st.State.Terminal() {
		rec.result = st.Result
		rec.errMsg = st.Error
		return true
	}
	return false
}

// Coordinator fronts a fleet of shapesold workers behind the standalone
// daemon's /v1 API — the same handler set, with the coordinator as its
// server.Backend: it routes submissions by cache key over a
// consistent-hash ring, proxies per-job reads to the owning worker,
// mirrors running jobs' checkpoints, and on worker death re-enqueues the
// lost jobs on survivors from their latest checkpoint. Create with New,
// serve via ServeHTTP, stop with Shutdown.
type Coordinator struct {
	cfg     Config
	handler http.Handler
	client  *http.Client
	stream  *http.Client
	cache   *server.Cache[cachedResult]
	metrics *clusterMetrics

	// lastMirror is the UnixNano stamp of the last completed mirror
	// pass, read by the shapesol_cluster_mirror_lag_seconds gauge.
	lastMirror atomic.Int64

	jobs *server.Table[*record]

	mu    sync.Mutex // guards nodes, ring
	nodes map[string]*node
	ring  *Ring

	draining atomic.Bool
	done     chan struct{}
	wg       sync.WaitGroup
}

// New builds a Coordinator and starts its maintenance loop (death sweep,
// pending reassignment, checkpoint mirror) on the PullEvery cadence.
func New(cfg Config) *Coordinator {
	cfg = cfg.withDefaults()
	c := &Coordinator{
		cfg:    cfg,
		client: cfg.Client,
		stream: &http.Client{},
		cache:  server.NewCache[cachedResult](cfg.CacheSize),
		nodes:  make(map[string]*node),
		ring:   NewRing(cfg.VNodes),
		jobs:   server.NewTable("c", cfg.MaxJobs, func(rec *record) bool { return rec.status().State.Terminal() }),
		done:   make(chan struct{}),
	}
	c.metrics = newClusterMetrics(c)
	c.handler = server.NewHandler(c, cfg.Registry, c.metrics.reg, c.routes()...)
	c.wg.Add(1)
	go c.maintain()
	return c
}

// routes are the coordinator's membership routes, served beside the
// shared /v1 surface (server.NewHandler) under the same route timer;
// Routes exposes the patterns for the API.md coverage test.
func (c *Coordinator) routes() []server.Route {
	return []server.Route{
		{Pattern: "POST /v1/cluster/register", Handler: c.handleRegister},
		{Pattern: "POST /v1/cluster/heartbeat", Handler: c.handleHeartbeat},
		{Pattern: "GET /v1/cluster/nodes", Handler: c.handleNodes},
	}
}

// Routes returns the mux patterns of the membership routes a
// Coordinator registers beside server.Routes, in registration order.
func Routes() []string {
	var c *Coordinator // handlers are method values, never invoked here
	rts := c.routes()
	out := make([]string, len(rts))
	for i, rt := range rts {
		out[i] = rt.Pattern
	}
	return out
}

// ServeHTTP serves the shared /v1 surface with c as its Backend, plus
// the membership routes.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.handler.ServeHTTP(w, r)
}

// Shutdown stops the maintenance loop and rejects new submissions.
// Workers drain themselves; their jobs keep running.
func (c *Coordinator) Shutdown() {
	if c.draining.Swap(true) {
		return
	}
	close(c.done)
	c.wg.Wait()
}

// ---------------------------------------------------------------------
// Membership: register / heartbeat / nodes.

// registerRequest is the body of POST /v1/cluster/register.
type registerRequest struct {
	// Name identifies the worker across re-registrations; URL is the base
	// URL the coordinator reaches it at (its advertise address).
	Name string `json:"name"`
	URL  string `json:"url"`
}

// registerResponse dictates the heartbeat contract to the worker.
type registerResponse struct {
	Name        string `json:"name"`
	HeartbeatMS int64  `json:"heartbeat_ms"`
	MissBudget  int    `json:"miss_budget"`
}

// heartbeatRequest is the body of POST /v1/cluster/heartbeat.
type heartbeatRequest struct {
	Name string `json:"name"`
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		server.WriteError(w, http.StatusBadRequest, "bad register JSON: "+err.Error())
		return
	}
	if req.Name == "" || req.URL == "" {
		server.WriteError(w, http.StatusBadRequest, "register needs name and url")
		return
	}
	now := time.Now()
	c.mu.Lock()
	n, known := c.nodes[req.Name]
	if !known {
		n = &node{name: req.Name, registered: now}
		c.nodes[req.Name] = n
	}
	n.url = strings.TrimRight(req.URL, "/")
	n.alive = true
	n.lastBeat = now
	c.ring.Add(req.Name)
	members := c.ring.Len()
	c.mu.Unlock()
	if known {
		c.cfg.Logf("cluster: worker %s re-registered at %s (%d in ring)", req.Name, req.URL, members)
	} else {
		c.cfg.Logf("cluster: worker %s joined at %s (%d in ring)", req.Name, req.URL, members)
	}
	server.WriteJSON(w, http.StatusOK, registerResponse{
		Name:        req.Name,
		HeartbeatMS: c.cfg.HeartbeatEvery.Milliseconds(),
		MissBudget:  c.cfg.MissBudget,
	})
}

// handleHeartbeat refreshes a worker's liveness. An unknown or
// already-dead worker gets 404: the agent reacts by re-registering,
// which is both the recovery path after a coordinator restart (the new
// incarnation starts with an empty ring and rebuilds it from the
// re-registrations) and the rejoin path for a worker that was declared
// dead while merely slow — its jobs have already failed over, so it
// must come back through register, as an empty node.
func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req heartbeatRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		server.WriteError(w, http.StatusBadRequest, "bad heartbeat JSON: "+err.Error())
		return
	}
	c.mu.Lock()
	n, ok := c.nodes[req.Name]
	if ok && n.alive {
		n.lastBeat = time.Now()
	}
	alive := ok && n.alive
	c.mu.Unlock()
	if !alive {
		server.WriteError(w, http.StatusNotFound, "unknown worker "+req.Name+"; re-register")
		return
	}
	server.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// NodeStatus is one row of GET /v1/cluster/nodes.
type NodeStatus struct {
	Name  string `json:"name"`
	URL   string `json:"url"`
	Alive bool   `json:"alive"`
	// LastHeartbeatAgoMS is the silence length; the worker is declared
	// dead once it exceeds MissBudget heartbeat intervals.
	LastHeartbeatAgoMS int64 `json:"last_heartbeat_ago_ms"`
	// Jobs lists the jobs currently assigned to this node.
	Jobs []NodeJob `json:"jobs,omitempty"`
}

// NodeJob is one assigned job in a NodeStatus.
type NodeJob struct {
	ID    string       `json:"id"`
	State server.State `json:"state"`
	// Snapshot reports whether the coordinator holds a mirrored
	// checkpoint of the job — i.e. whether a failover right now would
	// resume mid-run rather than restart from scratch.
	Snapshot bool `json:"snapshot,omitempty"`
}

func (c *Coordinator) handleNodes(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	c.mu.Lock()
	nodes := make([]*node, 0, len(c.nodes))
	for _, n := range c.nodes {
		nodes = append(nodes, n)
	}
	c.mu.Unlock()
	recs := c.jobs.All()

	byNode := make(map[string][]NodeJob)
	for _, rec := range recs {
		rec.mu.Lock()
		if rec.node != "" {
			byNode[rec.node] = append(byNode[rec.node], NodeJob{
				ID:       rec.id,
				State:    rec.state,
				Snapshot: rec.snapshot != nil,
			})
		}
		rec.mu.Unlock()
	}
	out := make([]NodeStatus, 0, len(nodes))
	for _, n := range nodes {
		out = append(out, NodeStatus{
			Name:               n.name,
			URL:                n.url,
			Alive:              n.alive,
			LastHeartbeatAgoMS: now.Sub(n.lastBeat).Milliseconds(),
			Jobs:               byNode[n.name],
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	server.WriteJSON(w, http.StatusOK, out)
}

// ---------------------------------------------------------------------
// Submission and routing.

// cachedResult is a coordinator cache entry: the decoded envelope for
// the Status, and the owner's raw /result bytes. Those bytes are
// golden-pinned, and a Result decoded from JSON carries its payload as a
// map whose re-encoding reorders keys, so a coordinator cache hit
// replays the original bytes, never a re-marshal.
type cachedResult struct {
	res job.Result
	raw []byte
}

// Draining implements server.Backend: true once Shutdown has begun.
func (c *Coordinator) Draining() bool { return c.draining.Load() }

// Admit implements server.Backend cluster-wide. A coordinator cache hit
// is answered 200 without a network hop; otherwise the job is routed by
// its cache key. A resume's snapshot is kept as the record's handoff
// state, so a worker death before the first mirrored checkpoint still
// resumes from the uploaded bytes rather than from scratch.
func (c *Coordinator) Admit(w http.ResponseWriter, nj job.Job, _ *job.Spec, snapshot []byte) {
	rec := &record{
		key:      nj.CacheKey(),
		protocol: nj.Protocol,
		engine:   nj.Engine,
		seed:     nj.Seed,
		state:    server.StateQueued,
		resumed:  snapshot != nil,
	}
	if hit, ok := c.cache.Get(rec.key); ok {
		rec.state, rec.cached, rec.result, rec.resultRaw = server.StateDone, true, &hit.res, hit.raw
		c.jobs.Add(rec.withID)
		c.traceEvent(rec, server.TraceSubmitted, string(nj.Engine)+" "+nj.Protocol, 0)
		c.traceEvent(rec, server.TraceCacheHit, "coordinator cache", 0)
		c.traceEvent(rec, server.TraceSettled, string(server.StateDone), hit.res.Steps)
		server.WriteJSON(w, http.StatusOK, rec.status())
		return
	}
	rec.snapshot = snapshot
	c.jobs.Add(rec.withID)
	c.traceEvent(rec, server.TraceSubmitted, string(nj.Engine)+" "+nj.Protocol, 0)
	c.placeAndRespond(w, rec, snapshot)
}

// placeAndRespond routes a just-admitted record and writes the outcome:
// the worker's own admission code (202 accepted, 200 cache hit on the
// worker) with the Status rewritten to the coordinator id, a raw
// passthrough of a worker-side rejection (503 queue full), or 503 when
// no live worker can take the job.
func (c *Coordinator) placeAndRespond(w http.ResponseWriter, rec *record, resumeData []byte) {
	code, errBody, err := c.place(rec, resumeData)
	if err != nil {
		c.jobs.Remove(rec.id)
		server.WriteError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	if errBody != nil {
		c.jobs.Remove(rec.id)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		w.Write(errBody) //nolint:errcheck // nothing to do about a failed response write
		return
	}
	server.WriteJSON(w, code, rec.status())
}

// place forwards the record to the ring owner of its cache key,
// walking past nodes that turn out unreachable (each such discovery
// marks the node dead, which fails its other jobs over too). resumeData
// non-nil sends POST /v1/jobs/resume with the snapshot bytes; nil sends
// the record's key, the normalized job's JSON, to POST /v1/jobs. On
// success the record's owner fields are updated and the worker's
// admission code is returned; a worker-side rejection is returned as
// (code, body); err is reserved for "no live worker could take it".
func (c *Coordinator) place(rec *record, resumeData []byte) (int, []byte, error) {
	tried := make(map[string]bool)
	for {
		c.mu.Lock()
		owner := c.ring.Owner(rec.key)
		var ownerURL string
		if owner != "" {
			ownerURL = c.nodes[owner].url
		}
		c.mu.Unlock()
		if owner == "" {
			return 0, nil, fmt.Errorf("no live workers")
		}
		if tried[owner] {
			return 0, nil, fmt.Errorf("no live worker accepted the job")
		}
		tried[owner] = true

		var resp *http.Response
		var err error
		if resumeData != nil {
			resp, err = c.client.Post(ownerURL+"/v1/jobs/resume", "application/octet-stream", bytes.NewReader(resumeData))
		} else {
			resp, err = c.client.Post(ownerURL+"/v1/jobs", "application/json", strings.NewReader(rec.key))
		}
		if err != nil {
			c.failNode(owner, "unreachable: "+err.Error())
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			c.failNode(owner, "read response: "+err.Error())
			continue
		}
		if resp.StatusCode >= 300 {
			return resp.StatusCode, body, nil
		}
		var st server.Status
		if err := json.Unmarshal(body, &st); err != nil {
			return 0, nil, fmt.Errorf("bad status from worker %s: %w", owner, err)
		}
		rec.mu.Lock()
		rec.node = owner
		rec.remoteID = st.ID
		rec.pending = false
		rec.mu.Unlock()
		c.traceEvent(rec, TraceRouted, owner, 0)
		c.settle(rec, st)
		if st.State == server.StateDone {
			// A cache hit on the worker: pull its raw bytes now, so the
			// coordinator cache only ever holds entries it can replay.
			c.mirrorResult(rec, ownerURL+"/v1/jobs/"+st.ID)
		}
		return resp.StatusCode, nil, nil
	}
}

// ---------------------------------------------------------------------
// Per-job proxying.

// Jobs implements server.Backend.
func (c *Coordinator) Jobs() []server.Status {
	recs := c.jobs.All()
	out := make([]server.Status, len(recs))
	for i, rec := range recs {
		out[i] = rec.status()
	}
	return out
}

// Job implements server.Backend.
func (c *Coordinator) Job(id string) (server.Handle, bool) {
	rec, ok := c.jobs.Get(id)
	return handle{c, rec}, ok
}

// owner returns the record's current assignment and the node's URL.
func (c *Coordinator) owner(rec *record) (name, url string, ok bool) {
	rec.mu.Lock()
	name = rec.node
	rec.mu.Unlock()
	if name == "" {
		return "", "", false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n, have := c.nodes[name]
	if !have {
		return "", "", false
	}
	return name, n.url, true
}

// jobURL returns the record's job URL on its owning worker,
// <worker>/v1/jobs/<worker-side id>; ok is false while it has no owner.
func (c *Coordinator) jobURL(rec *record) (string, bool) {
	_, url, ok := c.owner(rec)
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return url + "/v1/jobs/" + rec.remoteID, ok
}

// get fetches url with the unary client; a non-200 answer is an error.
func (c *Coordinator) get(url string) ([]byte, error) {
	resp, err := c.client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("%s: HTTP %d", url, resp.StatusCode)
	}
	return body, err
}

// settle folds a Status from the owning worker into the record, tracing
// the settlement when this call is the one that settled it.
func (c *Coordinator) settle(rec *record, st server.Status) {
	if rec.applyStatus(st) {
		c.traceEvent(rec, server.TraceSettled, string(st.State), st.Steps)
	}
}

// refresh polls the owning worker for the record's Status and folds it
// in (fetching the raw result bytes on completion). Best-effort: on any
// failure the record keeps its last known state.
func (c *Coordinator) refresh(rec *record) {
	if rec.status().State.Terminal() {
		return
	}
	url, ok := c.jobURL(rec)
	if !ok {
		return
	}
	body, err := c.get(url)
	var st server.Status
	if err != nil || json.Unmarshal(body, &st) != nil {
		return
	}
	c.settle(rec, st)
	if st.State == server.StateDone {
		c.mirrorResult(rec, url)
	}
}

// mirrorResult pulls the raw /result bytes of the worker job at url —
// the golden-pinned envelope form — into the record and the coordinator
// cache.
func (c *Coordinator) mirrorResult(rec *record, url string) {
	rec.mu.Lock()
	have := rec.resultRaw != nil
	rec.mu.Unlock()
	if have {
		return
	}
	raw, err := c.get(url + "/result")
	var res job.Result
	if err != nil || json.Unmarshal(raw, &res) != nil {
		return
	}
	rec.mu.Lock()
	rec.resultRaw = raw
	if rec.result == nil {
		rec.result = &res
	}
	rec.mu.Unlock()
	c.cache.Put(rec.key, cachedResult{res: res, raw: raw})
}

// handle is a coordinator record as the shared handlers see it. Its
// methods proxy to the owning worker, and fall back on what the record
// mirrored when the owner is gone.
type handle struct {
	c   *Coordinator
	rec *record
}

func (h handle) Status() server.Status {
	h.c.refresh(h.rec)
	return h.rec.status()
}

func (h handle) Trace() []server.TraceEvent {
	h.rec.mu.Lock()
	defer h.rec.mu.Unlock()
	return append([]server.TraceEvent(nil), h.rec.trace...)
}

// Result returns the owner's raw bytes as mirrored on completion —
// never a decode-and-re-marshal, which would reorder the payload.
func (h handle) Result() ([]byte, server.Status, error) {
	c, rec := h.c, h.rec
	c.refresh(rec)
	// A record can settle without raw bytes (through its event stream, or
	// with the owner gone right after completion): try the owner directly.
	// mirrorResult is a no-op once the bytes are in.
	if url, ok := c.jobURL(rec); ok {
		c.mirrorResult(rec, url)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return rec.resultRaw, rec.statusLocked(), nil
}

// Snapshot proxies the owner's latest checkpoint; when the owner is
// unreachable (dead, or the job is mid-failover) it serves the
// coordinator's own mirrored copy, so snapshots stay downloadable
// through a failure window.
func (h handle) Snapshot() ([]byte, error) {
	if url, ok := h.c.jobURL(h.rec); ok {
		if body, err := h.c.get(url + "/snapshot"); err == nil {
			return body, nil
		}
	}
	h.rec.mu.Lock()
	defer h.rec.mu.Unlock()
	return h.rec.snapshot, nil
}

// Cancel cancels cluster-wide: the record is marked user-canceled (so
// failover never resurrects it) and the DELETE is forwarded to the
// owning worker when one is reachable; otherwise the record settles
// locally.
func (h handle) Cancel() server.Status {
	c, rec := h.c, h.rec
	rec.mu.Lock()
	rec.userCanceled = true
	terminal := rec.state.Terminal()
	rec.mu.Unlock()
	if terminal {
		return rec.status()
	}
	if url, ok := c.jobURL(rec); ok {
		req, _ := http.NewRequest(http.MethodDelete, url, nil)
		if resp, err := c.client.Do(req); err == nil {
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr == nil && resp.StatusCode < 300 {
				var st server.Status
				if json.Unmarshal(body, &st) == nil {
					c.settle(rec, st)
				}
				return rec.status()
			}
		}
	}
	// No reachable owner: settle locally; the pending-reassignment path
	// skips user-canceled records.
	c.cancelLocally(rec)
	return rec.status()
}

// cancelLocally settles a record as canceled without its worker.
func (c *Coordinator) cancelLocally(rec *record) {
	rec.mu.Lock()
	settled := !rec.state.Terminal()
	if settled {
		rec.state = server.StateCanceled
		rec.errMsg = "canceled"
		rec.pending = false
	}
	rec.mu.Unlock()
	if settled {
		c.traceEvent(rec, server.TraceSettled, string(server.StateCanceled), 0)
	}
}

// Events streams the job's NDJSON frames through the coordinator,
// rewriting worker-side ids to the coordinator id. The stream survives
// failover: when the owner dies mid-stream the proxy waits for the
// reassignment and reattaches to the new owner, so a watcher sees one
// uninterrupted stream ending in exactly one result frame.
func (h handle) Events(ctx context.Context, emit func(server.Frame) bool) {
	c, rec := h.c, h.rec
	relabel := func(f server.Frame) bool {
		f.ID = rec.id
		return emit(f)
	}
	retry := c.cfg.PullEvery
	if retry <= 0 || retry > time.Second {
		retry = time.Second
	}
	for {
		if st := rec.status(); st.State.Terminal() {
			emit(st.ResultFrame())
			return
		}
		if url, ok := c.jobURL(rec); ok {
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/events", nil)
			if err != nil {
				return
			}
			if resp, err := c.stream.Do(req); err == nil {
				done := c.pumpFrames(resp.Body, rec, relabel)
				resp.Body.Close()
				if done {
					return
				}
			}
		}
		// Mid-failover, unreachable, or the upstream closed without a
		// result frame (the worker died mid-stream): wait, then reattach
		// to whoever owns the job by then.
		select {
		case <-ctx.Done():
			return
		case <-time.After(retry):
		}
	}
}

// pumpFrames copies one upstream NDJSON stream through emit, folding a
// terminal result frame into the record. It reports whether the stream
// completed (result frame seen or the client went away).
func (c *Coordinator) pumpFrames(body io.Reader, rec *record, emit func(server.Frame) bool) bool {
	sc := bufio.NewScanner(body)
	// Room for a full result frame: payloads of large runs exceed
	// bufio's 64K default.
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		var f server.Frame
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			continue
		}
		if f.Type == "result" {
			c.settle(rec, server.Status{
				State:  f.State,
				Cached: f.Cached,
				Steps:  f.Steps,
				Error:  f.Error,
				Result: f.Result,
			})
			emit(f)
			return true
		}
		if !emit(f) {
			return true // client went away
		}
	}
	return false
}

// clusterHealth is the coordinator's /healthz body.
type clusterHealth struct {
	Status      string `json:"status"`
	Role        string `json:"role"`
	Draining    bool   `json:"draining,omitempty"`
	Nodes       int    `json:"nodes"`
	Alive       int    `json:"alive"`
	Jobs        int    `json:"jobs"`
	CacheLen    int    `json:"cache_len"`
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	Protocols   string `json:"protocols"`
}

// Health implements server.Backend.
func (c *Coordinator) Health() any {
	c.mu.Lock()
	nodes, alive := len(c.nodes), 0
	for _, n := range c.nodes {
		if n.alive {
			alive++
		}
	}
	c.mu.Unlock()
	hits, misses := c.cache.Stats()
	return clusterHealth{
		Status:      "ok",
		Role:        "coordinator",
		Draining:    c.draining.Load(),
		Nodes:       nodes,
		Alive:       alive,
		Jobs:        c.jobs.Len(),
		CacheLen:    c.cache.Len(),
		CacheHits:   hits,
		CacheMisses: misses,
		Protocols:   strings.Join(c.cfg.Registry.Names(), ","),
	}
}

// ---------------------------------------------------------------------
// Maintenance: death sweep, failover, checkpoint mirror.

func (c *Coordinator) maintain() {
	defer c.wg.Done()
	ticker := time.NewTicker(c.cfg.PullEvery)
	defer ticker.Stop()
	for {
		select {
		case <-c.done:
			return
		case <-ticker.C:
			c.sweep()
			c.reassignPending()
			c.mirror()
		}
	}
}

// sweep declares workers dead once their silence exceeds the miss
// budget and fails their jobs over.
func (c *Coordinator) sweep() {
	limit := time.Duration(c.cfg.MissBudget) * c.cfg.HeartbeatEvery
	now := time.Now()
	c.mu.Lock()
	var dead []string
	for name, n := range c.nodes {
		if n.alive && now.Sub(n.lastBeat) > limit {
			dead = append(dead, name)
		}
	}
	c.mu.Unlock()
	sort.Strings(dead)
	for _, name := range dead {
		c.failNode(name, fmt.Sprintf("missed %d heartbeats", c.cfg.MissBudget))
	}
}

// failNode marks a worker dead, removes it from the ring, and
// re-enqueues its non-terminal jobs on survivors — from their latest
// mirrored checkpoint when one exists, from scratch otherwise.
func (c *Coordinator) failNode(name, why string) {
	c.mu.Lock()
	n, ok := c.nodes[name]
	if !ok || !n.alive {
		c.mu.Unlock()
		return
	}
	n.alive = false
	c.ring.Remove(name)
	var orphans []*record
	for _, rec := range c.jobs.All() {
		rec.mu.Lock()
		if rec.node == name && !rec.state.Terminal() {
			rec.node, rec.remoteID = "", ""
			rec.pending = true
			orphans = append(orphans, rec)
		}
		rec.mu.Unlock()
	}
	c.mu.Unlock()
	c.metrics.nodeFailures.Inc()
	c.cfg.Logf("cluster: worker %s dead (%s); %d in-flight jobs to fail over", name, why, len(orphans))
	for _, rec := range orphans {
		c.metrics.jobsOrphaned.Inc()
		c.traceEvent(rec, TraceFailover, "worker "+name+" "+why, 0)
		c.reassign(rec)
	}
}

// reassignPending retries records left unassigned by a failed
// reassignment (e.g. there were no survivors at the time).
func (c *Coordinator) reassignPending() {
	for _, rec := range c.jobs.All() {
		rec.mu.Lock()
		pending := rec.pending && !rec.state.Terminal()
		rec.mu.Unlock()
		if pending {
			c.reassign(rec)
		}
	}
}

// reassign places an orphaned record on a survivor. A user-canceled
// orphan settles instead of resurrecting; a resumable orphan goes
// through POST /v1/jobs/resume with the mirrored checkpoint.
func (c *Coordinator) reassign(rec *record) {
	rec.mu.Lock()
	if rec.state.Terminal() {
		rec.mu.Unlock()
		return
	}
	if rec.userCanceled {
		rec.mu.Unlock()
		c.cancelLocally(rec)
		return
	}
	snapshot := rec.snapshot
	rec.state = server.StateQueued
	rec.mu.Unlock()
	code, errBody, err := c.place(rec, snapshot)
	switch {
	case err != nil:
		// No live workers right now: stay pending, retried next sweep.
		c.cfg.Logf("cluster: job %s pending (%v)", rec.id, err)
	case errBody != nil:
		// A worker rejected the handoff (full queue, or — for a snapshot
		// from a different build — a validation error). Stay pending and
		// retry; backpressure clears, and persistent rejection is visible
		// in the logs rather than silently failing the job.
		c.cfg.Logf("cluster: job %s handoff rejected (HTTP %d): %s", rec.id, code, bytes.TrimSpace(errBody))
	default:
		from := "scratch"
		if snapshot != nil {
			from = "checkpoint"
		}
		rec.mu.Lock()
		if snapshot != nil {
			rec.resumed = true
		}
		owner := rec.node
		rec.mu.Unlock()
		c.metrics.jobsRehomed.Inc()
		if snapshot != nil {
			c.metrics.jobsResumed.Inc()
		}
		c.cfg.Logf("cluster: job %s failed over to %s from %s", rec.id, owner, from)
	}
}

// mirror refreshes every live job's status and pulls its latest
// checkpoint coordinator-side, which is what makes failover a resume
// rather than a restart.
func (c *Coordinator) mirror() {
	for _, rec := range c.jobs.All() {
		c.refresh(rec)
		if st := rec.status(); st.State.Terminal() || st.State == server.StateQueued {
			continue
		}
		url, ok := c.jobURL(rec)
		if !ok {
			continue
		}
		body, err := c.get(url + "/snapshot")
		if err != nil || len(body) == 0 {
			continue
		}
		rec.mu.Lock()
		rec.snapshot = body
		rec.mu.Unlock()
		c.metrics.mirrorPulls.Inc()
	}
	c.lastMirror.Store(time.Now().UnixNano())
}
