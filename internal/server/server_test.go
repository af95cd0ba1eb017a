package server

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"shapesol/internal/job"
)

// mustNew builds a server, failing the test on configuration errors.
func mustNew(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// postJob submits body and decodes the response.
func postJob(t *testing.T, s http.Handler, body string) (int, Status, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(body)))
	var st Status
	if rec.Code < 300 {
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatalf("bad response %q: %v", rec.Body.String(), err)
		}
	}
	return rec.Code, st, rec.Body.String()
}

// getStatus polls one job's Status.
func getStatus(t *testing.T, s http.Handler, id string) Status {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/jobs/"+id, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/jobs/%s = %d: %s", id, rec.Code, rec.Body.String())
	}
	var st Status
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitState polls until the job reaches want (or any terminal state when
// the wanted one is terminal and the job settles elsewhere — reported as
// a failure with the observed status).
func waitState(t *testing.T, s http.Handler, id string, want State) Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := getStatus(t, s, id)
		if st.State == want {
			return st
		}
		if st.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job %s settled at %+v, want state %q", id, st, want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSubmitBadRequests(t *testing.T) {
	s := mustNew(t, Config{Workers: 1})
	defer s.Shutdown(context.Background())
	for name, body := range map[string]string{
		"invalid JSON":     `{"protocol": `,
		"unknown field":    `{"protocol": "counting-upper-bound", "params": {"n": 60}, "wat": 1}`,
		"unknown protocol": `{"protocol": "nope"}`,
		"unknown param":    `{"protocol": "counting-upper-bound", "params": {"n": 60, "d": 3}}`,
		"missing required": `{"protocol": "counting-upper-bound"}`,
		"bad engine":       `{"protocol": "count-line", "engine": "urn", "params": {"n": 8}}`,
		"out of range":     `{"protocol": "counting-upper-bound", "params": {"n": 1}}`,
		"negative budget":  `{"protocol": "counting-upper-bound", "params": {"n": 60}, "max_steps": -1}`,
	} {
		t.Run(name, func(t *testing.T) {
			code, _, body := postJob(t, s, body)
			if code != http.StatusBadRequest {
				t.Fatalf("code = %d (%s), want 400", code, body)
			}
			var eb ErrorBody
			if err := json.Unmarshal([]byte(body), &eb); err != nil || eb.Error == "" {
				t.Fatalf("error body %q, want {\"error\": ...}", body)
			}
		})
	}
}

func TestStatusNotFound(t *testing.T) {
	s := mustNew(t, Config{Workers: 1})
	defer s.Shutdown(context.Background())
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/jobs/j999", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("code = %d, want 404", rec.Code)
	}
}

func TestSubmitRunPoll(t *testing.T) {
	s := mustNew(t, Config{Workers: 2, FrameInterval: -1})
	defer s.Shutdown(context.Background())
	code, st, body := postJob(t, s,
		`{"protocol": "counting-upper-bound", "params": {"n": 60, "b": 4}, "seed": 1}`)
	if code != http.StatusAccepted {
		t.Fatalf("code = %d (%s), want 202", code, body)
	}
	if st.ID == "" || st.Protocol != "counting-upper-bound" || st.Engine != job.EnginePop {
		t.Fatalf("submit status = %+v", st)
	}
	final := waitState(t, s, st.ID, StateDone)
	if final.Result == nil {
		t.Fatal("done without a result")
	}
	// The served envelope must agree with a direct job.Run of the same
	// normalized job (WallTime aside).
	want, err := job.Run(context.Background(), job.Job{
		Protocol: "counting-upper-bound", Params: job.Params{N: 60, B: 4}, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := *final.Result
	got.WallTime, want.WallTime = 0, 0
	gj, _ := json.Marshal(got)
	wj, _ := json.Marshal(want)
	// got's payload decoded generically; compare envelope fields instead.
	if got.Reason != want.Reason || got.Steps != want.Steps || !got.Halted {
		t.Fatalf("served envelope %s\nwant %s", gj, wj)
	}
}

// blockingRegistry registers a protocol whose run parks until release is
// closed (or its context is canceled), for deterministic queue and drain
// tests.
func blockingRegistry() (*job.Registry, chan struct{}) {
	reg := job.NewRegistry()
	release := make(chan struct{})
	reg.Register(job.Spec{
		Name:    "block",
		Title:   "parks until released",
		Engines: []job.Engine{job.EnginePop},
		Budget:  1,
		Run: func(ctx context.Context, j job.Job) (job.Outcome, error) {
			select {
			case <-release:
				return job.Outcome{Steps: 1, Halted: true, Reason: "halted"}, nil
			case <-ctx.Done():
				return job.Outcome{Reason: job.ReasonCanceled}, nil
			}
		},
	})
	return reg, release
}

// TestQueueingBeyondPoolSize drives one worker with a parked job: the
// next submissions are observably queued, and submissions beyond the
// queue capacity get 503 backpressure.
func TestQueueingBeyondPoolSize(t *testing.T) {
	reg, release := blockingRegistry()
	s := mustNew(t, Config{Registry: reg, Workers: 1, Queue: 2, FrameInterval: -1})
	defer s.Shutdown(context.Background())

	code, first, body := postJob(t, s, `{"protocol": "block", "seed": 1}`)
	if code != http.StatusAccepted {
		t.Fatalf("code = %d (%s)", code, body)
	}
	// Wait until the single worker has picked the parked job up, so the
	// queue is empty and its capacity is exactly what we fill next.
	waitState(t, s, first.ID, StateRunning)

	var queued []Status
	for seed := 2; seed <= 3; seed++ {
		code, st, body := postJob(t, s, `{"protocol": "block", "seed": `+string(rune('0'+seed))+`}`)
		if code != http.StatusAccepted {
			t.Fatalf("queued submit %d: code = %d (%s)", seed, code, body)
		}
		queued = append(queued, st)
	}
	for _, st := range queued {
		if got := getStatus(t, s, st.ID); got.State != StateQueued {
			t.Fatalf("job %s state = %q, want queued behind the parked run", st.ID, got.State)
		}
	}
	code, _, body = postJob(t, s, `{"protocol": "block", "seed": 4}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("beyond-capacity submit: code = %d (%s), want 503", code, body)
	}
	// Shed load leaves no record behind: only the running + queued jobs.
	if got := s.store.Len(); got != 3 {
		t.Fatalf("store len = %d after a 503, want 3", got)
	}

	close(release)
	waitState(t, s, first.ID, StateDone)
	for _, st := range queued {
		waitState(t, s, st.ID, StateDone)
	}
}

// TestCancelMidRun is the ISSUE's acceptance check: DELETE on a running
// urn job at n = 10^6 (trillions of simulated steps — it would run ~1s
// uncancelled) settles it to canceled with the engine-reported
// Reason == "canceled" in the Result envelope.
func TestCancelMidRun(t *testing.T) {
	s := mustNew(t, Config{Workers: 1, FrameInterval: -1})
	defer s.Shutdown(context.Background())
	code, st, body := postJob(t, s,
		`{"protocol": "counting-upper-bound", "engine": "urn", "params": {"n": 1000000}, "seed": 1}`)
	if code != http.StatusAccepted {
		t.Fatalf("code = %d (%s)", code, body)
	}
	waitState(t, s, st.ID, StateRunning)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("DELETE", "/v1/jobs/"+st.ID, nil))
	if rec.Code != http.StatusOK && rec.Code != http.StatusAccepted {
		t.Fatalf("DELETE code = %d: %s", rec.Code, rec.Body.String())
	}
	final := waitState(t, s, st.ID, StateCanceled)
	if final.Result == nil || final.Result.Reason != job.ReasonCanceled {
		t.Fatalf("canceled status = %+v, want Result.Reason == %q", final, job.ReasonCanceled)
	}
	if final.Result.Halted {
		t.Fatal("canceled run reported Halted")
	}
}

// TestCancelQueued: DELETE before a worker picks the job up settles it
// immediately, and the worker later skips it.
func TestCancelQueued(t *testing.T) {
	reg, release := blockingRegistry()
	s := mustNew(t, Config{Registry: reg, Workers: 1, Queue: 2, FrameInterval: -1})
	defer s.Shutdown(context.Background())
	_, first, _ := postJob(t, s, `{"protocol": "block", "seed": 1}`)
	waitState(t, s, first.ID, StateRunning)
	_, queued, _ := postJob(t, s, `{"protocol": "block", "seed": 2}`)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("DELETE", "/v1/jobs/"+queued.ID, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("DELETE code = %d", rec.Code)
	}
	st := getStatus(t, s, queued.ID)
	if st.State != StateCanceled || st.Result != nil {
		t.Fatalf("status = %+v, want canceled with no result", st)
	}
	close(release)
	waitState(t, s, first.ID, StateDone)
	// The canceled job must stay canceled after the worker drains it.
	if st := getStatus(t, s, queued.ID); st.State != StateCanceled {
		t.Fatalf("state = %q after queue drain, want canceled", st.State)
	}
}

// TestStoreRetentionBound: beyond MaxJobs, the oldest settled records
// are evicted (404) while newer ones survive; rejected submissions
// leave no record at all.
func TestStoreRetentionBound(t *testing.T) {
	s := mustNew(t, Config{Workers: 1, MaxJobs: 2, FrameInterval: -1})
	defer s.Shutdown(context.Background())
	var ids []string
	for seed := 1; seed <= 3; seed++ {
		_, st, _ := postJob(t, s,
			`{"protocol": "counting-upper-bound", "params": {"n": 60}, "seed": `+string(rune('0'+seed))+`}`)
		waitState(t, s, st.ID, StateDone)
		ids = append(ids, st.ID)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/jobs/"+ids[0], nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("oldest settled job = %d, want 404 after eviction", rec.Code)
	}
	for _, id := range ids[1:] {
		if st := getStatus(t, s, id); st.State != StateDone {
			t.Fatalf("retained job %s state = %q", id, st.State)
		}
	}
	if got := s.store.Len(); got != 2 {
		t.Fatalf("store len = %d, want 2", got)
	}
}

// TestCacheHitOnResubmission: an identical deterministic resubmission is
// answered complete (200, Cached) without re-simulation, and the served
// envelope equals the original.
func TestCacheHitOnResubmission(t *testing.T) {
	s := mustNew(t, Config{Workers: 1, FrameInterval: -1})
	defer s.Shutdown(context.Background())
	body := `{"protocol": "counting-upper-bound", "params": {"n": 60}, "seed": 1}`
	code, first, _ := postJob(t, s, body)
	if code != http.StatusAccepted {
		t.Fatalf("first submit code = %d", code)
	}
	orig := waitState(t, s, first.ID, StateDone)

	// The explicit-defaults form is the same canonical job, so it must
	// hit too.
	code, again, resp := postJob(t, s,
		`{"protocol": "counting-upper-bound", "engine": "pop", "params": {"n": 60, "b": 5}, "seed": 1, "max_steps": 100000000}`)
	if code != http.StatusOK {
		t.Fatalf("resubmit code = %d (%s), want 200 cache hit", code, resp)
	}
	if !again.Cached || again.State != StateDone || again.Result == nil {
		t.Fatalf("resubmit status = %+v, want cached done with result", again)
	}
	if again.Result.Steps != orig.Result.Steps || again.Result.Reason != orig.Result.Reason {
		t.Fatalf("cached envelope %+v != original %+v", again.Result, orig.Result)
	}
	if hits, _ := s.cache.Stats(); hits != 1 {
		t.Fatalf("cache hits = %d, want 1", hits)
	}

	// A different seed is a different canonical job: no hit.
	code, _, _ = postJob(t, s, `{"protocol": "counting-upper-bound", "params": {"n": 60}, "seed": 2}`)
	if code != http.StatusOK {
		t.Logf("different seed answered %d (expected 202 miss)", code)
	}
	if code == http.StatusOK {
		t.Fatal("different seed served from cache")
	}
}

// TestEventsStream reads the NDJSON stream of a gated run: the protocol
// parks until released, then ticks Progress three times. The stream's
// first frame is the subscription snapshot — receiving it proves the
// subscriber is attached before the ticks fire — so the test
// deterministically sees the tick frames and then exactly one result
// frame.
func TestEventsStream(t *testing.T) {
	reg := job.NewRegistry()
	release := make(chan struct{})
	reg.Register(job.Spec{
		Name:    "ticker",
		Title:   "parks, then ticks progress three times",
		Engines: []job.Engine{job.EnginePop},
		Budget:  1,
		Run: func(ctx context.Context, j job.Job) (job.Outcome, error) {
			<-release
			for i := int64(1); i <= 3; i++ {
				if j.Progress != nil {
					j.Progress(i * 100)
				}
			}
			return job.Outcome{Steps: 300, Halted: true, Reason: "halted"}, nil
		},
	})
	s := mustNew(t, Config{Registry: reg, Workers: 1, FrameInterval: -1})
	defer s.Shutdown(context.Background())
	srv := httptest.NewServer(s)
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"protocol": "ticker", "seed": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	ev, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer ev.Body.Close()
	if ct := ev.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var progress, results int
	var last Frame
	sc := bufio.NewScanner(ev.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var f Frame
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			t.Fatalf("bad frame %q: %v", sc.Text(), err)
		}
		switch f.Type {
		case "progress":
			progress++
			if progress == 1 {
				// Snapshot received: the subscription is live; let the
				// protocol tick.
				close(release)
			}
		case "result":
			results++
			last = f
		default:
			t.Fatalf("unknown frame type %q", f.Type)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	// The snapshot plus three ticks (non-blocking sends into a drained
	// 16-slot buffer: nothing drops).
	if progress != 4 {
		t.Fatalf("saw %d progress frames, want 4", progress)
	}
	if results != 1 {
		t.Fatalf("saw %d result frames, want exactly 1", results)
	}
	if last.State != StateDone || last.Result == nil || !last.Result.Halted {
		t.Fatalf("terminal frame %+v, want done with a halted result", last)
	}
}

// TestEventsOnFinishedJob: a late subscriber gets the result frame
// immediately.
func TestEventsOnFinishedJob(t *testing.T) {
	s := mustNew(t, Config{Workers: 1, FrameInterval: -1})
	defer s.Shutdown(context.Background())
	_, st, _ := postJob(t, s, `{"protocol": "counting-upper-bound", "params": {"n": 60}, "seed": 1}`)
	waitState(t, s, st.ID, StateDone)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/jobs/"+st.ID+"/events", nil))
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("got %d frames (%q), want 1", len(lines), rec.Body.String())
	}
	var f Frame
	if err := json.Unmarshal([]byte(lines[0]), &f); err != nil {
		t.Fatal(err)
	}
	if f.Type != "result" || f.State != StateDone {
		t.Fatalf("frame = %+v, want the result frame", f)
	}
}

// TestResultGoldenBytes pins the acceptance criterion: the bare result
// endpoint serves the golden envelope byte-for-byte once wall_ns is
// zeroed (the one non-deterministic field; the e2e smoke applies the
// same rewrite).
func TestResultGoldenBytes(t *testing.T) {
	s := mustNew(t, Config{Workers: 1, FrameInterval: -1})
	defer s.Shutdown(context.Background())
	_, st, _ := postJob(t, s,
		`{"protocol": "counting-upper-bound", "engine": "urn", "params": {"n": 1000}, "seed": 1}`)
	waitState(t, s, st.ID, StateDone)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/jobs/"+st.ID+"/result", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("code = %d: %s", rec.Code, rec.Body.String())
	}
	got := regexp.MustCompile(`"wall_ns": \d+`).
		ReplaceAll(rec.Body.Bytes(), []byte(`"wall_ns": 0`))
	want, err := os.ReadFile(filepath.Join("..", "job", "testdata", "counting-upper-bound.urn.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("result drifted from the golden envelope:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestResultBeforeFinished: 409 while the job is queued or running.
func TestResultBeforeFinished(t *testing.T) {
	reg, release := blockingRegistry()
	s := mustNew(t, Config{Registry: reg, Workers: 1, FrameInterval: -1})
	defer s.Shutdown(context.Background())
	_, st, _ := postJob(t, s, `{"protocol": "block", "seed": 1}`)
	waitState(t, s, st.ID, StateRunning)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/jobs/"+st.ID+"/result", nil))
	if rec.Code != http.StatusConflict {
		t.Fatalf("code = %d, want 409", rec.Code)
	}
	close(release)
	waitState(t, s, st.ID, StateDone)
}

// TestDrain: Shutdown cancels the in-flight job (Reason canceled),
// rejects the queued one, and 503s new submissions.
func TestDrain(t *testing.T) {
	reg, _ := blockingRegistry() // never released: only ctx can stop it
	s := mustNew(t, Config{Registry: reg, Workers: 1, Queue: 2, FrameInterval: -1})
	_, running, _ := postJob(t, s, `{"protocol": "block", "seed": 1}`)
	waitState(t, s, running.ID, StateRunning)
	_, queued, _ := postJob(t, s, `{"protocol": "block", "seed": 2}`)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	if st := getStatus(t, s, running.ID); st.State != StateCanceled ||
		st.Result == nil || st.Result.Reason != job.ReasonCanceled {
		t.Fatalf("in-flight job after drain: %+v, want canceled with Reason canceled", st)
	}
	if st := getStatus(t, s, queued.ID); st.State != StateCanceled || st.Error != "server draining" {
		t.Fatalf("queued job after drain: %+v, want rejected", st)
	}
	code, _, _ := postJob(t, s, `{"protocol": "block", "seed": 3}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain: code = %d, want 503", code)
	}
}

// TestListAndHealth exercises the observability endpoints.
func TestListAndHealth(t *testing.T) {
	s := mustNew(t, Config{Workers: 1, FrameInterval: -1})
	defer s.Shutdown(context.Background())
	_, st, _ := postJob(t, s, `{"protocol": "counting-upper-bound", "params": {"n": 60}, "seed": 1}`)
	waitState(t, s, st.ID, StateDone)

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/jobs", nil))
	var list []Status
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != st.ID {
		t.Fatalf("list = %+v", list)
	}

	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	var h health
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Jobs != 1 || !strings.Contains(h.Protocols, "counting-upper-bound") {
		t.Fatalf("health = %+v", h)
	}

	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/protocols", nil))
	var infos []ProtocolInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != len(job.Names()) {
		t.Fatalf("protocols = %d entries, want %d", len(infos), len(job.Names()))
	}
	// The per-spec engine matrix is the discovery path for engine support
	// (no more submit-and-read-the-400): counting-upper-bound must list
	// all three of its engines, check included.
	for _, info := range infos {
		if len(info.Engines) == 0 {
			t.Errorf("protocol %q reports no engines", info.Name)
		}
		if info.Name == "counting-upper-bound" {
			want := []job.Engine{job.EnginePop, job.EngineUrn, job.EngineCheck}
			if !reflect.DeepEqual(info.Engines, want) {
				t.Errorf("counting-upper-bound engines = %v, want %v", info.Engines, want)
			}
		}
	}
}
