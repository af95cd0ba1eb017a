package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"shapesol/internal/job"
	"shapesol/internal/server"
	"shapesol/internal/snap"
)

// The coordinator's per-job /v1 proxy: cancel, snapshot, resume, event
// stream, worker rejections, and the list/health/protocols surface.

// longUrnJob runs for most of a second (n = 10^6 simulates ~10^13
// steps), so it is reliably still running when a test acts on it within
// milliseconds; stopWorkers cancels it at cleanup.
func longUrnJob(seed int64) job.Job {
	return job.Job{Protocol: "counting-upper-bound", Engine: job.EngineUrn, Seed: seed, Params: job.Params{N: 1_000_000}}
}

// stopWorkers shuts every worker's pool down at cleanup, so jobs left
// running on a killed worker stop burning CPU for the rest of the run.
func stopWorkers(t *testing.T, tc *testCluster) {
	t.Cleanup(func() {
		for _, w := range tc.workers {
			w.svc.Shutdown(context.Background()) //nolint:errcheck // best-effort drain at cleanup
		}
	})
}

// record returns the coordinator's record of id.
func (tc *testCluster) record(t *testing.T, id string) *record {
	t.Helper()
	rec, ok := tc.coord.jobs.Get(id)
	if !ok {
		t.Fatalf("coordinator holds no record %s", id)
	}
	return rec
}

// worker returns the test worker registered under name.
func (tc *testCluster) worker(t *testing.T, name string) *testWorker {
	t.Helper()
	for _, w := range tc.workers {
		if w.name == name {
			return w
		}
	}
	t.Fatalf("no worker %q", name)
	return nil
}

// get fetches url and returns the status code and body.
func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// TestCoordinatorCancelWithDeadOwner: a DELETE whose owner was killed
// cannot be forwarded, so the coordinator settles the record as
// canceled itself; once the owner is declared dead, failover must not
// resurrect the job on the survivor.
func TestCoordinatorCancelWithDeadOwner(t *testing.T) {
	// A wide miss budget keeps the killed owner on the ring while the
	// DELETE arrives, so the forward is attempted and fails.
	tc := startCluster(t, 2, server.Config{}, Config{HeartbeatEvery: 25 * time.Millisecond, MissBudget: 20})
	stopWorkers(t, tc)
	st := submitJob(t, tc.ts.URL, longUrnJob(3))
	rec := tc.record(t, st.ID)
	owner, _, ok := tc.coord.owner(rec)
	if !ok {
		t.Fatalf("job %s has no owner after admission", st.ID)
	}
	tc.worker(t, owner).kill()

	var canceled server.Status
	if code := httpJSON(t, http.MethodDelete, tc.ts.URL+"/v1/jobs/"+st.ID, nil, &canceled); code != http.StatusOK {
		t.Fatalf("DELETE: HTTP %d", code)
	}
	if canceled.ID != st.ID || canceled.State != server.StateCanceled {
		t.Fatalf("DELETE with a dead owner answered %+v, want %s canceled", canceled, st.ID)
	}

	waitFor(t, 5*time.Second, func() bool {
		tc.coord.mu.Lock()
		defer tc.coord.mu.Unlock()
		return tc.coord.ring.Len() == 1
	}, "the killed owner declared dead")
	time.Sleep(5 * tc.coord.cfg.PullEvery) // several failover passes
	if got := jobStatus(t, tc.ts.URL, st.ID); got.State != server.StateCanceled {
		t.Fatalf("canceled job came back as %s after failover", got.State)
	}
	for _, w := range tc.workers {
		if w.name == owner {
			continue
		}
		var jobs []server.Status
		httpJSON(t, http.MethodGet, w.ts.URL+"/v1/jobs", nil, &jobs)
		if len(jobs) != 0 {
			t.Fatalf("survivor %s holds %d jobs, want none (failover resurrected a canceled job)", w.name, len(jobs))
		}
	}
	// A job canceled without running to completion has no Result.
	if code, body := get(t, tc.ts.URL+"/v1/jobs/"+st.ID+"/result"); code != http.StatusNotFound {
		t.Fatalf("result of the canceled job: HTTP %d: %s, want 404", code, body)
	}
	// Repeating the DELETE of a settled record answers the same Status.
	var again server.Status
	if code := httpJSON(t, http.MethodDelete, tc.ts.URL+"/v1/jobs/"+st.ID, nil, &again); code != http.StatusOK || again.State != server.StateCanceled {
		t.Fatalf("repeat DELETE: HTTP %d, %+v", code, again)
	}
	if code := httpJSON(t, http.MethodDelete, tc.ts.URL+"/v1/jobs/nope", nil, nil); code != http.StatusNotFound {
		t.Fatalf("DELETE of an unknown id: HTTP %d, want 404", code)
	}
}

// TestCoordinatorSnapshotFallsBackToMirror: while the owner lives, a
// snapshot request is proxied to it; once the owner is dead, the
// coordinator serves its mirrored copy.
func TestCoordinatorSnapshotFallsBackToMirror(t *testing.T) {
	tc := startCluster(t, 1, server.Config{CheckpointEvery: 5 * time.Millisecond},
		Config{HeartbeatEvery: 50 * time.Millisecond, MissBudget: 8})
	stopWorkers(t, tc)
	st := submitJob(t, tc.ts.URL, longUrnJob(4))
	rec := tc.record(t, st.ID)
	waitFor(t, 30*time.Second, func() bool {
		rec.mu.Lock()
		defer rec.mu.Unlock()
		return rec.snapshot != nil
	}, "a mirrored checkpoint")

	url := tc.ts.URL + "/v1/jobs/" + st.ID + "/snapshot"
	code, live := get(t, url)
	if code != http.StatusOK {
		t.Fatalf("snapshot via a live owner: HTTP %d: %s", code, live)
	}
	if s, err := snap.Decode(live); err != nil || s.Protocol != "counting-upper-bound" {
		t.Fatalf("proxied snapshot does not decode: %v", err)
	}

	tc.workers[0].kill()
	code, mirrored := get(t, url)
	if code != http.StatusOK {
		t.Fatalf("snapshot with the owner dead: HTTP %d: %s", code, mirrored)
	}
	rec.mu.Lock()
	want := rec.snapshot
	rec.mu.Unlock()
	if !bytes.Equal(mirrored, want) {
		t.Fatal("snapshot with the owner dead is not the mirrored copy")
	}
	if _, err := snap.Decode(mirrored); err != nil {
		t.Fatalf("mirrored snapshot does not decode: %v", err)
	}
}

// TestCoordinatorSnapshotWithoutCheckpoint: a job that settled before
// its first Progress tick (the check engine's n = 8 space is smaller than
// one tick) has no checkpoint to serve, on the owner or mirrored.
func TestCoordinatorSnapshotWithoutCheckpoint(t *testing.T) {
	tc := startCluster(t, 1, server.Config{}, Config{})
	st := submitJob(t, tc.ts.URL, job.Job{Protocol: "counting-upper-bound", Engine: job.EngineCheck, Params: job.Params{N: 8}})
	waitFor(t, 10*time.Second, func() bool {
		return jobStatus(t, tc.ts.URL, st.ID).State.Terminal()
	}, "the job to settle")
	if code, body := get(t, tc.ts.URL+"/v1/jobs/"+st.ID+"/snapshot"); code != http.StatusNotFound {
		t.Fatalf("snapshot of a settled job: HTTP %d: %s, want 404", code, body)
	}
}

// TestCoordinatorResumeRoutedByCacheKey: snapshot bytes resumed through
// the coordinator land on the ring owner of the embedded job's cache
// key, finish with the uninterrupted run's Result, and a repeat is a 200
// cache hit.
func TestCoordinatorResumeRoutedByCacheKey(t *testing.T) {
	tc := startCluster(t, 3, server.Config{}, Config{})
	j := job.Job{Protocol: "counting-upper-bound", Engine: job.EngineUrn, Seed: 1, Params: job.Params{N: 1000}}
	var data []byte
	observed := j
	observed.Checkpoint = func(steps int64, capture func() (*snap.Snapshot, error)) {
		if data != nil {
			return
		}
		s, err := capture()
		if err != nil {
			t.Fatal(err)
		}
		if data, err = s.Encode(); err != nil {
			t.Fatal(err)
		}
	}
	want, err := job.Run(context.Background(), observed)
	if err != nil {
		t.Fatal(err)
	}
	if data == nil {
		t.Fatal("the run captured no snapshot")
	}
	s, err := snap.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	nj, _, err := job.Default.ResumeJob(s)
	if err != nil {
		t.Fatal(err)
	}
	tc.coord.mu.Lock()
	wantOwner := tc.coord.ring.Owner(nj.CacheKey())
	tc.coord.mu.Unlock()

	resume := func() (int, server.Status) {
		var st server.Status
		code := httpJSON(t, http.MethodPost, tc.ts.URL+"/v1/jobs/resume", data, &st)
		return code, st
	}
	code, st := resume()
	if code != http.StatusAccepted || !st.Resumed {
		t.Fatalf("resume: HTTP %d, %+v, want 202 resumed", code, st)
	}
	if owner, _, _ := tc.coord.owner(tc.record(t, st.ID)); owner != wantOwner {
		t.Fatalf("resume routed to %q, the cache key's owner is %q", owner, wantOwner)
	}
	waitFor(t, 10*time.Second, func() bool {
		return jobStatus(t, tc.ts.URL, st.ID).State.Terminal()
	}, "the resumed job")
	var res job.Result
	if err := json.Unmarshal(rawResult(t, tc.ts.URL, st.ID), &res); err != nil {
		t.Fatal(err)
	}
	if res.Steps != want.Steps || res.Reason != want.Reason {
		t.Fatalf("resumed Result %d steps (%s), uninterrupted %d (%s)", res.Steps, res.Reason, want.Steps, want.Reason)
	}

	code, hit := resume()
	if code != http.StatusOK || !hit.Cached || !hit.Resumed || hit.State != server.StateDone {
		t.Fatalf("repeat resume: HTTP %d, %+v, want a 200 cache hit", code, hit)
	}
	if code := httpJSON(t, http.MethodPost, tc.ts.URL+"/v1/jobs/resume", []byte("not a snapshot"), nil); code != http.StatusBadRequest {
		t.Fatalf("resume of garbage: HTTP %d, want 400", code)
	}
}

// readFrames reads an NDJSON event stream to its end.
func readFrames(t *testing.T, url string) []server.Frame {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("event stream Content-Type %q", ct)
	}
	var frames []server.Frame
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var f server.Frame
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			t.Fatalf("bad frame %q: %v", sc.Bytes(), err)
		}
		frames = append(frames, f)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return frames
}

// TestCoordinatorEventStream: the NDJSON stream through the proxy
// carries the coordinator's job id on every frame and ends in exactly
// one result frame, live and after the job settled.
func TestCoordinatorEventStream(t *testing.T) {
	tc := startCluster(t, 1, server.Config{}, Config{})
	st := submitJob(t, tc.ts.URL, job.Job{Protocol: "counting-upper-bound", Engine: job.EngineUrn, Seed: 2, Params: job.Params{N: 200_000}})
	url := tc.ts.URL + "/v1/jobs/" + st.ID + "/events"
	for _, phase := range []string{"live", "settled"} {
		frames := readFrames(t, url)
		results := 0
		for _, f := range frames {
			if f.ID != st.ID {
				t.Fatalf("%s: frame carries id %q, want the coordinator's %q", phase, f.ID, st.ID)
			}
			if f.Type == "result" {
				results++
			}
		}
		if results != 1 || frames[len(frames)-1].Type != "result" {
			t.Fatalf("%s: %d frames with %d result frames, want exactly one, last", phase, len(frames), results)
		}
		if last := frames[len(frames)-1]; last.State != server.StateDone || last.Result == nil {
			t.Fatalf("%s: result frame %+v, want done with a Result", phase, last)
		}
	}
}

// TestPumpFramesSkipsGarbage: an unparsable upstream line is dropped,
// the stream completes at the result frame (which settles the record),
// and a stream that ends without one is reported incomplete.
func TestPumpFramesSkipsGarbage(t *testing.T) {
	c := New(Config{Logf: t.Logf})
	t.Cleanup(c.Shutdown)
	rec := &record{id: "c7", state: server.StateRunning}
	var got []server.Frame
	emit := func(f server.Frame) bool {
		got = append(got, f)
		return true
	}
	upstream := strings.Join([]string{
		`not json`,
		`{"type":"progress","id":"j3","steps":10}`,
		`{"type":"result","id":"j3","steps":20,"state":"done"}`,
		`{"type":"progress","id":"j3","steps":30}`,
	}, "\n") + "\n"
	if !c.pumpFrames(strings.NewReader(upstream), rec, emit) {
		t.Fatal("stream with a result frame reported incomplete")
	}
	if len(got) != 2 || got[0].Type != "progress" || got[1].Type != "result" {
		t.Fatalf("emitted %+v, want the progress and result frames only", got)
	}
	if st := rec.status(); st.State != server.StateDone || st.Steps != 20 {
		t.Fatalf("record after the result frame: %+v", st)
	}
	if c.pumpFrames(strings.NewReader(`{"type":"progress","id":"j3","steps":40}`+"\n"), rec, emit) {
		t.Fatal("stream without a result frame reported complete")
	}
	gone := func(server.Frame) bool { return false }
	if !c.pumpFrames(strings.NewReader(`{"type":"progress","id":"j3","steps":50}`+"\n"), rec, gone) {
		t.Fatal("a departed client did not end the pump")
	}
}

// TestCoordinatorPassesWorkerRejection: a worker's 503 reaches the
// client byte for byte, and the coordinator forgets the record it had
// opened for the submission.
func TestCoordinatorPassesWorkerRejection(t *testing.T) {
	tc := startCluster(t, 1, server.Config{Workers: 1, Queue: 1}, Config{})
	stopWorkers(t, tc)
	first := submitJob(t, tc.ts.URL, longUrnJob(5))
	waitFor(t, 10*time.Second, func() bool {
		return jobStatus(t, tc.ts.URL, first.ID).State == server.StateRunning
	}, "the first job to occupy the worker")
	if code, body := get(t, tc.ts.URL+"/v1/jobs/"+first.ID+"/result"); code != http.StatusConflict {
		t.Fatalf("result of a running job: HTTP %d: %s, want 409", code, body)
	}
	submitJob(t, tc.ts.URL, longUrnJob(6)) // fills the one-slot queue

	body, err := json.Marshal(longUrnJob(7))
	if err != nil {
		t.Fatal(err)
	}
	post := func(base string) (int, []byte) {
		resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, data
	}
	code, viaCoord := post(tc.ts.URL)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("submit past a full worker queue: HTTP %d: %s, want 503", code, viaCoord)
	}
	direct, fromWorker := post(tc.workers[0].ts.URL)
	if direct != code || !bytes.Equal(viaCoord, fromWorker) {
		t.Fatalf("coordinator answered %d %q, the worker itself %d %q", code, viaCoord, direct, fromWorker)
	}
	var list []server.Status
	httpJSON(t, http.MethodGet, tc.ts.URL+"/v1/jobs", nil, &list)
	if len(list) != 2 {
		t.Fatalf("coordinator lists %d jobs after a rejected submission, want 2", len(list))
	}
	if code := httpJSON(t, http.MethodGet, tc.ts.URL+"/v1/jobs/c3", nil, nil); code != http.StatusNotFound {
		t.Fatalf("the rejected submission's record answers HTTP %d, want 404", code)
	}
}

// TestCoordinatorListHealthProtocols pins the documented shapes of the
// coordinator's service routes: the job list in submission order with
// the oldest settled records evicted past MaxJobs, the health counters,
// and the protocol listing, identical to a worker's.
func TestCoordinatorListHealthProtocols(t *testing.T) {
	tc := startCluster(t, 2, server.Config{}, Config{MaxJobs: 2})
	var ids []string
	for seed := int64(1); seed <= 3; seed++ {
		st := submitJob(t, tc.ts.URL, job.Job{Protocol: "counting-upper-bound", Seed: seed, Params: job.Params{N: 50}})
		waitFor(t, 10*time.Second, func() bool {
			return jobStatus(t, tc.ts.URL, st.ID).State.Terminal()
		}, "job "+st.ID)
		ids = append(ids, st.ID)
	}

	var list []server.Status
	if code := httpJSON(t, http.MethodGet, tc.ts.URL+"/v1/jobs", nil, &list); code != http.StatusOK {
		t.Fatalf("list: HTTP %d", code)
	}
	if len(list) != 2 || list[0].ID != ids[1] || list[1].ID != ids[2] {
		t.Fatalf("list %+v, want %v in submission order", list, ids[1:])
	}
	for _, st := range list {
		if st.State != server.StateDone || st.Protocol != "counting-upper-bound" {
			t.Fatalf("listed Status %+v", st)
		}
	}
	if code := httpJSON(t, http.MethodGet, tc.ts.URL+"/v1/jobs/"+ids[0], nil, nil); code != http.StatusNotFound {
		t.Fatalf("evicted id answers HTTP %d, want 404", code)
	}

	var h clusterHealth
	if code := httpJSON(t, http.MethodGet, tc.ts.URL+"/healthz", nil, &h); code != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", code)
	}
	if h.Status != "ok" || h.Role != "coordinator" || h.Nodes != 2 || h.Alive != 2 || h.Jobs != 2 ||
		h.Protocols != strings.Join(job.Default.Names(), ",") {
		t.Fatalf("healthz %+v", h)
	}

	code, fromCoord := get(t, tc.ts.URL+"/v1/protocols")
	if code != http.StatusOK {
		t.Fatalf("protocols: HTTP %d", code)
	}
	if _, fromWorker := get(t, tc.workers[0].ts.URL+"/v1/protocols"); !bytes.Equal(fromCoord, fromWorker) {
		t.Fatalf("coordinator protocol listing differs from a worker's:\n%s\n%s", fromCoord, fromWorker)
	}
}

// TestCoordinatorCacheHitAfterWorkerHit: a repeat the worker answers
// from its own cache fills the coordinator cache with the worker's raw
// bytes, so the next repeat, a coordinator cache hit with no owner,
// serves its /result instead of a 404. The mirror loop is parked, and the
// first run settles through its event stream, so nothing else mirrors
// the bytes.
func TestCoordinatorCacheHitAfterWorkerHit(t *testing.T) {
	tc := startCluster(t, 1, server.Config{}, Config{PullEvery: time.Hour})
	j := job.Job{Protocol: "counting-upper-bound", Engine: job.EngineUrn, Seed: 3, Params: job.Params{N: 1000}}
	first := submitJob(t, tc.ts.URL, j)
	readFrames(t, tc.ts.URL+"/v1/jobs/"+first.ID+"/events")

	second := submitJob(t, tc.ts.URL, j)
	if !second.Cached || second.State != server.StateDone {
		t.Fatalf("second submission %+v, want a worker cache hit", second)
	}
	if owner, _, ok := tc.coord.owner(tc.record(t, second.ID)); !ok || owner != tc.workers[0].name {
		t.Fatalf("second submission owned by %q, want the worker's cache hit", owner)
	}
	want := rawResult(t, tc.workers[0].ts.URL, tc.record(t, second.ID).remoteID)

	third := submitJob(t, tc.ts.URL, j)
	if !third.Cached || third.State != server.StateDone {
		t.Fatalf("third submission %+v, want a coordinator cache hit", third)
	}
	if _, _, ok := tc.coord.owner(tc.record(t, third.ID)); ok {
		t.Fatal("third submission was routed, want a coordinator cache hit")
	}
	code, got := get(t, tc.ts.URL+"/v1/jobs/"+third.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("result of a coordinator cache hit: HTTP %d: %s", code, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("coordinator cache hit served other bytes than the worker:\ngot:  %s\nwant: %s", got, want)
	}
}
