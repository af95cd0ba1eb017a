package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// getTrace fetches a job's lifecycle trace.
func getTrace(t *testing.T, s http.Handler, id string) []TraceEvent {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/jobs/"+id+"/trace", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/jobs/%s/trace = %d: %s", id, rec.Code, rec.Body.String())
	}
	var body traceBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.ID != id {
		t.Fatalf("trace id = %q, want %q", body.ID, id)
	}
	return body.Events
}

// eventNames projects a trace to its event sequence.
func eventNames(evs []TraceEvent) []string {
	out := make([]string, len(evs))
	for i, ev := range evs {
		out[i] = ev.Event
	}
	return out
}

// assertSubsequence checks that want appears in order within got.
func assertSubsequence(t *testing.T, got, want []string) {
	t.Helper()
	i := 0
	for _, g := range got {
		if i < len(want) && g == want[i] {
			i++
		}
	}
	if i != len(want) {
		t.Fatalf("trace %v does not contain the sequence %v", got, want)
	}
}

func TestTraceLifecycle(t *testing.T) {
	s := mustNew(t, Config{Workers: 1, FrameInterval: -1})
	defer s.Shutdown(context.Background())
	code, st, raw := postJob(t, s, `{"protocol":"counting-upper-bound","engine":"urn","params":{"n":64}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", code, raw)
	}
	done := waitState(t, s, st.ID, StateDone)

	evs := getTrace(t, s, st.ID)
	assertSubsequence(t, eventNames(evs),
		[]string{TraceSubmitted, TraceQueued, TraceRunning, TraceSettled})
	last := evs[len(evs)-1]
	if last.Event != TraceSettled || last.Detail != string(StateDone) {
		t.Fatalf("last event = %+v, want settled/done", last)
	}
	if last.Steps != done.Result.Steps {
		t.Fatalf("settled steps = %d, want %d", last.Steps, done.Result.Steps)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].TS.Before(evs[i-1].TS) {
			t.Fatalf("trace timestamps go backwards at %d: %v", i, eventNames(evs))
		}
	}

	// A cache-served resubmission gets its own trace with the hit marked.
	code, st2, raw := postJob(t, s, `{"protocol":"counting-upper-bound","engine":"urn","params":{"n":64}}`)
	if code != http.StatusOK {
		t.Fatalf("cached resubmit = %d: %s", code, raw)
	}
	assertSubsequence(t, eventNames(getTrace(t, s, st2.ID)),
		[]string{TraceSubmitted, TraceCacheHit, TraceSettled})
}

func TestTraceUnknownJob(t *testing.T) {
	s := mustNew(t, Config{Workers: 1})
	defer s.Shutdown(context.Background())
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/jobs/j999/trace", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("trace of unknown job = %d, want 404", rec.Code)
	}
}

// TestTraceSurvivesRestart proves the trace is replayed from the journal:
// a durable daemon settles a job, restarts, and the new incarnation still
// serves the full lifecycle of the old one.
func TestTraceSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 1, FrameInterval: -1, DataDir: dir, CheckpointEvery: -1}
	s := mustNew(t, cfg)
	code, st, raw := postJob(t, s, `{"protocol":"counting-upper-bound","engine":"urn","params":{"n":64}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", code, raw)
	}
	waitState(t, s, st.ID, StateDone)
	before := eventNames(getTrace(t, s, st.ID))
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	s2 := mustNew(t, cfg)
	defer s2.Shutdown(context.Background())
	after := eventNames(getTrace(t, s2, st.ID))
	assertSubsequence(t, after,
		[]string{TraceSubmitted, TraceQueued, TraceRunning, TraceSettled})
	if len(after) != len(before) {
		t.Fatalf("replayed trace has %d events %v, original had %d %v",
			len(after), after, len(before), before)
	}
}

// TestTraceManyJobsOrdered pushes many tiny jobs through one durable
// daemon: a fast job can run and settle while its submit handler is still
// journaling the admission, so every trace, live and replayed after a
// restart, must still open with submitted and queued, close with settled,
// and run in timestamp order.
func TestTraceManyJobsOrdered(t *testing.T) {
	const jobs = 200
	dir := t.TempDir()
	cfg := Config{Workers: 2, Queue: jobs, FrameInterval: -1, DataDir: dir, CheckpointEvery: -1}
	s := mustNew(t, cfg)
	ids := make([]string, 0, jobs)
	for seed := 1; seed <= jobs; seed++ {
		code, st, raw := postJob(t, s, fmt.Sprintf(`{"protocol":"counting-upper-bound","params":{"n":2},"seed":%d}`, seed))
		if code != http.StatusAccepted {
			t.Fatalf("submit %d = %d: %s", seed, code, raw)
		}
		ids = append(ids, st.ID)
	}
	check := func(phase, id string, evs []TraceEvent) {
		t.Helper()
		names := eventNames(evs)
		if len(names) < 4 || names[0] != TraceSubmitted || names[1] != TraceQueued ||
			names[2] != TraceRunning || names[len(names)-1] != TraceSettled {
			t.Fatalf("%s trace of %s = %v, want submitted, queued, running, ..., settled", phase, id, names)
		}
		for i := 1; i < len(evs); i++ {
			if !evs[i].TS.After(evs[i-1].TS) {
				t.Fatalf("%s trace of %s is not in timestamp order at %d: %v", phase, id, i, names)
			}
		}
	}
	live := make(map[string][]TraceEvent, jobs)
	for _, id := range ids {
		waitState(t, s, id, StateDone)
		live[id] = getTrace(t, s, id)
		check("live", id, live[id])
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	s2 := mustNew(t, cfg)
	defer s2.Shutdown(context.Background())
	for _, id := range ids {
		replayed := getTrace(t, s2, id)
		check("replayed", id, replayed)
		if len(replayed) != len(live[id]) {
			t.Fatalf("replayed trace of %s = %v, live was %v", id, eventNames(replayed), eventNames(live[id]))
		}
		for i := range replayed {
			if !replayed[i].TS.Equal(live[id][i].TS) || replayed[i].Event != live[id][i].Event {
				t.Fatalf("replayed trace of %s differs at %d: %+v, live %+v", id, i, replayed[i], live[id][i])
			}
		}
	}
}

// TestRefusedSubmitLeavesNoJournalRecord: a submission the pool refuses
// was never admitted, so even though its admission events are stamped
// before the hand-off, nothing about it may reach the journal.
func TestRefusedSubmitLeavesNoJournalRecord(t *testing.T) {
	reg, release := blockingRegistry()
	dir := t.TempDir()
	s := mustNew(t, Config{Registry: reg, Workers: 1, Queue: 1, FrameInterval: -1, DataDir: dir, CheckpointEvery: -1})
	defer s.Shutdown(context.Background())
	defer close(release)

	code, first, raw := postJob(t, s, `{"protocol": "block", "seed": 1}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", code, raw)
	}
	waitState(t, s, first.ID, StateRunning)
	code, second, raw := postJob(t, s, `{"protocol": "block", "seed": 2}`)
	if code != http.StatusAccepted {
		t.Fatalf("queued submit = %d: %s", code, raw)
	}
	if code, _, raw := postJob(t, s, `{"protocol": "block", "seed": 3}`); code != http.StatusServiceUnavailable {
		t.Fatalf("beyond-capacity submit = %d (%s), want 503", code, raw)
	}
	data, err := os.ReadFile(filepath.Join(dir, "journal.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var rec journalRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.ID != first.ID && rec.ID != second.ID {
			t.Fatalf("journal holds a record of the refused submission: %s", line)
		}
	}
}
