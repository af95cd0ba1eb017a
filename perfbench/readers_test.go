package main

import (
	"os"
	"strings"
	"testing"
	"time"
)

// testdata/metrics.txt and testdata/trace.json were captured from a
// durable shapesold after one fresh submission of an n=1000 urn job and
// one cached repeat of it.

func loadExposition(t *testing.T) (string, exposition) {
	t.Helper()
	raw, err := os.ReadFile("testdata/metrics.txt")
	if err != nil {
		t.Fatal(err)
	}
	e, err := parseExposition(strings.NewReader(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	return string(raw), e
}

func TestExpositionSample(t *testing.T) {
	_, e := loadExposition(t)
	for _, c := range []struct {
		name   string
		labels []string
		want   float64
	}{
		{"shapesol_journal_fsync_duration_seconds_count", nil, 4},
		{"shapesol_http_request_duration_seconds_count", []string{`route="POST /v1/jobs"`}, 2},
		{"shapesol_cache_hits_total", nil, 1},
		{"shapesol_cache_misses_total", nil, 1},
	} {
		got, err := e.sum(c.name, c.labels...)
		if err != nil || got != c.want {
			t.Errorf("%s%v = %v, %v; want %v", c.name, c.labels, got, err, c.want)
		}
	}
	if d, err := delta(e, e, "shapesol_cache_hits_total"); err != nil || d != 0 {
		t.Errorf("delta of a scrape with itself = %v, %v", d, err)
	}
}

func TestExpositionMissingFamilyFails(t *testing.T) {
	raw, before := loadExposition(t)
	var kept []string
	for _, line := range strings.Split(raw, "\n") {
		if !strings.Contains(line, "shapesol_journal_fsync") {
			kept = append(kept, line)
		}
	}
	after, err := parseExposition(strings.NewReader(strings.Join(kept, "\n")))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := delta(before, after, "shapesol_journal_fsync_duration_seconds_count"); err == nil {
		t.Error("delta over a scrape without the fsync family did not fail")
	}
	if _, err := before.sum("shapesol_http_request_duration_seconds_count", `route="POST /v1/nowhere"`); err == nil {
		t.Error("sum over a label no sample carries did not fail")
	}
	if _, err := parseExposition(strings.NewReader("shapesol_x{a=\"b\"} notanumber\n")); err == nil {
		t.Error("a malformed sample line parsed")
	}
}

func TestTraceSample(t *testing.T) {
	body, err := os.ReadFile("testdata/trace.json")
	if err != nil {
		t.Fatal(err)
	}
	ev, err := traceEvents(body, "submitted", "queued", "running", "settled")
	if err != nil {
		t.Fatal(err)
	}
	if !ev["running"].Before(ev["settled"]) {
		t.Errorf("running %v not before settled %v", ev["running"], ev["settled"])
	}
	if _, err := traceEvents(body, "settled", "cache-hit"); err == nil {
		t.Error("a trace without a cache-hit event satisfied a cache-hit requirement")
	}
	if _, err := traceEvents([]byte(`{"id": "j1", "events": [`)); err == nil {
		t.Error("a truncated trace body parsed")
	}
}

func TestSelfTimes(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{ID: "a", Name: "request", Layer: "client", Depth: 0, Start: at(0), End: at(10)},
		{ID: "a", Name: "post", Layer: "server", Depth: 1, Start: at(1), End: at(9)},
		{ID: "a", Name: "run", Layer: "urn", Depth: 2, Start: at(2), End: at(5)},
		// A daemon phase that outlives its request is clipped to it.
		{ID: "a", Name: "late", Layer: "runner", Depth: 2, Start: at(8), End: at(12)},
		{ID: "b", Name: "request", Layer: "client", Depth: 0, Start: at(0), End: at(4)},
	}
	self, busy := selfTimes(spans)
	want := map[string]time.Duration{"client": 5 * time.Millisecond, "server": 4 * time.Millisecond,
		"urn": 3 * time.Millisecond, "runner": 2 * time.Millisecond}
	if busy != 14*time.Millisecond {
		t.Errorf("busy = %v, want 14ms", busy)
	}
	for l, w := range want {
		if self[l] != w {
			t.Errorf("self[%s] = %v, want %v", l, self[l], w)
		}
	}
}
