package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// The two readers below fail loudly: a metric family or trace event the
// benchmark relies on that is missing is an error, never a zero, so a
// renamed instrument stops the traced run instead of skewing its numbers.

// exposition is one scrape of a Prometheus text exposition: every sample
// line keyed by its series (name plus label set, as printed).
type exposition map[string]float64

// parseExposition reads the text format the daemons serve on /metrics.
func parseExposition(r io.Reader) (exposition, error) {
	out := exposition{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics: malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: bad value in %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	return out, nil
}

// sum adds up the samples of one series name whose labels include every
// given `key="value"` pair. It is an error if no sample matches.
func (e exposition) sum(name string, labels ...string) (float64, error) {
	total, found := 0.0, false
	for series, v := range e {
		base, rest, _ := strings.Cut(series, "{")
		if base != name {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(rest, l) {
				ok = false
				break
			}
		}
		if ok {
			total += v
			found = true
		}
	}
	if !found {
		return 0, fmt.Errorf("metrics: no sample of %s%v in the exposition", name, labels)
	}
	return total, nil
}

// delta is after minus before for one series selection; both scrapes
// must carry it.
func delta(before, after exposition, name string, labels ...string) (float64, error) {
	a, err := after.sum(name, labels...)
	if err != nil {
		return 0, err
	}
	b, err := before.sum(name, labels...)
	if err != nil {
		return 0, err
	}
	return a - b, nil
}

// traceEvents reads a GET /v1/jobs/{id}/trace body and returns the time of
// each event's first occurrence (and, for repeated events, of their last
// under "<event>#last"). Every required event must be present.
func traceEvents(body []byte, required ...string) (map[string]time.Time, error) {
	var t struct {
		ID     string `json:"id"`
		Events []struct {
			TS    time.Time `json:"ts"`
			Event string    `json:"event"`
		} `json:"events"`
	}
	if err := json.Unmarshal(body, &t); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	out := map[string]time.Time{}
	for _, ev := range t.Events {
		if _, ok := out[ev.Event]; !ok {
			out[ev.Event] = ev.TS
		}
		out[ev.Event+"#last"] = ev.TS
	}
	for _, want := range required {
		if _, ok := out[want]; !ok {
			return nil, fmt.Errorf("trace of %s: no %q event", t.ID, want)
		}
	}
	return out, nil
}
