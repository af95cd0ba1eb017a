package experiments

import (
	"context"
	"reflect"
	"testing"

	"shapesol/internal/job"
)

// TestRowsNormalize resolves every row's Job against the protocol
// registry: the protocol is registered, the engine supported, and the
// parameters inside the spec's schema.
func TestRowsNormalize(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range All() {
		if ids[e.ID] {
			t.Errorf("duplicate experiment id %s", e.ID)
		}
		ids[e.ID] = true
		if len(e.Rows) == 0 || e.Measure == nil {
			t.Errorf("%s: no rows or no measurement", e.ID)
		}
		for _, c := range e.Rows {
			if _, _, err := job.Normalize(c.Job); err != nil {
				t.Errorf("%s %s: %v", e.ID, c.Label, err)
			}
		}
	}
}

// TestRunSameForAnyWorkerCount: a report is folded in seed order, so the
// worker count cannot change it; E15's rows record their scaled trial
// count.
func TestRunSameForAnyWorkerCount(t *testing.T) {
	e, _ := Lookup("E1")
	serial, err := e.Run(context.Background(), 1, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := e.Run(context.Background(), 3, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("reports differ:\nserial   %+v\nparallel %+v", serial, parallel)
	}
	if got := serial.Rows[0].Agg.Trials; got != 3 {
		t.Fatalf("trials = %d, want 3", got)
	}
	e15, _ := Lookup("E15")
	for i, want := range []int{10, 1, 1} {
		if got := e15.Rows[i].Trials(10); got != want {
			t.Errorf("E15 %s: %d trials of 10, want %d", e15.Rows[i].Label, got, want)
		}
	}
}
