package job_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"shapesol/internal/experiments"
	"shapesol/internal/job"
)

// admit is the daemon's submit boundary (server's submit handler): a
// strict decode that rejects unknown fields, then Normalize.
func admit(data []byte) (job.Job, *job.Spec, error) {
	var j job.Job
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&j); err != nil {
		return job.Job{}, nil, err
	}
	return job.Normalize(j)
}

// FuzzJobDecode fuzzes job JSON, fault profile included, through the
// submit boundary. No input may panic, and every job it admits must hold
// three invariants: normalizing it again keeps its cache key; its key,
// which is its JSON, is admitted back to the same key; and its starting
// population plus every arrival its profile allows stays within its
// engine's MaxPopulation. The corpus starts from the golden jobs, the
// faulted snapshot jobs and every row of E16, E17 and E19, the
// experiments that vary the scheduler and fault profile.
func FuzzJobDecode(f *testing.F) {
	seeds := job.SeedJobs()
	for _, id := range []string{"E16", "E17", "E19"} {
		e, ok := experiments.Lookup(id)
		if !ok {
			f.Fatalf("no experiment %s", id)
		}
		for _, c := range e.Rows {
			seeds = append(seeds, c.Job)
		}
	}
	for _, j := range seeds {
		data, err := json.Marshal(j)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		nj, spec, err := admit(data)
		if err != nil {
			return
		}
		key := nj.CacheKey()
		again, _, err := job.Normalize(nj)
		if err != nil {
			t.Fatalf("normalized job %s rejected when normalized again: %v", key, err)
		}
		if got := again.CacheKey(); got != key {
			t.Fatalf("normalizing again moved the key:\n%s\n%s", key, got)
		}
		back, _, err := admit([]byte(key))
		if err != nil {
			t.Fatalf("key %s not admitted back: %v", key, err)
		}
		if got := back.CacheKey(); got != key {
			t.Fatalf("key admitted back to another key:\n%s\n%s", key, got)
		}
		size := float64(nj.Params.N)
		if spec.Population != nil {
			size, _ = spec.Population(nj.Params)
		}
		if p := nj.Params.Fault; p != nil && p.ArriveEvery > 0 {
			if p.MaxChurn == 0 {
				t.Fatalf("job %s admitted with unbounded arrivals", key)
			}
			size += float64(p.MaxChurn)
		}
		if limit := job.MaxPopulation[nj.Engine]; size > float64(limit) {
			t.Fatalf("job %s can reach population %.0f, above the %s cap of %d", key, size, nj.Engine, limit)
		}
	})
}
