package main

import (
	"encoding/json"
	"testing"

	"shapesol/internal/job"
)

// wire renders jobs in their wire form, the identity the daemon and the
// cache key see.
func wire(t *testing.T, jobs []job.Job) string {
	t.Helper()
	b, err := json.Marshal(jobs)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func batchJobs(list []benchJob) []job.Job {
	out := make([]job.Job, len(list))
	for i, bj := range list {
		out[i] = bj.job
	}
	return out
}

func streamJobs(seed int64, n int) []job.Job {
	s := newStream(seed)
	out := make([]job.Job, n)
	for i := range out {
		out[i] = s.at(i).job
	}
	return out
}

func TestInputsDeriveFromSeed(t *testing.T) {
	inputs := map[string]func(seed int64) []job.Job{
		"counting-batch": func(seed int64) []job.Job { return batchJobs(countingJobs(seed)) },
		"shapes-batch":   func(seed int64) []job.Job { return batchJobs(shapesJobs(seed)) },
		"serving stream": func(seed int64) []job.Job { return streamJobs(seed, 500) },
	}
	for name, gen := range inputs {
		a, again, other := wire(t, gen(7)), wire(t, gen(7)), wire(t, gen(8))
		if a != again {
			t.Errorf("%s: the same seed gave different inputs", name)
		}
		if a == other {
			t.Errorf("%s: another seed gave the same inputs", name)
		}
		for _, j := range gen(7) {
			if _, _, err := job.Normalize(j); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
	}
}

func TestStreamMix(t *testing.T) {
	s := newStream(3)
	const n = 20000
	repeats, kinds := 0, map[job.Engine]int{}
	for i := 0; i < n; i++ {
		r := s.at(i)
		if r.hot >= 0 {
			repeats++
			continue
		}
		kinds[r.job.Engine]++
		if r.job.Seed == s.at(i+1).job.Seed {
			t.Fatalf("fresh requests %d and %d share a seed", i, i+1)
		}
	}
	if share := float64(repeats) / n; share < 0.47 || share > 0.53 {
		t.Errorf("repeat share %.3f, want about %d%%", share, repeatPct)
	}
	if len(kinds) != freshKinds {
		t.Errorf("fresh jobs ran on %d engines, want %d", len(kinds), freshKinds)
	}
}
