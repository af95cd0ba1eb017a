package runner

import (
	"context"
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"shapesol/internal/counting"
	"shapesol/internal/job"
)

func TestSeeds(t *testing.T) {
	got := Seeds(5, 3)
	if !reflect.DeepEqual(got, []int64{5, 6, 7}) {
		t.Fatalf("Seeds(5,3) = %v", got)
	}
	if len(Seeds(0, 0)) != 0 {
		t.Fatal("Seeds(0,0) not empty")
	}
}

func TestMapPreservesSeedOrder(t *testing.T) {
	seeds := Seeds(100, 64)
	// Jittered work so completion order differs from seed order.
	fn := func(seed int64) int64 {
		time.Sleep(time.Duration(rand.Intn(200)) * time.Microsecond)
		return seed * 3
	}
	got := Map(8, seeds, fn)
	for i, v := range got {
		if v != seeds[i]*3 {
			t.Fatalf("slot %d = %d, want %d", i, v, seeds[i]*3)
		}
	}
}

// fakeTrial is a deterministic pure function of the seed with flags and
// values exercising every aggregate path.
func fakeTrial(seed int64) Trial {
	r := rand.New(rand.NewSource(seed))
	return Trial{
		Seed:  seed,
		Steps: 1000 + r.Int63n(1000),
		Flags: map[string]bool{
			"success": r.Intn(4) != 0,
			"halted":  true,
		},
		Values: map[string]float64{"ratio": r.Float64()},
	}
}

func TestSummarizeDeterministicAcrossWorkerCounts(t *testing.T) {
	seeds := Seeds(1, 97) // odd count to leave a ragged tail per worker
	var want []byte
	for _, workers := range []int{1, 2, 3, 8, 32} {
		agg := Summarize(Map(workers, seeds, fakeTrial))
		got, err := json.Marshal(agg)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
			continue
		}
		if string(got) != string(want) {
			t.Fatalf("workers=%d: aggregate JSON differs:\n%s\nvs\n%s", workers, got, want)
		}
	}
}

// TestRealWorkloadDeterministic drives an actual protocol through the pool:
// the Counting-Upper-Bound trials must aggregate identically at any worker
// count (the property cmd/experiments -parallel relies on).
func TestRealWorkloadDeterministic(t *testing.T) {
	run := func(seed int64) Trial {
		w := counting.NewUpperBoundWorld(50, 4, seed, 0, nil)
		out := counting.UpperBoundOutcomeOf(4, w, w.Run())
		return Trial{
			Seed:   seed,
			Steps:  out.Steps,
			Flags:  map[string]bool{"success": out.Success},
			Values: map[string]float64{"r0_over_n": out.Estimate},
		}
	}
	seeds := Seeds(0, 20)
	serial := Summarize(Map(1, seeds, run))
	parallel := Summarize(Map(8, seeds, run))
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("aggregates differ:\nserial   %+v\nparallel %+v", serial, parallel)
	}
}

func TestSummarizeRatesAndMeans(t *testing.T) {
	trials := []Trial{
		{Seed: 0, Steps: 10, Flags: map[string]bool{"ok": true}, Values: map[string]float64{"x": 1, "y": 8}},
		{Seed: 1, Steps: 20, Flags: map[string]bool{"ok": false}, Values: map[string]float64{"x": 3}},
	}
	agg := Summarize(trials)
	if agg.Trials != 2 {
		t.Fatalf("trials = %d", agg.Trials)
	}
	if agg.Steps.Mean != 15 {
		t.Fatalf("mean steps = %v", agg.Steps.Mean)
	}
	if r := agg.Rates["ok"]; r.Successes != 1 || r.Trials != 2 {
		t.Fatalf("rate = %+v", r)
	}
	if agg.Means["x"] != 2 {
		t.Fatalf("mean x = %v", agg.Means["x"])
	}
	// y is only defined on one trial: the mean is over trials that
	// recorded it, not diluted by the others.
	if agg.Means["y"] != 8 {
		t.Fatalf("mean y = %v, want 8", agg.Means["y"])
	}
}

// TestRunManySeedOrderAndDeterminism fans one Job across the pool: the
// envelopes must come back in seed order with the job's seed overridden
// per trial, and (wall time aside) be identical at any worker count.
func TestRunManySeedOrderAndDeterminism(t *testing.T) {
	j := job.Job{Protocol: "counting-upper-bound", Params: job.Params{N: 50, B: 4}}
	seeds := Seeds(0, 9)
	var want []job.Result
	for _, workers := range []int{1, 4, 16} {
		got, err := RunMany(context.Background(), workers, j, seeds)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			got[i].WallTime = 0 // the one legitimately varying field
			if got[i].Seed != seeds[i] {
				t.Fatalf("workers=%d slot %d: seed %d, want %d", workers, i, got[i].Seed, seeds[i])
			}
		}
		if want == nil {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: results differ from serial run", workers)
		}
	}
}

func TestRunManyPropagatesJobErrors(t *testing.T) {
	_, err := RunMany(context.Background(), 4, job.Job{Protocol: "nope"}, Seeds(0, 3))
	if err == nil || !strings.Contains(err.Error(), "unknown protocol") {
		t.Fatalf("err = %v, want unknown-protocol error", err)
	}
}

func TestRunManyCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, err := RunMany(ctx, 4,
		job.Job{Protocol: "counting-upper-bound", Params: job.Params{N: 100}}, Seeds(0, 5))
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Reason != job.ReasonCanceled {
			t.Fatalf("slot %d: reason %q, want %q", i, res.Reason, job.ReasonCanceled)
		}
	}
}

func TestWorkers(t *testing.T) {
	if Workers(3) != 3 {
		t.Fatal("explicit worker count not honored")
	}
	if Workers(0) < 1 || Workers(-1) < 1 {
		t.Fatal("all-cores fallback returned < 1")
	}
}

func TestMapEmptySeeds(t *testing.T) {
	if got := Map(4, nil, func(int64) int { return 1 }); len(got) != 0 {
		t.Fatalf("Map on empty seeds = %v", got)
	}
}
