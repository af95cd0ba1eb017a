package main

import (
	"fmt"
	"math/rand"

	"shapesol/internal/grid"
	"shapesol/internal/job"
	"shapesol/internal/sched"
)

// This file generates every input of the benchmark from the workload
// seed alone. The shape of each list — which protocols, engines, sizes
// and fault profiles — is fixed, so runs with different seeds measure the
// same mix; the seed picks the engines' scheduler seeds (and, for the
// serving stream, which requests repeat a hot key), so each seed is a
// different sample of executions of that mix.

// benchJob is one distinct job of a batch workload.
type benchJob struct {
	job job.Job
	// checkpointAt, when positive, captures a snapshot through
	// Job.Checkpoint at that Progress callback; the repeat then encodes,
	// decodes and resumes it, and the resumed Result must equal the
	// uninterrupted one.
	checkpointAt int
	// guarantee names the paper's fault-free guarantee the Result must
	// meet ("" for faulted jobs, which have none).
	guarantee string
}

// seededRand returns the workload's RNG, offset per stream so the lists
// of different workloads are independent.
func seededRand(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + stream))
}

// countingJobs is the counting-batch list: Theorem 1 on urn at n =
// 10^5..10^6 (uniform, one checkpointed, and E16/E17-style weighted and
// crash-stop profiles with explicit budgets), plus the exact references,
// pop at n ~ 10^3 and check at n ~ 200.
func countingJobs(seed int64) []benchJob {
	r := seededRand(seed, 1)
	cub := func(e job.Engine, n int, fault *sched.Profile, budget int64) job.Job {
		return job.Job{Protocol: "counting-upper-bound", Engine: e,
			Params: job.Params{N: n, Fault: fault}, MaxSteps: budget, Seed: r.Int63n(1 << 40)}
	}
	var out []benchJob
	// Two uniform runs at n = 2*10^5 and the checkpointed one make the
	// median job an urn run, whose work is fixed by n, and not the pop
	// run, whose length varies with its seed.
	for _, n := range []int{100_000, 200_000, 200_000, 500_000, 1_000_000} {
		out = append(out, benchJob{job: cub(job.EngineUrn, n, nil, 0), guarantee: "halted"})
	}
	weighted := &sched.Profile{Scheduler: sched.KindWeighted, Rates: []int64{1, 8}}
	out = append(out,
		// Checkpointed share: capture about halfway (the urn engine calls
		// Progress roughly n/128 times per run).
		benchJob{job: cub(job.EngineUrn, 200_000, nil, 0), checkpointAt: 200_000 / 256, guarantee: "halted"},
		benchJob{job: cub(job.EngineUrn, 100_000, weighted, 2_000_000_000_000)},
		benchJob{job: cub(job.EngineUrn, 100_000, &sched.Profile{CrashEvery: 10_000_000_000, MaxCrashes: 99_999}, 500_000_000_000)},
		benchJob{job: cub(job.EnginePop, 1000, nil, 0), guarantee: "halted"},
		benchJob{job: cub(job.EngineCheck, 200, nil, 0), guarantee: "explored"},
	)
	return out
}

// shapesSamples is how many engine seeds each shapes-batch job runs
// under. A sim run's length varies with its seed by a third or more (an
// urn run's does not: its effective interactions are fixed by n), so
// each construction is sampled several times to keep the list's total
// work within a few percent from one workload seed to the next.
const shapesSamples = 3

// shapesJobs is the shapes-batch list: the stabilizing tables,
// count-line, square-knowing-n, universal, parallel-3d and replication,
// all on sim, sized so that no protocol takes most of the busy time.
func shapesJobs(seed int64) []benchJob {
	r := seededRand(seed, 2)
	var out []benchJob
	for i := 0; i < shapesSamples; i++ {
		out = append(out, shapesSample(r)...)
	}
	return out
}

// shapesSample is one sample of every shapes-batch job, with engine seeds
// drawn from r.
func shapesSample(r *rand.Rand) []benchJob {
	sim := func(protocol string, p job.Params, guarantee string) benchJob {
		return benchJob{job: job.Job{Protocol: protocol, Engine: job.EngineSim, Params: p, Seed: r.Int63n(1 << 40)},
			guarantee: guarantee}
	}
	l := grid.ShapeOf(grid.Pos{X: 0, Y: 0}, grid.Pos{X: 1, Y: 0}, grid.Pos{X: 1, Y: 1})
	bar := grid.ShapeOf(grid.Pos{X: 0, Y: 0}, grid.Pos{X: 1, Y: 0}, grid.Pos{X: 2, Y: 0})
	sq := grid.ShapeOf(grid.Pos{X: 0, Y: 0}, grid.Pos{X: 1, Y: 0}, grid.Pos{X: 0, Y: 1}, grid.Pos{X: 1, Y: 1})
	// The square2 table is left out: about half of its seeds do not reach
	// the spanning square within millions of steps. Universal runs small:
	// at d = 8 (star) or 6 (cross) a run allocates from 1 to 30 MB as its
	// seed falls, which would make the batch's peak memory a draw on the
	// seed. A third of the list is small (universal, replication,
	// square-knowing-n at d = 4) and under half is large, so the median
	// job is one of the stabilize line runs at n = 128, whose length
	// barely varies with the seed, rather than an edge of the small or the
	// large group, which would jump with the seed. Parallel-3d, whose
	// length varies most with the seed, runs once per sample.
	return []benchJob{
		sim("stabilize", job.Params{Table: "line", N: 128}, "spanning"),
		sim("stabilize", job.Params{Table: "line", N: 128}, "spanning"),
		sim("stabilize", job.Params{Table: "line", N: 128}, "spanning"),
		sim("stabilize", job.Params{Table: "line", N: 128}, "spanning"),
		sim("stabilize", job.Params{Table: "line", N: 256}, "spanning"),
		sim("stabilize", job.Params{Table: "square", N: 36}, "spanning"),
		sim("count-line", job.Params{N: 12}, "halted"),
		sim("count-line", job.Params{N: 13}, "halted"),
		sim("count-line", job.Params{N: 14}, "halted"),
		sim("square-knowing-n", job.Params{D: 4}, "halted"),
		sim("square-knowing-n", job.Params{D: 5}, "halted"),
		sim("square-knowing-n", job.Params{D: 5}, "halted"),
		sim("universal", job.Params{D: 6, Lang: "star"}, "match"),
		sim("universal", job.Params{D: 5, Lang: "cross"}, "match"),
		sim("parallel-3d", job.Params{D: 4, K: 3}, "correct"),
		sim("replication", job.Params{Shape: l}, "done"),
		sim("replication", job.Params{Shape: bar}, "done"),
		sim("replication", job.Params{Shape: sq}, "done"),
	}
}

// Serving stream shape. E20 split serving load into cached repeats and
// unique submissions; the stream interleaves the two with a fixed repeat
// probability over a small hot set.
const (
	hotKeys    = 64
	repeatPct  = 50
	freshKinds = 4
)

// request is one submission of the serving stream.
type request struct {
	job job.Job
	hot int // index into the hot set, or -1 for a fresh job
}

// servingJob is the small job of one engine used for both the hot set and
// the fresh submissions: engines stay a minority of request time.
func servingJob(kind int, seed int64) job.Job {
	switch kind % freshKinds {
	case 0:
		return job.Job{Protocol: "counting-upper-bound", Engine: job.EnginePop, Params: job.Params{N: 50}, Seed: seed}
	case 1:
		return job.Job{Protocol: "counting-upper-bound", Engine: job.EngineUrn, Params: job.Params{N: 1000}, Seed: seed}
	case 2:
		if seed%2 == 0 {
			return job.Job{Protocol: "stabilize", Engine: job.EngineSim, Params: job.Params{Table: "line", N: 8}, Seed: seed}
		}
		return job.Job{Protocol: "universal", Engine: job.EngineSim, Params: job.Params{D: 4, Lang: "star"}, Seed: seed}
	default:
		return job.Job{Protocol: "counting-upper-bound", Engine: job.EngineCheck, Params: job.Params{N: 8}, Seed: seed}
	}
}

// stream is the seeded request stream: request i is a pure function of
// (seed, i), so the stream is the same however fast clients consume it.
type stream struct {
	seed int64
	hot  []job.Job
}

func newStream(seed int64) *stream {
	s := &stream{seed: seed}
	for k := 0; k < hotKeys; k++ {
		s.hot = append(s.hot, servingJob(k, s.jobSeed(k)))
	}
	return s
}

// jobSeed gives hot keys and fresh requests disjoint engine seeds.
func (s *stream) jobSeed(i int) int64 { return s.seed<<32 | int64(i) }

func (s *stream) at(i int) request {
	h := splitmix64(uint64(s.seed)*0x9e3779b97f4a7c15 + uint64(i))
	if h%100 < repeatPct {
		k := int(h / 100 % hotKeys)
		return request{job: s.hot[k], hot: k}
	}
	return request{job: servingJob(int(h/100%freshKinds), s.jobSeed(hotKeys+i)), hot: -1}
}

// splitmix64 is a cheap, well-mixed hash, so each request draws its
// shape without seeding a generator.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// failoverJob is the long urn run the cluster's failover probe kills its
// owner under. Default flags mirror checkpoints once a second, so the run
// must outlast a second comfortably: n = 4*10^6 takes about 2 s.
func failoverJob(seed int64) job.Job {
	return job.Job{Protocol: "counting-upper-bound", Engine: job.EngineUrn,
		Params: job.Params{N: 4_000_000}, Seed: seed<<32 | 0xfffff}
}

// checkGuarantee verifies the paper's fault-free guarantee named by g
// against a Result payload decoded from JSON.
func checkGuarantee(g string, halted bool, payload map[string]any) error {
	ok := true
	switch g {
	case "":
		return nil
	case "halted":
		ok = halted
	case "explored":
		// check's verdict: the exploration completed and every fair
		// execution halts.
		ok = halted && payload["complete"] == true && payload["halts"] == true
	case "spanning", "match", "correct", "done":
		ok = halted && payload[g] == true
	default:
		return fmt.Errorf("unknown guarantee %q", g)
	}
	if !ok {
		return fmt.Errorf("guarantee %q not met (halted=%v)", g, halted)
	}
	return nil
}

// servingGuarantee is the fault-free guarantee of a serving job.
func servingGuarantee(j job.Job) string {
	switch {
	case j.Engine == job.EngineCheck:
		return "explored"
	case j.Protocol == "stabilize":
		return "spanning"
	case j.Protocol == "universal":
		return "match"
	}
	return "halted"
}
