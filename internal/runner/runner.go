// Package runner executes independent randomized trials across a worker
// pool. Every statistic in the paper is an aggregate over many scheduler
// seeds; the engines themselves are single-threaded by design (one RNG, one
// deterministic execution per seed), so the way to use all cores is to fan
// complete trials out, one world per seed per worker.
//
// Determinism contract: a trial is a pure function of its seed, results are
// collected in seed order, and aggregates are folded over that order — so
// the same seed set produces byte-identical aggregates (and JSON) for ANY
// worker count, including 1.
package runner

import (
	"context"
	"errors"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"shapesol/internal/job"
	"shapesol/internal/stats"
)

// Seeds returns n consecutive seeds starting at base: the canonical seed
// set of an experiment configuration.
func Seeds(base int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = base + int64(i)
	}
	return out
}

// Workers normalizes a worker-count request: values < 1 mean "all cores".
func Workers(requested int) int {
	if requested < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return requested
}

// Pool errors. ErrQueueFull is the backpressure signal of TrySubmit — the
// caller decides whether to retry or reject upstream (the job service
// answers it with 503).
var (
	ErrQueueFull  = errors.New("runner: queue full")
	ErrPoolClosed = errors.New("runner: pool closed")
)

// Pool is a fixed set of workers draining a bounded task queue. Tasks
// enter only through TrySubmit, which never blocks. It is the executor
// behind Map/RunMany (batch: a queue that holds the whole batch, then
// Close) and behind the job service (streaming: TrySubmit with
// backpressure, Close to drain). Tasks start in submission order; with
// more than one worker, completion order is up to the scheduler, so tasks
// that need ordered results must write into per-task slots the way Map
// does.
type Pool struct {
	tasks   chan func()
	wg      sync.WaitGroup
	workers int
	busy    atomic.Int64

	// mu guards closed and fences submissions against close(tasks):
	// submitters hold it shared, Close takes it exclusively — by which
	// point no send is in flight.
	mu     sync.RWMutex
	closed bool
}

// NewPool starts workers goroutines (values < 1 mean "all cores") over a
// task queue holding up to queue pending tasks beyond the ones being
// executed. A zero queue makes submission rendezvous with a free worker.
func NewPool(workers, queue int) *Pool {
	workers = Workers(workers)
	if queue < 0 {
		queue = 0
	}
	p := &Pool{tasks: make(chan func(), queue), workers: workers}
	p.wg.Add(workers)
	for g := 0; g < workers; g++ {
		go func() {
			defer p.wg.Done()
			for task := range p.tasks {
				p.busy.Add(1)
				task()
				p.busy.Add(-1)
			}
		}()
	}
	return p
}

// Workers returns the pool's worker count.
func (p *Pool) Workers() int { return p.workers }

// QueueDepth returns the number of queued (not yet started) tasks.
func (p *Pool) QueueDepth() int { return len(p.tasks) }

// QueueCap returns the queue capacity.
func (p *Pool) QueueCap() int { return cap(p.tasks) }

// Busy returns the number of workers currently executing a task. With
// QueueDepth it is the service's saturation signal: Busy == Workers and
// a full queue is the state TrySubmit answers with ErrQueueFull.
func (p *Pool) Busy() int { return int(p.busy.Load()) }

// TrySubmit enqueues task without blocking. It returns ErrQueueFull when
// the queue is at capacity and every worker is busy, and ErrPoolClosed
// after Close.
func (p *Pool) TrySubmit(task func()) error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return ErrPoolClosed
	}
	select {
	case p.tasks <- task:
		return nil
	default:
		return ErrQueueFull
	}
}

// Close stops accepting tasks and blocks until every queued and running
// task has finished. It is idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.tasks)
	}
	p.mu.Unlock()
	p.wg.Wait()
}

// Map runs fn once per seed on min(workers, len(seeds)) pool workers and
// returns the results in seed order. fn must be a pure function of its
// seed (build the world, run it, return the measurement) so that the
// result slice — and everything folded over it — is independent of worker
// count and scheduling.
func Map[T any](workers int, seeds []int64, fn func(seed int64) T) []T {
	workers = Workers(workers)
	if workers > len(seeds) {
		workers = len(seeds)
	}
	out := make([]T, len(seeds))
	if workers <= 1 {
		for i, s := range seeds {
			out[i] = fn(s)
		}
		return out
	}
	pool := NewPool(workers, len(seeds))
	for i, s := range seeds {
		// The queue holds the whole batch, so submission cannot fail.
		if err := pool.TrySubmit(func() { out[i] = fn(s) }); err != nil {
			panic(err)
		}
	}
	pool.Close()
	return out
}

// RunMany executes the same Job once per seed across the worker pool and
// returns the Result envelopes in seed order. Every run shares ctx:
// canceling it makes the in-flight and remaining runs return promptly
// with Reason == job.ReasonCanceled (not an error). The returned error is
// the first per-seed error in seed order — job errors are deterministic
// properties of the Job (unknown protocol, bad params, invalid
// configuration), so one seed failing means they all do. A non-nil
// j.Progress is shared by every run and must therefore be safe for
// concurrent use when workers > 1.
func RunMany(ctx context.Context, workers int, j job.Job, seeds []int64) ([]job.Result, error) {
	type runOut struct {
		res job.Result
		err error
	}
	outs := Map(workers, seeds, func(seed int64) runOut {
		jj := j
		jj.Seed = seed
		res, err := job.Run(ctx, jj)
		return runOut{res: res, err: err}
	})
	results := make([]job.Result, len(outs))
	var firstErr error
	for i, o := range outs {
		results[i] = o.res
		if o.err != nil && firstErr == nil {
			firstErr = o.err
		}
	}
	return results, firstErr
}

// Trial is one measured execution of a protocol under one scheduler seed.
// Flags carry named success criteria ("halted", "square", ...); Values
// carry named measurements beyond the step count ("waste", "r0_over_n").
type Trial struct {
	Seed   int64              `json:"seed"`
	Steps  int64              `json:"steps"`
	Flags  map[string]bool    `json:"flags,omitempty"`
	Values map[string]float64 `json:"values,omitempty"`
}

// Aggregate summarizes a trial set: step statistics, one Wilson rate per
// flag (absent keys count as false), and one mean per value key over the
// trials that recorded it — a trial omits a value when it is undefined
// (e.g. a measurement only meaningful on success). Folding happens in
// slice order, so equal trial slices yield equal (bit-identical)
// aggregates.
type Aggregate struct {
	Trials int                   `json:"trials"`
	Steps  stats.Summary         `json:"steps"`
	Rates  map[string]stats.Rate `json:"rates,omitempty"`
	Means  map[string]float64    `json:"means,omitempty"`
}

// Summarize folds trials (in input order) into an Aggregate.
func Summarize(trials []Trial) Aggregate {
	agg := Aggregate{Trials: len(trials)}
	steps := make([]float64, len(trials))
	for i, t := range trials {
		steps[i] = float64(t.Steps)
	}
	agg.Steps = stats.Summarize(steps)

	for _, key := range keyUnion(trials, func(t Trial) map[string]bool { return t.Flags }) {
		hits := 0
		for _, t := range trials {
			if t.Flags[key] {
				hits++
			}
		}
		if agg.Rates == nil {
			agg.Rates = make(map[string]stats.Rate)
		}
		agg.Rates[key] = stats.NewRate(hits, len(trials))
	}
	for _, key := range keyUnion(trials, func(t Trial) map[string]float64 { return t.Values }) {
		sum, count := 0.0, 0
		for _, t := range trials {
			if v, ok := t.Values[key]; ok {
				sum += v
				count++
			}
		}
		if agg.Means == nil {
			agg.Means = make(map[string]float64)
		}
		agg.Means[key] = sum / float64(count)
	}
	return agg
}

// keyUnion collects the sorted union of map keys across trials, so that
// aggregate folding visits keys in a deterministic order.
func keyUnion[V any](trials []Trial, get func(Trial) map[string]V) []string {
	seen := make(map[string]bool)
	for _, t := range trials {
		for k := range get(t) {
			seen[k] = true
		}
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
