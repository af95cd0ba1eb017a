// Package experiments declares the paper's experiments once, as data.
// Each E-id of EXPERIMENTS.md is a list of Jobs against the protocol
// registry of internal/job, the measurement read off each Result, and an
// optional statistic derived from the rows. cmd/experiments runs and
// renders the registry, the root benchmarks loop over it, and the claims
// test checks each paper claim on its reports. Gaps in the numbering are
// intentional: E5/E6 are bench-only stabilization measurements.
package experiments

import (
	"context"
	"fmt"
	"maps"

	"shapesol/internal/check"
	"shapesol/internal/core"
	"shapesol/internal/counting"
	"shapesol/internal/grid"
	"shapesol/internal/job"
	"shapesol/internal/runner"
	"shapesol/internal/sched"
	"shapesol/internal/stats"
)

// Experiment is one E-id: the configurations it runs, the measurement of
// each run, and what it derives from the rows.
type Experiment struct {
	ID    string
	Title string
	Note  string // the paper's claim, rendered as "paper: ..."
	Rows  []Config
	// Measure reads one run's flags and values off its Result; the seed
	// and step count come from the envelope.
	Measure func(job.Result) runner.Trial
	// Derive, when non-nil, computes the report's derived statistics from
	// its measured rows.
	Derive func([]Row) map[string]float64
}

// Config declares one row: the Job run once per seed, and the label and
// params its report row shows.
type Config struct {
	Label  string
	Params map[string]int
	Job    job.Job
	// Trials maps the requested trial count to the row's own; nil keeps
	// it. With RecordTrials the row's count joins its params as "trials".
	Trials       func(requested int) int
	RecordTrials bool
}

// Row is one experiment configuration's aggregated outcome.
type Row struct {
	Label  string           `json:"label"`
	Params map[string]int   `json:"params,omitempty"`
	Agg    runner.Aggregate `json:"agg"`
}

// Report is one experiment's full result set.
type Report struct {
	ID      string             `json:"id"`
	Title   string             `json:"title"`
	Rows    []Row              `json:"rows"`
	Derived map[string]float64 `json:"derived,omitempty"`
	Note    string             `json:"note,omitempty"`
}

// All returns the experiments in run order.
func All() []Experiment { return registry }

// Lookup returns the experiment with the given id.
func Lookup(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Run executes every row of e, one Job per seed from seed on, across the
// worker pool (workers < 1 means all cores), and folds each row's
// Results in seed order, so the report is the same for any worker count.
func (e Experiment) Run(ctx context.Context, workers, trials int, seed int64) (Report, error) {
	r := Report{ID: e.ID, Title: e.Title, Note: e.Note}
	for _, c := range e.Rows {
		n := trials
		if c.Trials != nil {
			n = c.Trials(trials)
		}
		results, err := runner.RunMany(ctx, workers, c.Job, runner.Seeds(seed, n))
		if err != nil {
			return Report{}, fmt.Errorf("%s %s: %w", e.ID, c.Label, err)
		}
		ts := make([]runner.Trial, len(results))
		for i, res := range results {
			ts[i] = e.Measure(res)
			ts[i].Seed, ts[i].Steps = res.Seed, res.Steps
		}
		params := c.Params
		if c.RecordTrials {
			params = maps.Clone(c.Params)
			params["trials"] = n
		}
		r.Rows = append(r.Rows, Row{Label: c.Label, Params: params, Agg: runner.Summarize(ts)})
	}
	if e.Derive != nil {
		r.Derived = e.Derive(r.Rows)
	}
	return r, nil
}

// once is the trial rule of the exhaustive check rows: exploration is
// seed-free, so extra seeds would re-prove the same fact.
func once(int) int { return 1 }

// each declares one row per item.
func each[T any](items []T, row func(T) Config) []Config {
	rows := make([]Config, len(items))
	for i, it := range items {
		rows[i] = row(it)
	}
	return rows
}

// counts declares one row per population size: the protocol at head start
// b, on engine (empty: the spec default) with budget (0: the spec
// default).
func counts(protocol string, engine job.Engine, b int, budget int64, ns ...int) []Config {
	return each(ns, func(n int) Config {
		return Config{Label: fmt.Sprintf("n=%d", n), Params: map[string]int{"n": n, "b": b},
			Job: job.Job{Protocol: protocol, Engine: engine, Params: job.Params{N: n, B: b}, MaxSteps: budget}}
	})
}

// upperBound measures a Counting-Upper-Bound run: success is r0 >= n/2.
func upperBound(res job.Result) runner.Trial {
	out := res.Payload.(counting.UpperBoundOutcome)
	return runner.Trial{
		Flags:  map[string]bool{"success": out.Success},
		Values: map[string]float64{"r0_over_n": out.Estimate}}
}

// upperBoundHalted is upperBound plus the envelope's halted flag, for
// runs under schedulers or faults that can keep the leader from halting.
func upperBoundHalted(res job.Result) runner.Trial {
	t := upperBound(res)
	t.Flags["halted"] = res.Halted
	return t
}

// checkVerdict measures an exhaustive Counting-Upper-Bound exploration.
func checkVerdict(res job.Result) runner.Trial {
	out := res.Payload.(counting.UpperBoundCheckOutcome)
	return runner.Trial{
		Flags:  map[string]bool{"halts": out.Complete && out.Halts},
		Values: map[string]float64{"configs": float64(out.Configs)}}
}

// parallel3D measures a Theorem 5 run.
func parallel3D(res job.Result) runner.Trial {
	out := res.Payload.(core.Parallel3DOutcome)
	return runner.Trial{Flags: map[string]bool{"decided": out.Decided, "correct": out.Correct}}
}

// logLogSlope fits log(mean steps) against log(n) over the rows.
func logLogSlope(rows []Row) map[string]float64 {
	xs, ys := make([]float64, len(rows)), make([]float64, len(rows))
	for i, r := range rows {
		xs[i], ys[i] = float64(r.Params["n"]), r.Agg.Steps.Mean
	}
	slope, err := stats.LogLogSlope(xs, ys)
	if err != nil {
		return nil
	}
	return map[string]float64{"loglog_slope": slope}
}

// Row keys of the sweeps below.
type (
	langSide struct {
		lang string
		d    int
	}
	namedShape struct {
		name string
		g    *grid.Shape
	}
	// scheduled is one row of a scheduler sweep: its label, profile and
	// report params.
	scheduled struct {
		label  string
		fault  *sched.Profile
		params map[string]int
	}
)

var registry = []Experiment{
	{
		ID: "E1", Title: "Theorem 1 / Remark 2: Counting-Upper-Bound (b=5)",
		Note:    "halts always; r0 >= n/2 w.h.p.; estimate ~0.9n for n <= 1000",
		Rows:    counts("counting-upper-bound", "", 5, 0, 100, 300, 1000),
		Measure: upperBound,
	},
	{
		ID: "E2", Title: "Remark 1: counting time = O(n^2 log n)",
		Note:    "log-log slope 2 plus log factor",
		Rows:    counts("counting-upper-bound", "", 4, 0, 50, 100, 200, 400),
		Measure: func(job.Result) runner.Trial { return runner.Trial{} },
		Derive:  logLogSlope,
	},
	{
		ID: "E3", Title: "Theorem 2: simple UID counting, E[time] = Theta(n^b)",
		Note: "exact count w.h.p.; expected steps grow like b(n-1)^b",
		Rows: each([]struct{ n, b int }{{6, 2}, {6, 3}, {8, 2}}, func(c struct{ n, b int }) Config {
			return Config{Label: fmt.Sprintf("n=%d b=%d", c.n, c.b), Params: map[string]int{"n": c.n, "b": c.b},
				Job: job.Job{Protocol: "simple-uid", Params: job.Params{N: c.n, B: c.b}, MaxSteps: 500_000_000}}
		}),
		Measure: func(res job.Result) runner.Trial {
			return runner.Trial{Flags: map[string]bool{"exact": res.Payload.(counting.SimpleUIDOutcome).Exact}}
		},
	},
	{
		ID: "E4", Title: "Theorem 3: UID counting (Protocol 3, b=4)",
		Note: "max id wins and 2*count1 >= n w.h.p.",
		Rows: counts("uid", "", 4, 0, 50, 200),
		Measure: func(res job.Result) runner.Trial {
			out := res.Payload.(counting.UIDOutcome)
			return runner.Trial{Flags: map[string]bool{"winner_is_max": out.WinnerIsMax, "success": out.Success}}
		},
	},
	{
		ID: "E7", Title: "Lemma 1: Counting-on-a-Line (b=3)",
		Note: "r0 >= n/2; tape length floor(lg r0)+1; debt repaid at halt",
		Rows: counts("count-line", "", 3, 200_000_000, 16, 32),
		Measure: func(res job.Result) runner.Trial {
			out := res.Payload.(core.CountLineOutcome)
			return runner.Trial{Flags: map[string]bool{
				"success":     out.Success,
				"length_ok":   out.LineLength == core.ExpectedLineLength(out.R0),
				"debt_repaid": out.DebtRepaid,
			}}
		},
	},
	{
		ID: "E8", Title: "Lemma 2: Square-Knowing-n (n = d^2 exactly)",
		Note: "terminates with the exact d x d square",
		Rows: each([]int{3, 4}, func(d int) Config {
			return Config{Label: fmt.Sprintf("d=%d", d), Params: map[string]int{"d": d, "n": d * d},
				Job: job.Job{Protocol: "square-knowing-n", Params: job.Params{N: d * d, D: d}, MaxSteps: 500_000_000}}
		}),
		Measure: func(res job.Result) runner.Trial {
			out := res.Payload.(core.SquareKnowingNOutcome)
			return runner.Trial{Flags: map[string]bool{"square": out.Halted && out.Square}}
		},
	},
	{
		ID: "E9", Title: "Theorem 4: universal constructor, waste <= (d-1)d",
		Rows: each([]langSide{{"star", 6}, {"star", 10}, {"cross", 6}, {"cross", 10}, {"bottom-row", 6}, {"bottom-row", 10}},
			func(c langSide) Config {
				return Config{Label: fmt.Sprintf("%s d=%d", c.lang, c.d), Params: map[string]int{"d": c.d, "bound": (c.d - 1) * c.d},
					Job: job.Job{Protocol: "universal", Params: job.Params{Lang: c.lang, D: c.d}, MaxSteps: 500_000_000}}
			}),
		Measure: func(res job.Result) runner.Trial {
			out := res.Payload.(core.UniversalOutcome)
			t := runner.Trial{Flags: map[string]bool{
				"match":    out.Match,
				"waste_ok": out.Match && out.Waste <= (out.D-1)*out.D,
			}}
			if out.Match { // waste is undefined on unconverged trials
				t.Values = map[string]float64{"waste": float64(out.Waste)}
			}
			return t
		},
	},
	{
		ID: "E10", Title: "Theorem 5: parallel simulations on 3D columns (k=3)",
		Rows: each([]int{3, 4}, func(d int) Config {
			return Config{Label: fmt.Sprintf("d=%d", d), Params: map[string]int{"d": d, "k": 3},
				Job: job.Job{Protocol: "parallel-3d", Params: job.Params{Lang: "star", D: d, K: 3}, MaxSteps: 300_000_000}}
		}),
		Measure: parallel3D,
	},
	// E11 prices Theorem 5's memory column height k in assembly steps: each
	// pixel recruits, bonds and walks k-1 free nodes before its TM starts.
	{
		ID: "E11", Title: "Theorem 5 trade-off: decision time vs memory column height k",
		Note: "taller columns = more per-pixel tape, paid for in assembly steps",
		Rows: each([]int{2, 3, 4, 5}, func(k int) Config {
			return Config{Label: fmt.Sprintf("k=%d", k), Params: map[string]int{"d": 3, "k": k},
				Job: job.Job{Protocol: "parallel-3d", Params: job.Params{Lang: "star", D: 3, K: k}, MaxSteps: 300_000_000}}
		}),
		Measure: parallel3D,
		Derive: func(rows []Row) map[string]float64 {
			first, last := rows[0], rows[len(rows)-1]
			if first.Agg.Steps.Mean <= 0 {
				return nil
			}
			key := fmt.Sprintf("steps_k%d_over_k%d", last.Params["k"], first.Params["k"])
			return map[string]float64{key: last.Agg.Steps.Mean / first.Agg.Steps.Mean}
		},
	},
	{
		ID: "E12", Title: "Section 7: shape self-replication (free = 2|R_G|-|G|)",
		Rows: each([]namedShape{
			{"line3", grid.ShapeOf(grid.Pos{}, grid.Pos{X: 1}, grid.Pos{X: 2})},
			{"lshape", grid.ShapeOf(grid.Pos{}, grid.Pos{X: 1}, grid.Pos{X: 2}, grid.Pos{Y: 1})},
		}, func(c namedShape) Config {
			rect := c.g.EnclosingRect().Size()
			free := 2*rect - c.g.Size()
			return Config{Label: c.name, Params: map[string]int{"size": c.g.Size(), "rect": rect, "free": free},
				Job: job.Job{Protocol: "replication", Params: job.Params{Shape: c.g, Free: free}, MaxSteps: 500_000_000}}
		}),
		Measure: func(res job.Result) runner.Trial {
			return runner.Trial{Flags: map[string]bool{"two_copies": res.Payload.(core.ReplicationOutcome).Copies == 2}}
		},
	},
	{
		ID: "E13", Title: "Conjecture 1 evidence: leaderless early termination",
		Note: "stays constant as n grows => leaderless counting impossible",
		Rows: each([]int{20, 100, 500}, func(n int) Config {
			return Config{Label: fmt.Sprintf("n=%d", n), Params: map[string]int{"n": n},
				Job: job.Job{Protocol: "leaderless", Params: job.Params{N: n}, MaxSteps: int64(50 * n)}}
		}),
		Measure: func(res job.Result) runner.Trial {
			return runner.Trial{Flags: map[string]bool{"early": res.Payload.(counting.LeaderlessOutcome).EarlyTermination}}
		},
	},
	{
		ID: "E14", Title: "Urn engine: Counting-Upper-Bound at scale (b=5, n up to 10^6)",
		Note:    "same law as E1/E2 on the urn-compressed scheduler; slope ~2 plus log factor",
		Rows:    counts("counting-upper-bound", job.EngineUrn, 5, 0, 10_000, 100_000, 1_000_000),
		Measure: upperBound,
		Derive:  logLogSlope,
	},
	// E15's trial count scales down with n: one n = 10^8 trial simulates
	// ~10^17 steps. Wall-clock stays out of the byte-deterministic report;
	// BENCH_urn_scaling.json holds it.
	{
		ID: "E15", Title: "Urn engine at scale: alias sampler + batched blocks, n up to 10^8",
		Note: "same law as E14, two decades further; slope ~2 plus log factor",
		Rows: each([]struct{ n, div int }{{1_000_000, 1}, {10_000_000, 10}, {100_000_000, 20}}, func(c struct{ n, div int }) Config {
			return Config{Label: fmt.Sprintf("n=%.0e", float64(c.n)), Params: map[string]int{"n": c.n, "b": 5},
				Job:    job.Job{Protocol: "counting-upper-bound", Engine: job.EngineUrn, Params: job.Params{N: c.n, B: 5}},
				Trials: func(requested int) int { return max(requested/c.div, 1) }, RecordTrials: true}
		}),
		Measure: upperBound,
		Derive:  logLogSlope,
	},
	// E16: pair-fair skew, even starving the leader alone, costs steps
	// only; a starved 25% prefix never pairs the leader with the starved
	// agents, so halted stays 0 at any budget (EXPERIMENTS.md, findings).
	{
		ID: "E16", Title: "Termination under unfair schedulers (n=100, b=5)",
		Note: "pair-fair unfairness costs steps only; agent-level fairness alone breaks halting",
		Rows: each([]scheduled{
			{"uniform", nil, map[string]int{"n": 100, "b": 5}},
			{"weighted 1:8", &sched.Profile{Scheduler: sched.KindWeighted, Rates: []int64{1, 8}},
				map[string]int{"n": 100, "b": 5}},
			{"clustered", &sched.Profile{Scheduler: sched.KindClustered, BlockSize: 32, BiasPct: 90},
				map[string]int{"n": 100, "b": 5, "block": 32, "bias_pct": 90}},
			{"starve leader", &sched.Profile{Scheduler: sched.KindAdversarialDelay, StarvePct: 1, FairnessBound: 4096},
				map[string]int{"n": 100, "b": 5, "starve_pct": 1, "fairness_bound": 4096}},
			{"starve 25%", &sched.Profile{Scheduler: sched.KindAdversarialDelay, StarvePct: 25, FairnessBound: 4096},
				map[string]int{"n": 100, "b": 5, "starve_pct": 25, "fairness_bound": 4096}},
		}, func(c scheduled) Config {
			return Config{Label: c.label, Params: c.params,
				Job: job.Job{Protocol: "counting-upper-bound", Params: job.Params{N: 100, B: 5, Fault: c.fault}, MaxSteps: 20_000_000}}
		}),
		Measure: upperBoundHalted,
	},
	// E17 sweeps the mean crash gap from a decade above to a decade below
	// the ~6.6e8-step counting time at n = 10^4; one crashed marked agent
	// strands the census. Gap 0 is the fault-free row.
	{
		ID: "E17", Title: "Crash-stop vs Theorem 1: where r0 >= n/2 breaks (urn, n=10^4)",
		Note: "reliable population is load-bearing: one crashed marked agent strands the census",
		Rows: each([]int64{0, 10_000_000_000, 3_000_000_000, 1_000_000_000, 300_000_000, 100_000_000}, func(gap int64) Config {
			c := Config{Label: "no faults", Params: map[string]int{"n": 10_000, "b": 5},
				Job: job.Job{Protocol: "counting-upper-bound", Engine: job.EngineUrn,
					Params: job.Params{N: 10_000, B: 5}, MaxSteps: 2_000_000_000}}
			if gap > 0 {
				c.Label = fmt.Sprintf("gap=%.0e", float64(gap))
				c.Job.Params.Fault = &sched.Profile{CrashEvery: gap, MaxCrashes: 10_000 - 1}
			}
			return c
		}),
		Measure: upperBoundHalted,
	},
	// E18 replaces sampling with proof at small n: "halts" and
	// "all_correct" hold for every fair execution, and max_depth is the
	// exact worst case, 2n-1-min(b, n-1).
	{
		ID: "E18", Title: "Exact verification: Counting-Upper-Bound halts everywhere (check, n<=8)",
		Note: "exhaustive over the multiset configuration space; worst case = 2n-1-b interactions",
		Rows: each(counts("counting-upper-bound", job.EngineCheck, 5, 0, 2, 3, 4, 5, 6, 7, 8), func(c Config) Config {
			c.Trials = once
			return c
		}),
		Measure: func(res job.Result) runner.Trial {
			out := res.Payload.(counting.UpperBoundCheckOutcome)
			t := checkVerdict(res)
			t.Flags["all_correct"], t.Flags["depth_bounded"] = out.AllCorrect, out.DepthBounded
			t.Values["max_depth"] = float64(out.MaxDepth)
			return t
		},
	},
	// E19 proves E16's starved-prefix row: under the veto form of
	// adversarial delay the 25% row reaches a frozen configuration, so no
	// fair completion exists, while leader-only starvation still halts.
	{
		ID: "E19", Title: "Exact confirmation of E16: starved prefix has no fair completion (check, n=8)",
		Note: "agent-level fairness alone breaks Theorem 1 — now theorem-grade, not statistical",
		Rows: each([]scheduled{
			{"uniform", nil, map[string]int{"n": 8, "b": 5}},
			{"starve leader", &sched.Profile{Scheduler: sched.KindAdversarialDelay, StarvePct: 1, FairnessBound: 4096},
				map[string]int{"n": 8, "b": 5, "starve_pct": 1}},
			{"starve 25%", &sched.Profile{Scheduler: sched.KindAdversarialDelay, StarvePct: 25, FairnessBound: 4096},
				map[string]int{"n": 8, "b": 5, "starve_pct": 25}},
		}, func(c scheduled) Config {
			return Config{Label: c.label, Params: c.params, Trials: once,
				Job: job.Job{Protocol: "counting-upper-bound", Engine: job.EngineCheck, Params: job.Params{N: 8, B: 5, Fault: c.fault}}}
		}),
		Measure: func(res job.Result) runner.Trial {
			out := res.Payload.(counting.UpperBoundCheckOutcome)
			t := checkVerdict(res)
			t.Flags["frozen_witness"] = out.Witness != nil && out.Witness.Kind == check.WitnessFrozen
			return t
		},
	},
}
