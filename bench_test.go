package shapesol

// Benchmarks of the paper's experiments. BenchmarkExperiments runs every
// row of the experiment registry (internal/experiments); the rest measure
// what the registry does not declare: the bench-only spanning runs of
// E5/E6, the MicroStep TM variant of E9, the urn's head-to-head and
// scaling runs (E14, E15), large check explorations and raw engine steps.
// Each reports scheduler steps per run via b.ReportMetric; absolute ns/op
// is secondary (the paper's unit is interactions, not wall-clock).

import (
	"context"
	"fmt"
	"testing"

	"shapesol/internal/core"
	"shapesol/internal/counting"
	"shapesol/internal/experiments"
	"shapesol/internal/grid"
	"shapesol/internal/job"
	"shapesol/internal/pop"
	"shapesol/internal/rules"
	"shapesol/internal/runner"
	"shapesol/internal/sim"
	"shapesol/internal/tm"
)

func reportSteps(b *testing.B, total int64) {
	b.Helper()
	b.ReportMetric(float64(total)/float64(b.N), "steps/op")
}

// runTableUntilSpanning drives a stabilizing table protocol until the
// structure spans the population or the step budget runs out, reporting
// whether it spanned. A budget is essential: the literal Protocol 2 table
// has rare seed-dependent trajectories that stall before spanning (its
// phase-1 rules race; see EXPERIMENTS.md E5/E6). The run takes the skip
// path; Settle checks the spanning predicate after every effective
// interaction, so the steps are those of the first spanning step.
func runTableUntilSpanning(b *testing.B, table *rules.Table, n int, seed int64) (int64, bool) {
	b.Helper()
	const budget = 20_000_000
	w := sim.New(n, sim.NewTableProtocol(table), sim.Options{Seed: seed})
	res := w.Settle(context.Background(), budget, func(w *sim.World[rules.State]) bool {
		_, size := w.LargestComponent()
		return size == n
	})
	if res.Reason == sim.ReasonNoInteraction {
		b.Fatal(sim.ErrNoInteraction)
	}
	return res.Steps, res.Reason == sim.ReasonPredicate
}

// benchSpanning shares the span-rate reporting across E5/E6.
func benchSpanning(b *testing.B, mk func() *rules.Table, n int) {
	var steps int64
	spanned := 0
	for i := 0; i < b.N; i++ {
		st, ok := runTableUntilSpanning(b, mk(), n, int64(i))
		steps += st
		if ok {
			spanned++
		}
	}
	reportSteps(b, steps)
	b.ReportMetric(float64(spanned)/float64(b.N), "span-rate")
}

// E5 — Section 4.1: spanning line stabilization.
func BenchmarkE5Line(b *testing.B) {
	for _, n := range []int{16, 32, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchSpanning(b, core.LineTable, n) })
	}
}

// E6 — Protocols 1 and 2: spanning squares (Figure 2's phases).
func BenchmarkE6Square(b *testing.B) {
	for _, n := range []int{16, 36, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchSpanning(b, core.SquareTable, n) })
	}
}

func BenchmarkE6Square2(b *testing.B) {
	for _, n := range []int{14, 21, 41} { // k^2+5 for k = 3, 4, 6
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchSpanning(b, core.Square2Table, n) })
	}
}

// BenchmarkExperiments runs every registry row once per iteration through
// job.Run, seeded 0, 1, ... by iteration, and reports each flag's rate
// beside the steps. E14 and E15 keep their own benchmarks below, which
// bench.yml and scripts/bench_urn.sh read.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range experiments.All() {
		if e.ID == "E14" || e.ID == "E15" {
			continue
		}
		b.Run(e.ID, func(b *testing.B) {
			for _, c := range e.Rows {
				b.Run(c.Label, func(b *testing.B) {
					trials := make([]runner.Trial, b.N)
					for i := range trials {
						j := c.Job
						j.Seed = int64(i)
						res, err := job.Run(context.Background(), j)
						if err != nil {
							b.Fatal(err)
						}
						trials[i] = e.Measure(res)
						trials[i].Steps = res.Steps
					}
					agg := runner.Summarize(trials)
					b.ReportMetric(agg.Steps.Mean, "steps/op")
					for flag, rate := range agg.Rates {
						b.ReportMetric(rate.P, flag+"-rate")
					}
				})
			}
		})
	}
}

// E9 — Theorem 4: the fully faithful MicroStep TM variant of the universal
// constructor, which has no job form.
func BenchmarkE9UniversalMicroStepTM(b *testing.B) {
	var steps int64
	for i := 0; i < b.N; i++ {
		m := tm.BottomRowMachine()
		w, err := core.NewUniversalWorld(&core.Universal{D: 4, Machine: m}, int64(i), 800_000_000, nil)
		if err != nil {
			b.Fatal(err)
		}
		out := core.UniversalOutcomeOf(context.Background(), m, 4, w, w.Run())
		if !out.Match {
			b.Fatalf("microstep failed: %v", out)
		}
		steps += out.Steps
	}
	reportSteps(b, steps)
}

// E14 — the urn engine at scale, plus its head-to-head against the exact
// engine. The exact/urn pair runs the identical protocol configuration
// (Counting-Upper-Bound, b=5, n=1000) so the wall-clock ratio of the two
// sub-benchmarks is the ineffective-step-skipping speedup on a
// convergence-tail-heavy run; the urn-only sizes are out of the exact
// engine's reach entirely.
func BenchmarkE14UrnVsExactUpperBound(b *testing.B) {
	const n, headStart = 1000, 5
	b.Run(fmt.Sprintf("exact/n=%d", n), func(b *testing.B) {
		var steps int64
		for i := 0; i < b.N; i++ {
			w := counting.NewUpperBoundWorld(n, headStart, int64(i), 0, nil)
			out := counting.UpperBoundOutcomeOf(headStart, w, w.Run())
			if !out.Success {
				b.Fatalf("exact run failed: %+v", out)
			}
			steps += out.Steps
		}
		reportSteps(b, steps)
	})
	b.Run(fmt.Sprintf("urn/n=%d", n), func(b *testing.B) {
		var steps int64
		for i := 0; i < b.N; i++ {
			w := counting.NewUpperBoundUrnWorld(n, headStart, int64(i), 0, nil)
			out := counting.UpperBoundUrnOutcomeOf(headStart, w, w.Run())
			if !out.Success {
				b.Fatalf("urn run failed: %+v", out)
			}
			steps += out.Steps
		}
		reportSteps(b, steps)
	})
	for _, big := range []int{100_000, 1_000_000} {
		b.Run(fmt.Sprintf("urn/n=%d", big), func(b *testing.B) {
			var steps int64
			for i := 0; i < b.N; i++ {
				w := counting.NewUpperBoundUrnWorld(big, headStart, int64(i), 0, nil)
				out := counting.UpperBoundUrnOutcomeOf(headStart, w, w.Run())
				if !out.Success {
					b.Fatalf("urn run failed: %+v", out)
				}
				steps += out.Steps
			}
			reportSteps(b, steps)
		})
	}
}

// E15 — the urn engine's target regime: one Counting-Upper-Bound run per
// iteration at n = 10^6, 10^7 and 10^8, seeded 0, 1, ... by iteration.
// The n = 10^8 size simulates ~10^17 scheduler steps per trial and is
// skipped under -short (the CI smoke lane); the bench lane runs it via
// scripts/bench_urn.sh, which gates the n = 10^6 row at -benchtime 3x on
// its exact steps/op and its allocs/op (a run's allocations are per-run
// setup; the block loop itself allocates nothing, see the urn package's
// zero-alloc tests).
func BenchmarkE15UrnScaling(b *testing.B) {
	const headStart = 5
	for _, n := range []int{1_000_000, 10_000_000, 100_000_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			if n > 10_000_000 && testing.Short() {
				b.Skip("n=10^8 takes ~a minute per trial; run scripts/bench_urn.sh")
			}
			b.ReportAllocs()
			var steps int64
			for i := 0; i < b.N; i++ {
				w := counting.NewUpperBoundUrnWorld(n, headStart, int64(i), 0, nil)
				out := counting.UpperBoundUrnOutcomeOf(headStart, w, w.Run())
				if !out.Success {
					b.Fatalf("urn run failed: %+v", out)
				}
				steps += out.Steps
			}
			reportSteps(b, steps)
		})
	}
}

// E18 at scale — exact verification on the check engine: exhaustive
// exploration plus verdict of the full Theorem 1 configuration space,
// beyond the registry's n <= 8. The multiset quotient makes the space
// O(n^2), so the reported configs/op doubles as a scaling check; no
// randomness is consumed, every iteration does identical work.
func BenchmarkE18CheckExhaustive(b *testing.B) {
	const headStart = 5
	for _, n := range []int{64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var configs int64
			for i := 0; i < b.N; i++ {
				w := counting.NewUpperBoundCheckExplorer(n, headStart, 0, nil)
				w.Run()
				out := counting.UpperBoundCheckOutcomeOf(headStart, w)
				if !out.Complete || !out.Halts {
					b.Fatalf("check run did not verify halting: %+v", out.Verdict)
				}
				configs += out.Configs
			}
			b.ReportMetric(float64(configs)/float64(b.N), "configs/op")
		})
	}
}

// Engine micro-benchmarks: raw scheduler throughput. Both engines report
// allocs/op so the allocation-free steady state stays visible in every
// benchmark run. BenchmarkEngineStep times sim's Step, one per-step pick:
// the draw of a world with a scheduler/fault profile. A world without one
// runs RunContext's skip path, which BenchmarkE5Line times.
func BenchmarkEngineStep(b *testing.B) {
	for _, n := range []int{100, 1000} {
		b.Run(fmt.Sprintf("free-n=%d", n), func(b *testing.B) {
			w := sim.New(n, inert{}, sim.Options{Seed: 1})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := w.Step(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPopEngineStep is the pop-engine counterpart: uniform pair
// selection plus an always-effective value-state protocol. Steady state
// must report 0 allocs/op.
func BenchmarkPopEngineStep(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			w := pop.New(n, popInert{}, pop.Options{Seed: 1})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Step()
			}
		})
	}
}

// inert is a do-nothing sim protocol for engine throughput measurement.
type inert struct{}

func (inert) InitialState(id, n int) int { return 0 }
func (inert) Interact(a, b int, pa, pb grid.Dir, bonded bool) (int, int, bool, bool) {
	return a, b, bonded, false
}
func (inert) Halted(int) bool { return false }

// popInert is the pop-engine equivalent: int states, effective swaps.
type popInert struct{}

func (popInert) InitialState(id, n int) int { return id }
func (popInert) Apply(a, b int) (int, int, bool) {
	return b, a, true
}
func (popInert) Halted(int) bool { return false }
