package sim_test

import (
	"context"
	"fmt"
	"testing"

	"shapesol/internal/core"
	"shapesol/internal/grid"
	"shapesol/internal/shapes"
	"shapesol/internal/sim"
	"shapesol/internal/stats"
)

// This file proves RunContext's skip against the per-step draw it
// replaces, on the paper's constructions: exactly, by recounting the
// skip's bookkeeping from scratch after every effective interaction, and
// in law, by comparing seeded samples of the skipping engine with samples
// of a Step loop (sim.Stepwise).

// exactCheck runs w with Validate after every effective interaction, then
// settles it for settle steps under the same check.
func exactCheck[S comparable](t *testing.T, w *sim.World[S], settle int64) {
	t.Helper()
	var failed error
	sim.ValidateEachEffective(w, func(err error) { failed = err })
	res := w.Run()
	if failed != nil {
		t.Fatalf("step %d: %v", w.Steps(), failed)
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	w.Settle(context.Background(), settle, func(w *sim.World[S]) bool {
		if err := w.Validate(); err != nil {
			t.Fatalf("settling, step %d: %v", w.Steps(), err)
		}
		return false
	})
	if res.Effective == 0 || sim.Skipped(w) == 0 {
		t.Fatalf("%+v with %d skipped steps exercises nothing", res, sim.Skipped(w))
	}
}

// TestSkipExactOnConstructions is the exact check on every sim
// construction at its golden size, over three seeds each.
func TestSkipExactOnConstructions(t *testing.T) {
	star, err := shapes.ByName("star")
	if err != nil {
		t.Fatal(err)
	}
	bar := grid.ShapeOf(grid.Pos{}, grid.Pos{X: 1})
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			line, err := core.NewStabilizeWorld("line", 8, seed, 1<<30, nil)
			if err != nil {
				t.Fatal(err)
			}
			exactCheck(t, line, 2_000)
			exactCheck(t, core.NewCountLineWorld(8, 3, seed, 1<<30, nil), 2_000)
			exactCheck(t, core.NewSquareKnowingNWorld(9, 3, seed, 1<<30, nil), 9*2000)
			uni, err := core.NewUniversalWorld(&core.Universal{D: 4, Lang: star}, seed, 1<<30, nil)
			if err != nil {
				t.Fatal(err)
			}
			exactCheck(t, uni, 2_000)
			par, err := core.NewParallel3DWorld(star, 3, 3, seed, 1<<30, nil)
			if err != nil {
				t.Fatal(err)
			}
			exactCheck(t, par, 2_000)
			rep, err := core.NewReplicationWorld(bar, 2*bar.EnclosingRect().Size()-bar.Size(), seed, 1<<30, nil)
			if err != nil {
				t.Fatal(err)
			}
			exactCheck(t, rep, 20_000)
		})
	}
}

// lawRuns is how many seeded runs each engine contributes to a law check.
const lawRuns = 2000

// lawAlpha is the KS test's level; lawZ bounds the z statistic of every
// outcome flag's rate difference. The runs are seeded, so the check is
// deterministic: a pass is a pass on every machine.
const (
	lawAlpha = 0.001
	lawZ     = 4.0
)

// sample is one run's step count, effective interactions and outcome
// flags.
type sample struct {
	steps, effective int64
	flags            []bool
}

// compareLaws runs one construction lawRuns times on each engine and
// checks that the skip and the per-step loop agree on steps, on effective
// interactions and on every flag.
func compareLaws(t *testing.T, name string, run func(seed int64, stepwise bool) sample) {
	t.Helper()
	var steps, eff [2][]float64
	var flags [2][]int
	for e, stepwise := range []bool{true, false} {
		for i := 0; i < lawRuns; i++ {
			// Distinct seeds per engine: the samples are independent.
			s := run(int64(i)+int64(e)*1_000_000, stepwise)
			steps[e] = append(steps[e], float64(s.steps))
			eff[e] = append(eff[e], float64(s.effective))
			if flags[e] == nil {
				flags[e] = make([]int, len(s.flags))
			}
			for k, f := range s.flags {
				if f {
					flags[e][k]++
				}
			}
		}
	}
	for _, c := range []struct {
		what string
		x, y []float64
	}{{"steps", steps[0], steps[1]}, {"effective", eff[0], eff[1]}} {
		d, p := stats.KS(c.x, c.y)
		t.Logf("%s %s: KS D=%.4f p=%.3g (means %.1f per-step, %.1f skip)", name, c.what, d, p,
			stats.Summarize(c.x).Mean, stats.Summarize(c.y).Mean)
		if p < lawAlpha {
			t.Errorf("%s: %s laws differ: KS D=%.4f p=%.3g", name, c.what, d, p)
		}
	}
	for k := range flags[0] {
		if z := stats.TwoProportionZ(flags[0][k], lawRuns, flags[1][k], lawRuns); z > lawZ || z < -lawZ {
			t.Errorf("%s: flag %d rates %d vs %d of %d, z=%.2f", name, k, flags[0][k], flags[1][k], lawRuns, z)
		}
	}
}

// TestSkipLawMatchesStep is the statistical check at small sizes: the
// spanning line at n = 8 and 16, Square-Knowing-n at d = 2 with its
// settling phase, Counting-on-a-Line at n = 4 and 5, and the replication
// of a 2-cell bar with its settling phase. The sizes keep the per-step
// reference affordable under the race detector with atomic coverage,
// where the subtests also run one at a time: parallel runs would contend
// on the shared coverage counters. BenchmarkSkipLawAtWorkloadSize covers
// the workload sizes.
func TestSkipLawMatchesStep(t *testing.T) {
	ctx := context.Background()
	for _, n := range []int{8, 16} {
		t.Run(fmt.Sprint("line", n), func(t *testing.T) {
			compareLaws(t, fmt.Sprint("line n=", n), func(seed int64, stepwise bool) sample {
				w, err := core.NewStabilizeWorld("line", n, seed, 1<<30, nil)
				if err != nil {
					t.Fatal(err)
				}
				if stepwise {
					sim.Stepwise(w)
				}
				res := w.Run()
				out := core.StabilizeOutcomeOf("line", w, res)
				return sample{res.Steps, res.Effective, []bool{out.Spanning}}
			})
		})
	}
	t.Run("square-knowing-n2", func(t *testing.T) {
		compareLaws(t, "square-knowing-n d=2", func(seed int64, stepwise bool) sample {
			w := core.NewSquareKnowingNWorld(4, 2, seed, 1<<30, nil)
			if stepwise {
				sim.Stepwise(w)
			}
			res := w.Run()
			out := core.SquareKnowingNOutcomeOf(ctx, 2, w, res)
			return sample{res.Steps, w.Effective(), []bool{out.Halted, out.Square, out.Spanned == 4}}
		})
	})
	for _, n := range []int{4, 5} {
		t.Run(fmt.Sprint("count-line", n), func(t *testing.T) {
			compareLaws(t, fmt.Sprint("count-line n=", n), func(seed int64, stepwise bool) sample {
				w := core.NewCountLineWorld(n, 3, seed, 1<<30, nil)
				if stepwise {
					sim.Stepwise(w)
				}
				res := w.Run()
				out := core.CountLineOutcomeOf(3, w, res)
				return sample{res.Steps, res.Effective, []bool{out.Halted, out.Success, out.DebtRepaid}}
			})
		})
	}
	t.Run("replication", func(t *testing.T) {
		bar := grid.ShapeOf(grid.Pos{}, grid.Pos{X: 1})
		compareLaws(t, "replication of a 2-cell bar", func(seed int64, stepwise bool) sample {
			w, err := core.NewReplicationWorld(bar, 2*bar.EnclosingRect().Size()-bar.Size(), seed, 1<<30, nil)
			if err != nil {
				t.Fatal(err)
			}
			if stepwise {
				sim.Stepwise(w)
			}
			res := w.Run()
			out := core.ReplicationOutcomeOf(ctx, bar, w, res)
			return sample{res.Steps, w.Effective(), []bool{out.Done, out.Exact, out.Copies == 2}}
		})
	})
}

// workloadKinds are the job kinds of perfbench's shapes-batch workload at
// their workload sizes. Each returns the main run's step count and
// effective interactions, drawn per step or with the skip.
func workloadKinds(b *testing.B) []struct {
	name string
	run  func(seed int64, stepwise bool) (steps, effective int64)
} {
	star, err := shapes.ByName("star")
	if err != nil {
		b.Fatal(err)
	}
	lshape := grid.ShapeOf(grid.Pos{X: 0, Y: 0}, grid.Pos{X: 1, Y: 0}, grid.Pos{X: 1, Y: 1})
	must := func(err error) {
		if err != nil {
			b.Fatal(err)
		}
	}
	run := func(w interface {
		Run() sim.Result
	}) (int64, int64) {
		res := w.Run()
		return res.Steps, res.Effective
	}
	type kind = struct {
		name string
		run  func(seed int64, stepwise bool) (steps, effective int64)
	}
	stabilize := func(table string, n int) kind {
		return kind{fmt.Sprintf("stabilize %s n=%d", table, n), func(seed int64, stepwise bool) (int64, int64) {
			w, err := core.NewStabilizeWorld(table, n, seed, 100_000_000, nil)
			must(err)
			if stepwise {
				sim.Stepwise(w)
			}
			return run(w)
		}}
	}
	return []kind{
		stabilize("line", 128),
		stabilize("square", 36),
		{"count-line n=13", func(seed int64, stepwise bool) (int64, int64) {
			w := core.NewCountLineWorld(13, 3, seed, 100_000_000, nil)
			if stepwise {
				sim.Stepwise(w)
			}
			return run(w)
		}},
		{"square-knowing-n d=5", func(seed int64, stepwise bool) (int64, int64) {
			w := core.NewSquareKnowingNWorld(25, 5, seed, 300_000_000, nil)
			if stepwise {
				sim.Stepwise(w)
			}
			return run(w)
		}},
		{"universal d=6 star", func(seed int64, stepwise bool) (int64, int64) {
			w, err := core.NewUniversalWorld(&core.Universal{D: 6, Lang: star}, seed, 500_000_000, nil)
			must(err)
			if stepwise {
				sim.Stepwise(w)
			}
			return run(w)
		}},
		{"parallel-3d d=4 k=3", func(seed int64, stepwise bool) (int64, int64) {
			w, err := core.NewParallel3DWorld(star, 4, 3, seed, 300_000_000, nil)
			must(err)
			if stepwise {
				sim.Stepwise(w)
			}
			return run(w)
		}},
		{"replication L", func(seed int64, stepwise bool) (int64, int64) {
			w, err := core.NewReplicationWorld(lshape, 2*lshape.EnclosingRect().Size()-lshape.Size(), seed, 500_000_000, nil)
			must(err)
			if stepwise {
				sim.Stepwise(w)
			}
			return run(w)
		}},
	}
}

// BenchmarkSkipLawAtWorkloadSize is the law check at workload size: every
// shapes-batch job kind runs over 1000 seeds per engine, per step and with
// the skip, and each kind must pass a two-sample KS test on steps and on
// effective interactions at a Bonferroni-corrected family level of 0.001.
// It fails on a rejection. Under -short it runs 20 seeds per engine, a
// smoke run with little power. Two workers share the seeds.
func BenchmarkSkipLawAtWorkloadSize(b *testing.B) {
	seeds := 1000
	if testing.Short() {
		seeds = 20
	}
	kinds := workloadKinds(b)
	alpha := 0.001 / float64(2*len(kinds))
	minP := 1.0
	for i := 0; i < b.N; i++ {
		for _, k := range kinds {
			var steps, eff [2][]float64
			for e, stepwise := range []bool{true, false} {
				steps[e] = make([]float64, seeds)
				eff[e] = make([]float64, seeds)
				next := make(chan int)
				done := make(chan struct{})
				for range 2 {
					go func() {
						for s := range next {
							st, ef := k.run(int64(s)+int64(e)*1_000_000, stepwise)
							steps[e][s], eff[e][s] = float64(st), float64(ef)
						}
						done <- struct{}{}
					}()
				}
				for s := 0; s < seeds; s++ {
					next <- s
				}
				close(next)
				<-done
				<-done
			}
			for _, c := range []struct {
				what string
				x, y []float64
			}{{"steps", steps[0], steps[1]}, {"effective", eff[0], eff[1]}} {
				d, p := stats.KS(c.x, c.y)
				minP = min(minP, p)
				b.Logf("%s %s over %d seeds per engine: KS D=%.4f p=%.3g (means %.0f per-step, %.0f skip)",
					k.name, c.what, seeds, d, p, stats.Summarize(c.x).Mean, stats.Summarize(c.y).Mean)
				if p < alpha {
					b.Errorf("%s: %s laws differ: KS D=%.4f p=%.3g < %.3g", k.name, c.what, d, p, alpha)
				}
			}
		}
	}
	b.ReportMetric(minP, "min-p")
}
