// Command experiments regenerates the paper's measurement tables: every
// theorem's quantitative claim and the figures' configurations.
//
// Every experiment is declared once in internal/experiments, as a set of
// Jobs against the protocol registry of internal/job (see EXPERIMENTS.md
// for the experiment-to-spec map). Trials fan out across a worker pool;
// one world per seed per worker, results folded in seed order, so the
// output — including the -json form — is byte-identical for any worker
// count.
//
// Usage:
//
//	experiments                  # run every experiment, serial, text tables
//	experiments -parallel        # fan trials across all CPU cores
//	experiments -workers 4       # exact worker count
//	experiments -exp E1          # run one experiment
//	experiments -trials 50       # more statistical trials
//	experiments -seed 100        # shift the seed set
//	experiments -json            # machine-readable report
//	experiments -figures         # ASCII renders of the paper's figures
//	experiments -exp E15 -cpuprofile cpu.out -memprofile mem.out
//	                             # pprof profiles of the run
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"
	"strings"

	"shapesol/internal/buildinfo"
	"shapesol/internal/experiments"
	"shapesol/internal/grid"
	"shapesol/internal/job"
	"shapesol/internal/profiling"
	"shapesol/internal/shapes"
	"shapesol/internal/viz"
)

func main() {
	os.Exit(run())
}

func run() int {
	all := experiments.All()
	ids := make([]string, len(all))
	for i, e := range all {
		ids[i] = e.ID
	}
	var engines []string
	for _, e := range job.Engines() {
		engines = append(engines, string(e))
	}
	var (
		exp = flag.String("exp", "",
			fmt.Sprintf("experiment id (one of %s); empty runs all", strings.Join(ids, " ")))
		engine = flag.String("engine", "",
			"run only the experiments executing on this engine (one of "+strings.Join(engines, ", ")+"); empty runs all")
		trials     = flag.Int("trials", 20, "trials per configuration")
		parallel   = flag.Bool("parallel", false, "fan trials across all CPU cores")
		workers    = flag.Int("workers", 0, "exact worker count (overrides -parallel)")
		seed       = flag.Int64("seed", 0, "first seed of each configuration's seed set")
		asJSON     = flag.Bool("json", false, "emit the reports as JSON")
		figures    = flag.Bool("figures", false, "render figure configurations instead")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		debugAddr  = flag.String("debug-addr", "", "opt-in net/http/pprof listener (e.g. 127.0.0.1:6060); empty disables")
		version    = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println("experiments", buildinfo.Version())
		return 0
	}

	if *debugAddr != "" {
		bound, closeDebug, err := profiling.DebugServer(*debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments: debug server:", err)
			return 1
		}
		defer closeDebug() //nolint:errcheck // process is exiting
		fmt.Fprintln(os.Stderr, "experiments: pprof debug server on "+bound)
	}
	stopProfiles, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		return 1
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
		}
	}()

	if *figures {
		renderFigures()
		return 0
	}

	poolSize := 1
	switch {
	case *workers > 0:
		poolSize = *workers
	case *parallel:
		poolSize = 0 // runner.Workers: all cores
	}

	selected := all
	if *exp != "" {
		e, ok := experiments.Lookup(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q (have %s)\n",
				*exp, strings.Join(ids, ", "))
			return 2
		}
		selected = []experiments.Experiment{e}
	}
	if *engine != "" {
		if !slices.Contains(engines, *engine) {
			fmt.Fprintf(os.Stderr, "experiments: unknown engine %q (registry engines: %s)\n",
				*engine, strings.Join(engines, ", "))
			return 2
		}
		var kept []experiments.Experiment
		for _, e := range selected {
			j, _, err := job.Normalize(e.Rows[0].Job)
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				return 1
			}
			if j.Engine == job.Engine(*engine) {
				kept = append(kept, e)
			}
		}
		if len(kept) == 0 {
			fmt.Fprintf(os.Stderr, "experiments: no selected experiment runs on engine %q\n", *engine)
			return 2
		}
		selected = kept
	}

	reports := make([]experiments.Report, 0, len(selected))
	for _, e := range selected {
		r, err := e.Run(context.Background(), poolSize, *trials, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 1
		}
		reports = append(reports, r)
	}

	if *asJSON {
		out, err := json.MarshalIndent(reports, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 1
		}
		fmt.Println(string(out))
		return 0
	}
	for i, r := range reports {
		if i > 0 {
			fmt.Println()
		}
		printReport(r)
	}
	return 0
}

// printReport renders one report as a plain-text table.
func printReport(r experiments.Report) {
	fmt.Printf("%s — %s\n", r.ID, r.Title)
	for _, row := range r.Rows {
		fmt.Printf("  %-18s steps mean=%-12.0f", row.Label, row.Agg.Steps.Mean)
		for _, k := range slices.Sorted(maps.Keys(row.Agg.Rates)) {
			fmt.Printf("  %s %s", k, row.Agg.Rates[k])
		}
		for _, k := range slices.Sorted(maps.Keys(row.Agg.Means)) {
			fmt.Printf("  %s=%.3f", k, row.Agg.Means[k])
		}
		fmt.Println()
	}
	for _, k := range slices.Sorted(maps.Keys(r.Derived)) {
		fmt.Printf("  %s = %.2f\n", k, r.Derived[k])
	}
	if r.Note != "" {
		fmt.Printf("  paper: %s\n", r.Note)
	}
}

func renderFigures() {
	fmt.Println("F7 — Figure 7: the star shape computed on the square (d=7):")
	fmt.Println(shapes.Render(shapes.Star(), 7))
	fmt.Println("F7(d) — after release only the on-pixels remain bonded:")
	fmt.Println(viz.RenderShape(shapes.Render(shapes.Star(), 7).Shape()))
	fmt.Println("Pattern (Remark 4) — rings, 3 colors, d=8:")
	p := shapes.RenderPattern(shapes.Rings(3), 8)
	for y := 7; y >= 0; y-- {
		for x := 0; x < 8; x++ {
			fmt.Printf("%d", p.At(grid.ZigZagIndex(grid.Pos{X: x, Y: y}, 8)))
		}
		fmt.Println()
	}
}
