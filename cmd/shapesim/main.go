// Command shapesim runs a single protocol of the paper at a chosen
// population size and renders the outcome. It is a thin front end over
// the unified job API: -protocol names a registry spec, -engine and
// -budget override the spec's defaults, and -json dumps the full Result
// envelope. A bare shapesim runs the stabilizing line table on 16 nodes.
//
// Usage:
//
//	shapesim -protocol stabilize -table line|square|square2 -n 16 [-seed 1]
//	shapesim -protocol counting-upper-bound -n 100 [-b 5] [-engine urn]
//	shapesim -protocol count-line -n 100 [-b 3]
//	shapesim -protocol square-knowing-n -d 4
//	shapesim -protocol universal -lang star -d 7
//	shapesim -protocol parallel-3d -lang star -d 3 [-k 3]
//	shapesim -protocol replication -shape "0,0;1,0;2,0;0,1" [-free 8]
//	shapesim -protocol <any> ... -json                  # raw Result envelope
//	shapesim -protocol counting-upper-bound -engine urn -n 10000000 -cpuprofile cpu.out
//	                                                    # pprof the hot loop
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"shapesol"
	"shapesol/internal/buildinfo"
	"shapesol/internal/core"
	"shapesol/internal/counting"
	"shapesol/internal/grid"
	"shapesol/internal/job"
	"shapesol/internal/profiling"
)

func main() {
	os.Exit(run())
}

// engineList renders the registry-derived engine union for flag help, so
// new engines appear here without a parallel edit.
func engineList() string {
	engines := job.Engines()
	parts := make([]string, len(engines))
	for i, e := range engines {
		parts[i] = string(e)
	}
	return strings.Join(parts, ", ")
}

func run() int {
	var (
		protocol = flag.String("protocol", "stabilize",
			fmt.Sprintf("protocol spec (one of %s)", strings.Join(job.Names(), ", ")))
		engine     = flag.String("engine", "", "engine override: "+engineList()+" (default: the spec's)")
		budget     = flag.Int64("budget", 0, "step budget override (default: the spec's)")
		n          = flag.Int("n", 16, "population size")
		b          = flag.Int("b", 0, "head start for the counting protocols (default: the spec's)")
		d          = flag.Int("d", 4, "side length for square-knowing-n/universal/parallel-3d")
		k          = flag.Int("k", 0, "memory column height for parallel-3d (default: the spec's)")
		lang       = flag.String("lang", "", "shape language for universal/parallel-3d (default: the spec's)")
		table      = flag.String("table", "line", "rule table for stabilize: line, square or square2")
		shape      = flag.String("shape", "", `replication target as "x,y;x,y;..." cells`)
		free       = flag.Int("free", 0, "free nodes for replication (default: the paper's 2|R_G|-|G|)")
		seed       = flag.Int64("seed", 1, "scheduler seed")
		asJSON     = flag.Bool("json", false, "print the raw Result envelope as JSON")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		debugAddr  = flag.String("debug-addr", "", "opt-in net/http/pprof listener (e.g. 127.0.0.1:6060); empty disables")
		version    = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println("shapesim", buildinfo.Version())
		return 0
	}

	if *debugAddr != "" {
		bound, closeDebug, err := profiling.DebugServer(*debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "shapesim: debug server:", err)
			return 1
		}
		defer closeDebug() //nolint:errcheck // process is exiting
		fmt.Fprintln(os.Stderr, "shapesim: pprof debug server on "+bound)
	}
	stopProfiles, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "shapesim:", err)
		return 1
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(os.Stderr, "shapesim:", err)
		}
	}()

	setFlags := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { setFlags[f.Name] = true })

	j := job.Job{
		Protocol: *protocol,
		Seed:     *seed,
		Engine:   job.Engine(*engine),
		MaxSteps: *budget,
	}
	spec, ok := job.Get(j.Protocol)
	if !ok {
		fmt.Fprintf(os.Stderr, "shapesim: unknown protocol %q (have %s)\n",
			*protocol, strings.Join(job.Names(), ", "))
		return 2
	}
	// Forward a parameter flag when the user set it explicitly (so the
	// registry rejects parameters the spec does not take), and otherwise
	// only when the spec requires it (so optional parameters fall through
	// to their spec defaults instead of being shadowed by flag defaults —
	// e.g. square-knowing-n's n defaults to d*d, not to -n's 16).
	required := map[string]bool{}
	for _, f := range spec.Params {
		if f.Required {
			required[f.Name] = true
		}
	}
	forward := func(name string) bool { return setFlags[name] || required[name] }
	if forward("n") {
		j.Params.N = *n
	}
	if forward("b") {
		j.Params.B = *b
	}
	if forward("d") {
		j.Params.D = *d
	}
	if forward("k") {
		j.Params.K = *k
	}
	if forward("lang") {
		j.Params.Lang = *lang
	}
	if forward("table") {
		j.Params.Table = *table
	}
	if forward("free") {
		j.Params.Free = *free
	}
	if forward("shape") {
		g, err := parseShape(*shape)
		if err != nil {
			fmt.Fprintln(os.Stderr, "shapesim:", err)
			return 2
		}
		j.Params.Shape = g
	}

	res, err := job.Run(context.Background(), j)
	if err != nil {
		fmt.Fprintln(os.Stderr, "shapesim:", err)
		return 1
	}

	if *asJSON {
		out, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "shapesim:", err)
			return 1
		}
		fmt.Println(string(out))
		return 0
	}
	printResult(res)
	return 0
}

// parseShape decodes a "x,y;x,y;..." cell list into a shape.
func parseShape(s string) (*grid.Shape, error) {
	if s == "" {
		return nil, errors.New("-shape: empty cell list")
	}
	var cells []grid.Pos
	for _, cell := range strings.Split(s, ";") {
		var x, y int
		if _, err := fmt.Sscanf(cell, "%d,%d", &x, &y); err != nil {
			return nil, fmt.Errorf("-shape: bad cell %q (want x,y)", cell)
		}
		cells = append(cells, grid.Pos{X: x, Y: y})
	}
	return grid.ShapeOf(cells...), nil
}

// printResult renders the envelope plus a payload-specific summary.
func printResult(res job.Result) {
	fmt.Printf("%s [%s engine] seed=%d: %s after %d steps (%.2fs)\n",
		res.Protocol, res.Engine, res.Seed, res.Reason, res.Steps, res.WallTime.Seconds())
	switch out := res.Payload.(type) {
	case core.StabilizeOutcome:
		fmt.Printf("%s on %d nodes: spanning=%v (largest component %d)\n%s",
			out.Table, out.N, out.Spanning, out.Spanned, shapesol.Render(out.Shape))
	case counting.UpperBoundOutcome:
		fmt.Printf("r0=%d (r0/n=%.3f, success=%v)\n", out.R0, out.Estimate, out.Success)
	case counting.UpperBoundCheckOutcome:
		fmt.Printf("configs=%d halts=%v all-correct=%v depth-bounded=%v max-depth=%d\n",
			out.Configs, out.Complete && out.Halts, out.AllCorrect, out.DepthBounded, out.MaxDepth)
		if out.Witness != nil {
			fmt.Printf("witness: %s\n", out.Witness.Kind)
		}
	case counting.SimpleUIDOutcome:
		fmt.Printf("output=%d exact=%v\n", out.Output, out.Exact)
	case counting.UIDOutcome:
		fmt.Printf("output=%d winner-is-max=%v success=%v\n", out.Output, out.WinnerIsMax, out.Success)
	case counting.LeaderlessOutcome:
		fmt.Printf("early-termination=%v\n", out.EarlyTermination)
	case core.CountLineOutcome:
		fmt.Printf("halted=%v r0=%d line-length=%d debt-repaid=%v\n",
			out.Halted, out.R0, out.LineLength, out.DebtRepaid)
	case core.SquareKnowingNOutcome:
		fmt.Printf("halted=%v square=%v spans=%d\n", out.Halted, out.Square, out.Spanned)
	case core.UniversalOutcome:
		fmt.Printf("%v\n", out)
	case core.Parallel3DOutcome:
		fmt.Printf("decided=%v correct=%v\n", out.Decided, out.Correct)
	case core.ReplicationOutcome:
		fmt.Printf("done=%v copies=%d exact=%v\n", out.Done, out.Copies, out.Exact)
	default:
		fmt.Printf("%+v\n", res.Payload)
	}
}
