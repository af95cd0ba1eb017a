// Command perfbench is the repository's benchmark. It runs one of four
// seeded workloads and prints, as the last line of standard output, one
// JSON object with the operations attempted and failed and the metrics:
//
//	counting-batch    Section 5 counting (urn, pop, check) through runner.Map
//	shapes-batch      the Section 4/6/7 constructions on the sim engine
//	serve-standalone  one durable shapesold under two closed-loop clients
//	serve-cluster     the same request stream through a coordinator and two workers
//
// Batches run every job r times, interleaved round-robin, and report the
// Chen & Revels minimum estimator; serving workloads time each request
// from the POST to the result frame of its /events stream. With -trace 1
// the run measures once untraced and once traced, and reports per-layer
// metrics from spans recorded around every call the benchmark makes into
// a layer, plus daemon-side phases from /v1/jobs/{id}/trace and /metrics.
//
// Run it through run.sh, which builds this program and cmd/shapesold.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the final line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the untraced metrics every workload reports, in print
// order, with their units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"best_jobs_per_s", "1/s"},
	{"jobs_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"hit_latency_p50_ms", "ms"},
	{"cpu_ms_per_job", "ms"},
	{"peak_rss_mb", "MB"},
}

// config is what every workload receives from the command line.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	bin      string // directory holding the shapesold binary
	work     string // scratch directory of this run
}

// outcome is one measured phase of a workload.
type outcome struct {
	attempted, failed int
	problems          []string           // output-check violations, already counted in failed
	e2e               map[string]float64 // end-to-end metrics
	layers            map[string]float64 // per-layer metrics (traced phase only)
	spans             []span             // traced phase only
	notes             []string           // extra report lines (sample counts, p99, ...)
	host              hostIndicator
}

type workloadFunc func(cfg config, traced bool) (*outcome, error)

var workloads = map[string]workloadFunc{
	"counting-batch":   runCountingBatch,
	"shapes-batch":     runShapesBatch,
	"serve-standalone": runServeStandalone,
	"serve-cluster":    runServeCluster,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name: counting-batch, shapes-batch, serve-standalone or serve-cluster")
		seed    = flag.Int64("seed", 1, "workload seed; every job list and request stream derives from it")
		seconds = flag.Int("seconds", 20, "length of the timed phase in seconds")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer run after an untraced one")
		bin     = flag.String("bin", ".bench_build", "directory holding the built shapesold binary")
		work    = flag.String("work", ".bench_build/run", "scratch directory for daemon data and trace output")
	)
	flag.Parse()
	fn, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload (counting-batch|shapes-batch|serve-standalone|serve-cluster), -seconds >= 1, -trace 0|1")
		os.Exit(2)
	}
	cfg := config{workload: *name, seed: *seed, seconds: time.Duration(*seconds) * time.Second, bin: *bin}
	cfg.work = filepath.Join(*work, fmt.Sprintf("%s-seed%d-%d", *name, *seed, os.Getpid()))
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fatal(err)
	}
	rep, err := run(cfg, fn, *trace == 1)
	// Daemon data directories are scratch; traces are kept beside them
	// one level up.
	os.RemoveAll(cfg.work)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// run measures the workload untraced and, when traced, a second time with
// spans on; it prints the human-readable report and returns the result.
func run(cfg config, fn workloadFunc, traced bool) (*report, error) {
	base, err := fn(cfg, false)
	if err != nil {
		return nil, err
	}
	printOutcome(cfg, "untraced", base)
	rep := &report{Attempted: base.attempted, Failed: base.failed, Metrics: map[string]metric{}}
	if !traced {
		for _, m := range endToEnd {
			rep.Metrics[m.name] = metric{Value: finite(base.e2e[m.name]), Unit: m.unit}
		}
		rep.Correct = base.failed == 0 && base.attempted > 0
		return rep, nil
	}

	tr, err := fn(cfg, true)
	if err != nil {
		return nil, err
	}
	printOutcome(cfg, "traced", tr)
	tr.layers["host.slowdown"] = tr.host.slowdown
	tr.layers["host.steal_ticks"] = float64(tr.host.stealTicks)
	printLayers(tr.layers)
	fmt.Println("tracing overhead (traced - untraced):")
	for _, m := range endToEnd {
		d := tr.e2e[m.name] - base.e2e[m.name]
		fmt.Printf("  %-20s %+12.4f %-4s (%+.1f%%)\n", m.name, d, m.unit, 100*d/nonZero(base.e2e[m.name]))
	}
	shares, sharesOK := layerShares(cfg.workload, tr.spans)
	if err := writeTrace(cfg, tr.spans, shares); err != nil {
		return nil, err
	}
	rep.Attempted += tr.attempted
	rep.Failed += tr.failed
	for _, m := range perLayer {
		rep.Metrics[m.name] = metric{Value: finite(tr.layers[m.name]), Unit: m.unit}
	}
	rep.Correct = rep.Failed == 0 && rep.Attempted > 0 && sharesOK
	return rep, nil
}

// printOutcome prints one phase's metrics, checks and host indicator.
func printOutcome(cfg config, phase string, o *outcome) {
	fmt.Printf("== %s seed=%d %s: attempted=%d failed=%d\n", cfg.workload, cfg.seed, phase, o.attempted, o.failed)
	for _, p := range o.problems {
		fmt.Println("  FAILED CHECK:", p)
	}
	for _, m := range endToEnd {
		fmt.Printf("  %-20s %14.4f %s\n", m.name, o.e2e[m.name], m.unit)
	}
	for _, n := range o.notes {
		fmt.Println("  " + n)
	}
	fmt.Printf("  host.slowdown %.3f (median over distinct jobs of median/best repeat), steal %+d ticks\n",
		o.host.slowdown, o.host.stealTicks)
}

func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

func nonZero(v float64) float64 {
	if v == 0 {
		return 1
	}
	return v
}

// ---------------------------------------------------------------------
// Host and process readings.

// hostIndicator tells a noisy host from a regression: slowdown is the
// median over distinct jobs of (median repeat / best repeat), and
// stealTicks the CPU steal the kernel reported during the timed phase.
type hostIndicator struct {
	slowdown   float64
	stealTicks int64
}

// stealTicks reads the aggregate steal counter of /proc/stat (USER_HZ ticks).
func stealTicks() int64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseInt(f[8], 10, 64)
	return v
}

// slowdown computes the interference indicator from per-key timings.
func slowdown(byKey [][]float64) float64 {
	var ratios []float64
	for _, ts := range byKey {
		if len(ts) < 2 {
			continue
		}
		if best := minOf(ts); best > 0 {
			ratios = append(ratios, quantile(ts, 0.5)/best)
		}
	}
	return quantile(ratios, 0.5)
}

// procCPU returns a process's user+system CPU time from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields resume after its ')'.
	s := string(data)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return time.Duration(utime+stime) * (time.Second / 100), nil
}

// peakRSS returns a process's VmHWM in MB (pid 0 is this process).
func peakRSS(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}

// ---------------------------------------------------------------------
// Order statistics.

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		m = math.Min(m, x)
	}
	return m
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
