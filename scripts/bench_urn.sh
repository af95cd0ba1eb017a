#!/usr/bin/env bash
# Measures the urn engine's scaling curve (BenchmarkE15UrnScaling, one
# Counting-Upper-Bound run per iteration at n = 10^6, 10^7, 10^8) and
# writes two artifacts at the repo root: the raw `go test -bench` text
# (benchstat input) and a JSON summary, BENCH_urn_scaling.json by default.
#
# The regression gate is on absolute counts, which do not depend on the
# machine. The n = 10^6 row runs at -benchtime 3x (seeds 0-2) and must
# report exactly gate_steps simulated scheduler steps per op — the value
# first recorded for that configuration, so the gate fails as soon as the
# urn's random stream moves — and at most gate_max_allocs allocs/op (a
# run's allocations are its set-up; the block loop allocates nothing).
# Wall-clock regressions on this path are caught by the repo benchmark's
# counting-batch workload (perfbench), whose busy time is mostly urn runs.
# The script exits nonzero when the gate fails (after writing both
# artifacts).
#
# Usage: scripts/bench_urn.sh [out.json]
#   SKIP_LARGE=1   skip the n=10^8 scaling row (runs -short)
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_urn_scaling.json}"
txt="${out%.json}.txt"

gate_steps=8714892887703
gate_max_allocs=68

short=()
if [ "${SKIP_LARGE:-0}" = "1" ]; then
  short=(-short)
fi

go test -run '^$' -bench 'BenchmarkE15UrnScaling/^n=1000000$' -benchtime 3x . | tee "$txt"
go test -run '^$' -bench 'BenchmarkE15UrnScaling/^n=(10000000|100000000)$' -benchtime 1x "${short[@]}" . | tee -a "$txt"

awk -v gsteps="$gate_steps" -v gallocs="$gate_max_allocs" '
  /^Benchmark/ && /ns\/op/ {
    name = $1; iters = $2
    ns = ""; allocs = ""; steps = ""
    for (i = 3; i < NF; i += 2) {
      if ($(i + 1) == "ns/op") ns = $i
      else if ($(i + 1) == "allocs/op") allocs = $i
      else if ($(i + 1) == "steps/op") steps = $i
    }
    sub(/-[0-9]+$/, "", name)
    n++
    names[n] = name; it[n] = iters; nsv[n] = ns; al[n] = allocs; st[n] = steps
    if (name == "BenchmarkE15UrnScaling/n=1000000") { gs = steps; ga = allocs }
  }
  END {
    ok = (gs == gsteps && ga != "" && ga + 0 <= gallocs + 0)
    printf "{\n"
    printf "  \"generated_by\": \"scripts/bench_urn.sh\",\n"
    printf "  \"gate\": {\"bench\": \"BenchmarkE15UrnScaling/n=1000000\", \"benchtime\": \"3x\", "
    printf "\"steps_per_op\": %s, \"max_allocs_per_op\": %s, \"passed\": %s},\n", gsteps, gallocs, (ok ? "true" : "false")
    printf "  \"benches\": [\n"
    for (i = 1; i <= n; i++) {
      printf "    {\"name\": \"%s\", \"iters\": %s, \"ns_per_op\": %s", names[i], it[i], nsv[i]
      if (al[i] != "") printf ", \"allocs_per_op\": %s", al[i]
      if (st[i] != "") printf ", \"steps_per_op\": %s", st[i]
      printf "}%s\n", (i < n ? "," : "")
    }
    printf "  ]\n}\n"
    if (!ok) {
      printf "n=10^6 row: steps/op %s (want %s), allocs/op %s (max %s)\n", gs, gsteps, ga, gallocs > "/dev/stderr"
      exit 1
    }
  }
' "$txt" > "$out" || {
  echo "bench_urn: gate FAILED; see $out" >&2
  exit 1
}
echo "wrote $out and $txt (steps/op and allocs/op gate passed)"
