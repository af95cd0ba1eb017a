#!/usr/bin/env bash
# Gates the exact counts of the repo benchmark's traced runs against the
# committed BENCH_counts.json: simulated interactions and scheduler
# steps, block flushes, alias rebuilds and fault events per urn job,
# steps per pop and sim job, explored configurations per check job, and
# snapshot bytes. perfbench takes every count from each job's first
# repeat of a job list derived from --seed, so the counts do not depend
# on the machine or on --seconds; they move only when a random stream, a
# kernel's work or the snapshot format does. A change that moves one
# regenerates the file and says why. Timings, runtime.* and
# sim.effective_ratio (summed over all repeats) are left out.
#
# Usage: scripts/bench_counts.sh [counts.json]
# The file maps each workload to its counts; the script runs each listed
# workload once, traced, at seed 1, and exits 1 unless every count is
# equal.
set -euo pipefail
cd "$(dirname "$0")/.."

want="${1:-BENCH_counts.json}"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

fail=0
for w in $(jq -r 'keys[]' "$want"); do
  bash perfbench/run.sh --workload "$w" --seed 1 --seconds 1 --trace 1 | tail -n 1 > "$tmp/$w.json"
  if ! jq -e '.correct' "$tmp/$w.json" > /dev/null; then
    echo "FAIL $w: the traced run failed its own checks" >&2
    fail=1
  fi
  for name in $(jq -r --arg w "$w" '.[$w] | keys_unsorted[]' "$want"); do
    exp="$(jq --arg w "$w" --arg n "$name" '.[$w][$n]' "$want")"
    got="$(jq --arg n "$name" '.metrics[$n].value' "$tmp/$w.json")"
    if jq -e -n --argjson a "$exp" --argjson b "$got" '$a == $b' > /dev/null; then
      echo "ok   $w $name = $got"
    else
      echo "FAIL $w $name = $got, want $exp" >&2
      fail=1
    fi
  done
done
exit "$fail"
