#!/usr/bin/env bash
# Runs every workload --repeat times (seeds 1..N) plus one traced run each,
# and writes all results into one JSON file for compare.py:
#
#   bash bench/request_cost/run.sh [--repeat N] [--seconds S] [--out FILE]
#
# Builds the benchmark first (see bench.sh). Defaults: 10 repeats (the fewest
# compare.py draws a verdict from), 30 s, build-request-cost/results.json.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/../.."

repeat=10
seconds=30
out=build-request-cost/results.json
while [ $# -gt 0 ]; do
  case "$1" in
    --repeat) repeat="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    *) echo "usage: $0 [--repeat N] [--seconds S] [--out FILE]" >&2; exit 2 ;;
  esac
done

workloads=(phttp_extlard http10_small phttp_large)
records=()
# One run: its exit code, the session rate it printed, why it was invalid (if
# it was), its warnings, every "name value unit" metric line it printed, and
# its JSON line (null when it printed none), which holds only one of the two
# metric sets.
run_one() {
  local workload="$1" seed="$2" trace="$3" log status=0 result rate invalid warnings metrics
  log="$(bash "$here/bench.sh" --workload "$workload" --seed "$seed" --seconds "$seconds" \
         --trace "$trace")" || status=$?
  result="$(printf '%s\n' "$log" | tail -n 1)"
  case "$result" in "{"*) ;; *) result=null ;; esac
  rate="$(printf '%s\n' "$log" | sed -n 's/^open loop: .* at \([0-9.]*\) sessions\/s.*/\1/p')"
  invalid="$(printf '%s\n' "$log" | sed -n 's/["\\]/ /g; s/^INVALID: \(.*\)/"\1"/p' | paste -sd, -)"
  warnings="$(printf '%s\n' "$log" | sed -n 's/["\\]/ /g; s/^WARNING: \(.*\)/"\1"/p' | paste -sd, -)"
  metrics="$(printf '%s\n' "$log" |
             sed -n 's/^\([a-z][a-z0-9_.]*\) \(-\{0,1\}[0-9][0-9.e+-]*\) [^ ]*$/"\1": \2/p' |
             paste -sd, -)"
  echo "$workload seed $seed trace $trace: exit $status" >&2
  records+=("{\"workload\": \"$workload\", \"seed\": $seed, \"trace\": $trace, \"exit\": $status, \"session_rate\": ${rate:-null}, \"invalid\": [$invalid], \"warnings\": [$warnings], \"metrics\": {$metrics}, \"result\": $result}")
}

for workload in "${workloads[@]}"; do
  for seed in $(seq 1 "$repeat"); do
    run_one "$workload" "$seed" 0
  done
  run_one "$workload" 1 1
done

compiler="$(sed -n 's/^CMAKE_CXX_COMPILER:[A-Z]*=//p' build-request-cost/CMakeCache.txt)"
mkdir -p "$(dirname "$out")"
{
  printf '{"nproc": %s, "kernel": "%s", "compiler": "%s", "seconds": %s, "repeat": %s,\n' \
    "$(nproc)" "$(uname -r)" "$("$compiler" --version | head -n 1)" "$seconds" "$repeat"
  printf ' "runs": [\n'
  for i in "${!records[@]}"; do
    printf '  %s%s\n' "${records[$i]}" "$([ "$i" -lt $((${#records[@]} - 1)) ] && echo ,)"
  done
  printf ' ]}\n'
} > "$out"
echo "wrote $out" >&2
