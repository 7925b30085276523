#!/usr/bin/env bash
# Builds the request-cost benchmark from this checkout's sources (the first
# time in full, incrementally after) and runs one invocation of it:
#
#   bash bench/request_cost/bench.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Build output goes to stderr, so the last line on stdout is the run's JSON.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"
build=build-request-cost
if [ ! -f "$build/CMakeCache.txt" ]; then
  generator=()
  if command -v ninja >/dev/null 2>&1; then
    generator=(-G Ninja)
  fi
  cmake -S bench/request_cost -B "$build" "${generator[@]}" -DCMAKE_BUILD_TYPE=Release >&2
fi
# A parallel build that fails (a compiler killed on a host short of memory)
# is retried serially before the run is given up.
cmake --build "$build" -j "$(nproc)" >&2 || cmake --build "$build" -j 1 >&2
exec "$build/request_cost" "$@"
