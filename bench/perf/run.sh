#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: build perf.exe from source, then
# run one workload and print its JSON summary as the last stdout line.
#
#   bash bench/perf/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the repository root. Build output goes to stderr; the build
# keeps to _build (no shared dune cache).
set -euo pipefail
cd "$(dirname "$0")/../.."
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)"
fi
dune build --root . --cache=disabled ./bench/perf/perf.exe 1>&2
exec ./_build/default/bench/perf/perf.exe bench "$@"
