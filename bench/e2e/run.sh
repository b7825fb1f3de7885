#!/usr/bin/env bash
# Build the benchmark and the dlproj CLI from this checkout, then run one
# workload from the checkout root:
#
#   bash bench/e2e/run.sh --workload W --seed S --seconds N --trace 0|1
#
# Build output goes to stderr; the benchmark's result is the last line of
# stdout.  Fails (non-zero, no result) when the checkout cannot be built.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . --display quiet ./bench/e2e/e2e.exe ./bin/dlproj.exe >&2
exec ./_build/default/bench/e2e/e2e.exe --dlproj ./_build/default/bin/dlproj.exe "$@"
