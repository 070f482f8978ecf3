#!/usr/bin/env bash
# Builds the benchmark from source in this checkout and runs it.
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   bash perfbench/run.sh reference --workload NAME --seed N --out DIR
# Run from the repository root. Build output goes to stderr, so the last
# line of standard output is the benchmark's result.
set -euo pipefail
# Keep every build artefact inside the checkout (no shared dune cache).
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
