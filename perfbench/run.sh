#!/usr/bin/env bash
# Build the benchmark and the soimap daemon from source, then run the
# benchmark with every argument passed through:
#
#   bash perfbench/run.sh --workload compile|serve_repeat|remap_eco|all \
#        --seed N --seconds S --trace 0|1
#
# Build output goes to stderr, so the last line of stdout is the
# benchmark's JSON result.  See perfbench/README.md.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
# Keep the build inside this checkout: no shared dune cache.
export DUNE_CACHE=disabled
dune build --root . --display quiet perfbench/bench.exe bin/soimap.exe 1>&2
exec ./_build/default/perfbench/bench.exe "$@"
