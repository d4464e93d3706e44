#!/usr/bin/env bash
# Build racedet and the end-to-end benchmark from source, then run the
# benchmark with every argument passed through; see main.ml for the
# command line.  Run it from the repository root:
#   bash bench/e2e/run.sh --workload ring-long --seed 11 --seconds 20 --trace 0
set -euo pipefail
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)"
dune build --root . bench/e2e/main.exe bin/racedet.exe 1>&2
exec ./_build/default/bench/e2e/main.exe "$@"
