#!/usr/bin/env bash
# Build the benchmark and the serving daemon from source, then run the
# benchmark with the given arguments.  Run it from the repository root:
#
#   bash benchmark/run.sh --workload serve-hit --seed 1 --seconds 10 --trace 0
#   bash benchmark/run.sh --seed 1 --out results.json      # all five workloads
#
# Build output goes to standard error, so the last line of standard output
# is the benchmark's own result.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -f benchmark/dune ]; then
  echo "benchmark/run.sh: run from the repository root" >&2
  exit 2
fi

# Keep every build artefact inside the checkout.
export DUNE_CACHE=disabled
dune build --root . --display quiet benchmark/run.exe bin/serve.exe 1>&2
exec ./_build/default/benchmark/run.exe "$@"
