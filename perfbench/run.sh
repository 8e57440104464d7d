#!/usr/bin/env bash
# Build the benchmark and the fcsl daemon from source, then run one
# benchmark invocation:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   bash perfbench/run.sh --self-test
#
# Run from the root of a checkout.  Build output goes to stderr; the
# last line of stdout is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
# keep every byte the build writes inside the checkout
export DUNE_CACHE=disabled
dune build --root . --display quiet \
  ./perfbench/perfbench.exe ./bin/fcsl_cli.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe "$@"
