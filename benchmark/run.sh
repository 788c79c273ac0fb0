#!/bin/sh
# Build the benchmark from source and run it; the arguments go to the
# executable unchanged.  Run from the root of the repository:
#
#   sh benchmark/run.sh --workload lin-k4-f1 --seed 0 --seconds 10 --trace 0
#
# --trace 1 runs the traced probe (per-layer metrics) instead of the
# end-to-end driver.  The two are built separately, so a probe that no
# longer compiles never blocks end-to-end measurement.  Build output goes
# to stderr; the last stdout line is the result record.
set -eu

trace=0
prev=
for arg in "$@"; do
  if [ "$prev" = "--trace" ]; then trace=$arg; fi
  prev=$arg
done
if [ "$trace" = 1 ]; then exe=probe; else exe=main; fi

# Keep every build artefact inside the checkout.
DUNE_CACHE=disabled dune build --root . --display quiet "benchmark/$exe.exe" >&2
exec "_build/default/benchmark/$exe.exe" "$@"
