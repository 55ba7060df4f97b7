#!/bin/sh
# Build the benchmark and xtwigd from source, then run one workload.
#
#   sh perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Run from the root of a checkout. The build goes to .bench_build; the
# runs write only under perfbench/_out.
set -eu
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: run from the root of an xtwig checkout (dune-project, lib/ and bin/ are missing)" >&2
  exit 2
fi
DUNE_CACHE=disabled dune build --root . --build-dir .bench_build --profile release \
  perfbench/main.exe bin/xtwigd.exe >&2
bench=./.bench_build/default/perfbench/main.exe
# The benchmark and the xtwigd it starts share one CPU, the last one this
# process may use: a closed loop over one connection never runs both
# sides at once, and on a 2-vCPU guest the wake-ups across CPUs made the
# round time swing by 20% between identical runs (6% when pinned).
if command -v taskset >/dev/null 2>&1; then
  cpus=$(taskset -pc $$ | sed 's/.*: *//')
  exec taskset -c "${cpus##*[,-]}" "$bench" "$@"
fi
exec "$bench" "$@"
