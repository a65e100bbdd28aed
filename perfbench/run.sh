#!/usr/bin/env bash
# Build the benchmark from the sources in this checkout (once; later
# calls are no-op incremental builds) and run one workload:
#
#   bash perfbench/run.sh --workload wide_hot --seed 1 --seconds 24 --trace 0
#
# Run from the root of the checkout. Build output goes to stderr, so the
# last line of stdout is the benchmark's JSON result. Everything the
# build and the runs write goes under .bench_build/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build=".bench_build/cmake"

if [ ! -f "$build/build.ninja" ] && [ ! -f "$build/Makefile" ]; then
  generator=()
  if command -v ninja >/dev/null 2>&1; then generator=(-G Ninja); fi
  cmake -S "$here" -B "$build" "${generator[@]}" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target spmm_perfbench -j 4 >&2

exec "$build/spmm_perfbench" "$@"
