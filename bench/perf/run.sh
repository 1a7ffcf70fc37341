#!/usr/bin/env bash
# Build the leopard CLI and the benchmark from source, then run the
# benchmark from the repository root with the given arguments:
#
#   bash bench/perf/run.sh --seed 42
#   bash bench/perf/run.sh --workload check-tpcc --seed 7 --seconds 10 --trace 0
#   bash bench/perf/run.sh compare A.json B.json
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"
if [ ! -f dune-project ] || [ ! -f bin/leopard_cli.ml ] || [ ! -d lib ]; then
  echo "bench/perf: $root is not a leopard source tree" >&2
  exit 2
fi

# --root keeps dune from adopting a dune-project above the tree; the
# shared cache is off so the build reads and writes only inside it.
DUNE_CACHE=disabled dune build --root . ./bin/leopard_cli.exe \
  ./bench/perf/main.exe >&2 || {
  echo "bench/perf: build failed" >&2
  exit 2
}
exec ./_build/default/bench/perf/main.exe "$@"
