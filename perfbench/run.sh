#!/bin/sh
# Build the benchmark from source, then run it with the given arguments
# (see perfbench/README.md).  Run from the root of a checkout:
#
#   sh perfbench/run.sh --workload advise-hom1000 --seed 7 --seconds 30 --trace 0
#
# The benchmark is its own dune project: this script assembles a
# workspace in .bench_build/ws from perfbench/ and a copy of lib/, and
# builds it there with no shared dune cache, so nothing is written
# outside the checkout.  Build output goes to stderr, so the last line of
# standard output is the benchmark's JSON result.
set -eu
cd "$(dirname "$0")/.."
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)"
ws=.bench_build/ws
mkdir -p "$ws"
rm -rf "$ws/lib" "$ws/bench"
cp -R lib "$ws/lib"
cp -R perfbench/src "$ws/bench"
cp perfbench/dune-project "$ws/dune-project"
dune build --root "$ws" --cache=disabled ./bench/cophy_bench.exe 1>&2
rev=$(GIT_DIR=.git git rev-parse HEAD 2>/dev/null) || rev=none
exec "$ws/_build/default/bench/cophy_bench.exe" --rev "$rev" "$@"
