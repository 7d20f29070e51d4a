#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it runs in and
# runs it with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload gpu-supermer --seed 1 --seconds 15 --trace 0
#   bash perfbench/run.sh compare OLD.json NEW.json
#
# Build outputs, the Go build cache and every scratch file stay under
# .bench_build (or $CARGO_TARGET_DIR when set) inside the checkout.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOPATH=$build/gopath
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
if [ "${1:-}" = compare ]; then
	exec "$build/perfbench" "$@"
fi
exec "$build/perfbench" --out "$build" "$@"
