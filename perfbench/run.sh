#!/usr/bin/env bash
# Builds the benchmark and blinkml-serve from the tree under test, then runs
# the benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload train-dense --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

root=$(pwd)
bench="$root/perfbench"
out="$root/.bench_build"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/blinkml-serve" ]; then
	echo "perfbench: run from the repository root (no go.mod or cmd/blinkml-serve here)" >&2
	exit 2
fi
mkdir -p "$out/bin" "$out/work" "$out/home" "$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" TMPDIR="$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS= GOENV=off GOTELEMETRY=off
(cd "$bench" && go build -o "$out/bin/perfbench" . && go build -o "$out/bin/blinkml-serve" blinkml/cmd/blinkml-serve) >&2

work=$(mktemp -d "$out/work/run-XXXXXX")
trap 'rm -rf "$work"' EXIT
"$out/bin/perfbench" --serve-bin "$out/bin/blinkml-serve" --work-dir "$work" "$@"
