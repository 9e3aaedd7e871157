#!/usr/bin/env bash
# Builds the benchmark from source and runs it once, from the root of a
# checkout:
#
#   bash bench/run.sh --workload stack-elim --seed 7 --seconds 28 --trace 0
#
# Every build product and the Go caches stay in .bench_build/, inside
# the checkout. --trace 1 selects the traced run, whose spans are
# written to .bench_build/trace.json; any other flag passes through to
# the benchmark unchanged (see main.go). Without the repository around
# bench/ (bench/go.mod replaces secstack with ../) the build fails and
# the script exits nonzero without printing a result.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C bench build -o "$out/bench" .

args=()
while [ $# -gt 0 ]; do
	case "$1" in
	--trace)
		if [ "${2:-0}" = 1 ]; then
			args+=(-trace "$out/trace.json")
		fi
		shift 2
		;;
	*)
		args+=("$1")
		shift
		;;
	esac
done
exec "$out/bench" "${args[@]}"
