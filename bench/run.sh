#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it from the
# checkout root, passing every argument through (see bench/main.go).
# The Go build cache and the binary stay under .bench_build/ in the
# checkout, and the toolchain is never fetched from the network.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C bench build -o "$out/bench" .
exec "$out/bench" "$@"
