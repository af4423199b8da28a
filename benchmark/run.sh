#!/usr/bin/env bash
# Build the benchmark inside the checkout and run it. Everything the Go
# toolchain writes (build cache, temp files, the binary) is kept under
# .bench_build/ at the checkout root, so a run reads and writes only
# inside its checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
go build -C "$here" -o "$build/mstbench" .
cd "$root"
exec "$build/mstbench" "$@"
