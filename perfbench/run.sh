#!/usr/bin/env bash
# Builds perfbench from source into .bench_build/ and runs it with the
# given arguments from the repository root. Everything the Go tool writes
# (build cache, telemetry counters) is pointed inside .bench_build/, so a
# run reads and writes only inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
(cd "$here" && env GOCACHE="$build/go-cache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOFLAGS=-mod=readonly GOTOOLCHAIN=local go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" "$@"
