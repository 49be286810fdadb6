#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build and the
# run write (binary, Go build cache, temporary files) stays under
# .bench_build/ at the root of the checkout; build time is not measured.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
# the go command keeps telemetry counters under the user's config directory
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"

(cd "$here" && go build -o "$out/bench" .)
exec "$out/bench" "$@"
