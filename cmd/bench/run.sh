#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout (build cache and
# binary under .bench_build/) and runs it with the given arguments. The
# working directory stays the checkout root, so the benchmark's own
# outputs land in .bench_build/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(cd "$here/../.." && pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-modcacherw
(cd "$here" && go build -o "$build/bench" .)
exec "$build/bench" "$@"
