#!/usr/bin/env bash
# Builds pfmbench from source into .bench_build at the root of the checkout
# and runs it with the arguments given. Everything the build writes (binary,
# Go build cache) stays inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(cd "$here/../.." && pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS=-mod=readonly
(cd "$here" && go build -o "$build/pfmbench" .)
exec "$build/pfmbench" "$@"
