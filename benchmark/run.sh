#!/usr/bin/env bash
# Builds the harness from source inside the checkout and runs it with the
# caller's flags. Everything the build writes (Go build cache included) stays
# under <checkout>/.bench_build, so a run touches nothing outside its checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/smokebench" .)
cd "$root"
exec "$build/smokebench" "$@"
