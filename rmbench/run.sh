#!/usr/bin/env bash
# Builds the rmtest benchmark from source inside the checkout and runs it
# from the checkout root, passing every argument through, e.g.
#   bash rmbench/run.sh --workload tablei --seed 1 --seconds 20 --trace 0
# The Go build cache, temporary files, results and traces all stay under
# .bench_build/ in the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
go -C "$root/rmbench" build -buildvcs=false -o "$build/bin/rmbench" .
commit=unknown
if [ -e "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
cd "$root"
exec "$build/bin/rmbench" --commit "$commit" "$@"
