#!/usr/bin/env bash
# run.sh — the benchmark's one command (see ../BENCHMARK.json).
#
# Builds cmd/saenet (the program under test) and this directory's harness
# from source into <checkout>/.bench_build, then hands every argument to
# the harness. Everything the build and the run write — Go's build cache
# included — stays under .bench_build, inside the checkout.
#
#   bash bench/run.sh --workload range_scan --seed 1 --seconds 24 --trace 0
#   bash bench/run.sh -aa 2 -out bench/results/seed.json
#   bash bench/run.sh -curve
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/bin"

# Keep the toolchain's own files (build cache, module cache, telemetry
# counters, go env file) inside the checkout too, and never let it fetch.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
  GOENV=off GOTOOLCHAIN=local GOPROXY=off

# Turn Go's telemetry off before the first `go` runs. Left at its default
# the go command forks a detached uploader child once a day per config
# directory — in a fresh checkout, on the first build — and that child
# outlives this script. Its mode is read from this file only; no
# environment variable sets it.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"

# Both builds are no-ops when nothing changed. In a directory without the
# repository's go.mod (or its sources) they fail, and so does this script.
(cd "$root" && go build -o "$build/bin/saenet" ./cmd/saenet) >&2
(cd "$here" && go build -o "$build/bin/bench" .) >&2

exec "$build/bin/bench" -saenet "$build/bin/saenet" -dir "$build" "$@"
