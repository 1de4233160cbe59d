#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the program under test and the
# benchmark from the checkout's sources, then runs the benchmark.  Everything
# it writes (Go build cache, binaries, trained models, traces) stays inside the
# checkout, under .bench_build/ and benchmark/out/.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
if [ "$here" != "$root/benchmark" ]; then
	echo "run.sh: run from the checkout root (bash benchmark/run.sh ...)" >&2
	exit 2
fi
build=$root/.bench_build
mkdir -p "$build"
# XDG_CONFIG_HOME: the go command keeps its telemetry counters and its env file
# under the user's config directory; that, too, stays in the checkout.
# GOTMPDIR: the go command's scratch ($WORK) would otherwise go to /tmp.
export GOCACHE=$build/gocache GOTMPDIR=$build/gotmp XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local GOWORK=off
# With telemetry in its default mode the first go command to see a fresh config
# directory forks a detached `go` child to tidy the counter files, and that
# child outlives this script.  The mode file is the only switch (GOTELEMETRY is
# read-only in the environment); "off" means no counters and no child.
mkdir -p "$GOTMPDIR" "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
# Reproducible (no checkout path, no VCS stamp): the benchmark names the
# trained base repository after this binary's hash, and only a change to the
# sources should change it.
go build -trimpath -buildvcs=false -o "$build/kamel" ./cmd/kamel
go build -C benchmark -o "$build/kamel-benchmark" .
exec "$build/kamel-benchmark" "$@"
