#!/usr/bin/env sh
# Repo verification gate: formatting, dead doc references, vet, build, and the
# full test suite under the race detector.  Extra flags are passed to `go test`
# (e.g. `./scripts/verify.sh -short` for the fast subset).
set -eu
cd "$(dirname "$0")/.."

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

# Dead-reference check: every `make <target>` and scripts/<file> the docs name
# must exist, so a deletion cannot leave them pointing at nothing.
docs="README.md DESIGN.md EXPERIMENTS.md .claude/skills/verify/SKILL.md"
dead=0
for t in $(grep -ohE '[`(:] ?make [a-z][a-z-]*' $docs | sed 's/.*make //' | sort -u); do
	grep -q "^$t:" Makefile || { echo "docs name \`make $t\`, not a Makefile target" >&2; dead=1; }
done
for f in $(grep -ohE 'scripts/[A-Za-z0-9_.-]+' $docs | sort -u); do
	[ -e "$f" ] || { echo "docs name $f, which does not exist" >&2; dead=1; }
done
[ "$dead" -eq 0 ] || exit 1

go vet ./...
go build ./...
# Race instrumentation slows the model-training packages ~8x; the default
# 10m per-package timeout is not enough on loaded machines.
go test -race -timeout 30m "$@" ./...
