#!/usr/bin/env bash
# lint.sh — run the exact checks CI's lint job runs, in the same order, so a
# green local run means a green lint job: gofmt, go vet, staticcheck (skipped
# with a notice when not installed), the DESIGN.md doc-reference guard, and
# roxvet — the project's own invariant analyzers — in its vettool form (test
# files included, results cached in the go build cache). Last comes the
# benchmark module's vet + tests (the test job's step): benchmark/ has its
# own go.mod, so nothing above reaches it, and it imports internal/ packages
# a refactor here can break.
#
#   scripts/lint.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt"
out="$(gofmt -l .)"
if [ -n "$out" ]; then
  echo "gofmt needed on:"; echo "$out"; exit 1
fi

echo "== go vet"
go vet ./...

echo "== staticcheck"
if command -v staticcheck >/dev/null 2>&1; then
  staticcheck ./...
else
  echo "staticcheck not installed; skipping (CI runs it)"
fi

echo "== doc references"
./scripts/check_docrefs.sh

echo "== roxvet (invariant analyzers)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/roxvet" ./cmd/roxvet
go vet -vettool="$tmp/roxvet" ./...

echo "== benchmark module (vet + tests)"
(cd benchmark && go vet ./... && go test ./...)

echo "lint: ok"
