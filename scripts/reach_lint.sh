#!/bin/sh
# reach_lint.sh — fail when a non-test function under internal/ is
# reached by no program. The programs are every cmd/* and examples/*
# main package, the perfbench harness (its own module) and a generated
# stub that keeps every export of the root mmtag package alive, so the
# public API counts as a program. Each is built with -gcflags=all=-l
# (no inlining, so every called function keeps its symbol), the linker
# drops what nothing calls, and scripts/reach_walk.go matches each
# func declaration under internal/ against the `go tool nm` symbols.
# A function only its own unit test calls is dead code: delete it with
# that test, or, for a test oracle or calibration helper, add it to
# scripts/reach_allow.txt with a one-line reason. An allowlist entry
# that names a missing or reached function fails the lint too.
#
# Usage: scripts/reach_lint.sh [-v]   (run from the repo root;
#   -v also lists the allowlisted functions)
set -eu

root=$(pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir -p "$tmp/bin" "$tmp/stub"
go build -gcflags=all=-l -o "$tmp/bin/" ./cmd/... ./examples/...
go -C perfbench build -gcflags=all=-l -o "$tmp/bin/perfbench" .

go run scripts/reach_walk.go -stub "$tmp/stub"
cat > "$tmp/stub/go.mod" <<EOF
module reachstub

go 1.22

require mmtag v0.0.0

replace mmtag => $root
EOF
go -C "$tmp/stub" build -gcflags=all=-l -o "$tmp/bin/stub" .

for b in "$tmp"/bin/*; do
	go tool nm "$b"
done > "$tmp/syms"

go run scripts/reach_walk.go -syms "$tmp/syms" -allow scripts/reach_allow.txt "$@"
echo "reach_lint: OK"
