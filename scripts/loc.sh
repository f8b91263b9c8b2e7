#!/bin/sh
# loc.sh — print each package's non-test Go line count (`wc -l` over
# the .go files in the package directory that do not end in _test.go),
# then the total. Without arguments it counts every package of the root
# module; with arguments, only the given package directories. It is a
# measuring tool for deletion work, not a gate.
#
# Usage: scripts/loc.sh [dir ...]   (run from the repo root)
#   scripts/loc.sh internal/serve internal/router internal/obs/serve
set -eu

if [ $# -eq 0 ]; then
	root=$(pwd)
	set -- $(go list -f '{{.Dir}}' ./... | sed "s|^$root\$|.|; s|^$root/||")
fi

total=0
for dir in "$@"; do
	n=0
	for f in "$dir"/*.go; do
		case "$f" in *_test.go) continue ;; esac
		[ -f "$f" ] || continue
		n=$((n + $(wc -l < "$f")))
	done
	printf '%7d %s\n' "$n" "$dir"
	total=$((total + n))
done
printf '%7d total\n' "$total"
