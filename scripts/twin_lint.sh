#!/bin/sh
# twin_lint.sh — fail when a root-module package declares a non-test
# func X beside a func XTo, XWith, XKern, XFast or XBatch. Such pairs
# are a kernel with two entry points: an allocating or defaulting
# wrapper that forwards to its in-place or parameterized twin, a plain
# and a devirtualized copy of one computation, or a one-item and a
# many-item path where one should be the other at size one. Each kernel keeps one entry
# point (XTo(dst, ...) with nil for a fresh slice; a kernel with a
# faster body for one argument type picks it inside), so a new pair is
# either a wrapper to delete or a name to change. Methods count by name
# alone, whatever their receiver.
#
# Usage: scripts/twin_lint.sh   (run from the repo root)
set -eu

root=$(pwd)
pairs=$(
	for dir in $(go list -f '{{.Dir}}' ./...); do
		files=""
		for f in "$dir"/*.go; do
			case "$f" in *_test.go) continue ;; esac
			[ -f "$f" ] && files="$files $f"
		done
		[ -n "$files" ] || continue
		pkg=${dir#"$root"}
		pkg=${pkg#/}
		# The func name of every declaration, receiver stripped.
		# shellcheck disable=SC2086
		sed -n 's/^func \(([^)]*) \)\{0,1\}\([A-Za-z_][A-Za-z0-9_]*\).*/\2/p' $files |
			sort -u |
			awk -v pkg="${pkg:-.}" '
				{ have[$1] = 1; names[NR] = $1 }
				END {
					n = split("To With Kern Fast Batch", sfx, " ")
					for (i = 1; i <= NR; i++)
						for (j = 1; j <= n; j++)
							if ((names[i] sfx[j]) in have)
								print pkg ": " names[i] " / " names[i] sfx[j]
				}'
	done
)

if [ -n "$pairs" ]; then
	echo "$pairs" | sed 's/^/twin_lint: /'
	echo "twin_lint: FAIL ($(echo "$pairs" | wc -l | tr -d ' ') twin pairs; keep one entry point per kernel)"
	exit 1
fi
echo "twin_lint: OK"
