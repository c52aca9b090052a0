#!/usr/bin/env sh
# Guards the workflow's `go test ... -run '<pattern>' <pkg>...` steps against
# passing vacuously: a renamed or deleted test leaves its pattern matching
# nothing, and `go test -run` then succeeds without running anything. For
# every such step in .github/workflows/ci.yml this script requires
# `go test -list '<alt>' <pkg>` to print at least one test per package, for
# each |-separated alternative of the pattern — so one renamed test cannot
# hide behind its neighbours in a list. A fuzz step (`-run '^$' -fuzz <Target>`)
# selects no test on purpose; there the named target must exist instead, and
# a benchmark step (`-run '^$' -bench <pattern>`) must select a benchmark.
#
# Usage: scripts/ci-run-patterns.sh [workflow.yml]
set -eu
cd "$(dirname "$0")/.."
WORKFLOW="${1:-.github/workflows/ci.yml}"

# One line per step: the quoted pattern, then every ./package that follows.
steps=$(sed -n "s/.*go test .*-run '\([^']*\)'\(.*\)/\1\2/p" "$WORKFLOW")
if [ -z "$steps" ]; then
	echo "ci-run-patterns: no -run steps found in $WORKFLOW" >&2
	exit 1
fi

echo "$steps" | while read -r pattern pkgs; do
	kind=Test flag=-run
	if [ "$pattern" = '^$' ]; then
		case "$pkgs" in
		*-fuzz*)
			kind=Fuzz flag=-fuzz
			pattern=$(echo "$pkgs" | sed -n 's/.*-fuzz \([A-Za-z0-9_]*\).*/\1/p')
			;;
		*)
			kind=Benchmark flag=-bench
			pattern=$(echo "$pkgs" | sed -n 's/.*-bench \([^ ]*\).*/\1/p')
			;;
		esac
	fi
	for pkg in $pkgs; do
		case "$pkg" in ./*) ;; *) continue ;; esac
		for alt in $(echo "$pattern" | tr '|' ' '); do
			if go test -list "$alt" "$pkg" | grep -q "^$kind"; then
				echo "ok    $flag '$alt' $pkg"
			else
				echo "EMPTY $flag '$alt' $pkg matches no test" >&2
				exit 1
			fi
		done
	done
done
