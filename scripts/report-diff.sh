#!/usr/bin/env sh
# Diffs the reports of cmd/dasbench at two revisions. It builds dasbench at
# each revision in a temporary checkout, runs `-exp all -plot=false -census`
# and the chaos sweep on 4x4, 2x8, ring9 and tiered64 with each build, drops
# the wall-clock lines, and prints per run the number of changed lines and
# how they split over its reports (a report's count is the larger of its
# removed and added lines), then the diffs. It writes nothing in the
# working tree.
#
# Usage: scripts/report-diff.sh <rev-a> <rev-b>   (about a minute per
# revision on two cores)
set -eu
[ $# -eq 2 ] || { echo "usage: $0 <rev-a> <rev-b>" >&2; exit 2; }
cd "$(dirname "$0")/.."
for rev in "$1" "$2"; do
	git rev-parse -q --verify "$rev^{commit}" > /dev/null ||
		{ echo "report-diff: unknown revision $rev" >&2; exit 2; }
done
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
reports="all 4x4 2x8 ring9 tiered64"

# run <side> <report>: one report of one checkout, wall-clock lines dropped.
# Runs from the checkout, which holds the topology files.
run() {
	case $2 in
	all) set -- "$1" "$2" -exp all -plot=false -census ;;
	ring9 | tiered64) set -- "$1" "$2" -chaos -topo "examples/topologies/$2.json" ;;
	*) set -- "$1" "$2" -chaos -topo "$2" ;;
	esac
	side=$1 report=$2
	shift 2
	(cd "$work/$side" && ./dasbench "$@" > "$work/$side.$report.raw") ||
		{ echo "report-diff: $rev: dasbench $* failed" >&2; exit 1; }
	grep -v 'wall clock' "$work/$side.$report.raw" > "$work/$side.$report" || [ $? -eq 1 ]
}

for side in a b; do
	if [ $side = a ]; then rev=$1; else rev=$2; fi
	mkdir "$work/$side"
	git archive "$rev" | tar -x -C "$work/$side"
	(cd "$work/$side" && go build -o dasbench ./cmd/dasbench)
	for r in $reports; do
		run $side "$r"
	done
done

# diff exits 1 when the files differ; any other failure (2, or options this
# diff lacks) stops the script rather than reading as "no change".
# Per run, the changed lines of each report: a report starts at its
# "<id>: <title>" line, and a chaos timeline after the blank line that
# precedes it.
for r in $reports; do
	diff --unchanged-line-format=' %L' --old-line-format='<%L' --new-line-format='>%L' \
		"$work/a.$r" "$work/b.$r" > "$work/merged.$r" || [ $? -eq 1 ]
	awk -v run="$r" '
		{ line = substr($0, 2) }
		line ~ /^(== )?[a-z][A-Za-z0-9*-]*: / && line !~ /^note: / { id = line; sub(/^== /, "", id); sub(/:.*/, "", id) }
		prev == "" && NR > 1 && line !~ /^== / && line != "" { id = "timeline" }
		/^[<>]/ { if (!(id in old)) { order[k++] = id; old[id] = new[id] = 0 } }
		/^</ { old[id]++ }
		/^>/ { new[id]++ }
		{ prev = line }
		END {
			for (i = 0; i < k; i++) {
				id = order[i]; n = old[id] > new[id] ? old[id] : new[id]
				total += n; list = list sprintf("%s %s %d", (i ? "," : ":"), id, n)
			}
			printf "%-9s %4d changed lines%s\n", run, total, list
		}' "$work/merged.$r"
done
for r in $reports; do
	diff "$work/a.$r" "$work/b.$r" > "$work/diff.$r" || [ $? -eq 1 ]
	[ -s "$work/diff.$r" ] || continue
	printf '\n=== %s\n' "$r"
	cat "$work/diff.$r"
done
