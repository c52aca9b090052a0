#!/usr/bin/env sh
# Fails when an exported function of internal/... is reached by no product
# run. It builds cmd/dasbench and every examples/* program with coverage over
# ./internal/..., runs each CLI mode (every experiment with the event census
# and CSV export, two experiments by id, the chaos sweeps plain, framed and on
# ring9, a framed and a CxN topology report, a timeline) and every example, and lists the exported
# functions `go tool covdata func` reports at 0.0 %. Each must have a line in
# scripts/product-reach.allow ("<file>:<name> <reason>", file relative to the
# module root): an error method, a test helper, API reached only by bench/.
# An allow line that names a function the runs do reach, or one that no
# longer exists, fails too, so the list only shrinks with the code; so does
# a line that gives no reason after the name.
# Unexported dead code is staticcheck's job.
#
# Usage: scripts/product-reach.sh   (about a minute on two cores)
set -eu
cd "$(dirname "$0")/.."
ALLOW=scripts/product-reach.allow
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/cov" "$work/csv"

build() { # build <name> <main package>
	go build -cover -coverpkg="./internal/...,$2" -o "$work/$1" "$2"
}
build dasbench ./cmd/dasbench
for d in examples/*/; do
	[ -f "$d/main.go" ] && build "ex-$(basename "$d")" "./$d"
done

export GOCOVERDIR="$work/cov"
run() { "$@" > /dev/null || { echo "product-reach: $* failed" >&2; exit 1; }; }
run "$work/dasbench" -exp all -census -csv "$work/csv"
run "$work/dasbench" -exp table1,coll -parallel 1
run "$work/dasbench" -chaos -quick
run "$work/dasbench" -chaos -quick -transport
run "$work/dasbench" -chaos -topo examples/topologies/ring9.json -quick
run "$work/dasbench" -topo examples/topologies/tiered64.json -apps ASP -transport
run "$work/dasbench" -topo 4x16 -apps all
run "$work/dasbench" -timeline SOR
for ex in "$work"/ex-*; do
	run "$ex"
done

# "<file>:<name>" of every exported internal function the runs never entered.
go tool covdata func -i "$work/cov" |
	awk '$NF == "0.0%" && $2 ~ /(^|\.)[A-Z][^.]*$/ { split($1, f, ":"); sub(/^albatross\//, "", f[1]); print f[1] ":" $2 }' |
	grep '^internal/' | sort -u > "$work/zero"
go tool covdata func -i "$work/cov" |
	awk '{ split($1, f, ":"); sub(/^albatross\//, "", f[1]); print f[1] ":" $2 }' |
	sort -u > "$work/all"
sed -e 's/#.*//' -e '/^[[:space:]]*$/d' "$ALLOW" > "$work/lines"
awk '{ print $1 }' "$work/lines" | sort > "$work/allowed"

status=0
for f in $(awk 'NF < 2 { print $1 }' "$work/lines"); do
	echo "no reason: $f is allowed in $ALLOW without a reason; give one after the name" >&2
	status=1
done
for f in $(comm -23 "$work/zero" "$work/allowed"); do
	echo "unreached: $f is exported, and no product run calls it: delete it, or allow it in $ALLOW with a reason" >&2
	status=1
done
for f in $(comm -13 "$work/zero" "$work/allowed"); do
	if grep -qx "$f" "$work/all"; then
		echo "stale allow: a product run reaches $f; remove its line from $ALLOW" >&2
	else
		echo "stale allow: $f is not a function of internal/...; remove its line from $ALLOW" >&2
	fi
	status=1
done
[ $status -eq 0 ] && echo "product-reach: every exported internal function is reached or allowed ($(wc -l < "$work/allowed") allowed)"
exit $status
