#!/usr/bin/env sh
# Fails when an exported function of internal/... is reached by no product
# run, or when more statements go unreached than scripts/product-reach.stmts
# records. It builds cmd/dasbench and every examples/* program with coverage
# over ./internal/... and the program's own package, runs each CLI mode (the
# experiment list, every experiment with the event census and CSV export, two
# experiments by id, the chaos sweep on 4x4 plain and framed, on ring9 and on
# a 2x8 mesh, a framed and a CxN topology report, a timeline) and every
# example.
#
# Functions: it lists the exported functions `go tool covdata func` reports at
# 0.0 %. Each must have a line in scripts/product-reach.allow ("<file>:<name>
# <reason>", file relative to the module root): an error method, a test
# helper, API reached only by bench/. An allow line that names a function the
# runs do reach, or one that no longer exists, fails too, so the list only
# shrinks with the code; so does a line that gives no reason after the name.
# Unexported dead code is staticcheck's job.
#
# Statements: it then runs tier-1 (`go test ./...`) with coverage over
# ./internal/..., ./cmd/... and ./examples/..., and prints, per file, the
# statements no product run executes and those that neither a product run nor
# a test executes (the second total leaves out internal/sim/shard.go, see
# RACY). Either total above its line in scripts/product-reach.stmts fails; a
# total below it is printed, for the change that lowered it to record.
#
# Both profiles come from one snapshot of the tree, every tracked or
# unignored file copied once at the start: a file edited during the run would
# otherwise shift line numbers between them and count a statement twice.
#
# Usage: scripts/product-reach.sh   (about four minutes on two cores)
set -eu
cd "$(dirname "$0")/.."
ALLOW=scripts/product-reach.allow
STMTS=scripts/product-reach.stmts
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/cov" "$work/tcov" "$work/csv" "$work/src"
git ls-files -z --cached --others --exclude-standard |
	xargs -0 sh -c 'for f; do [ -f "$f" ] && printf "%s\0" "$f"; done' sh |
	tar --null -T - -cf - | tar -xf - -C "$work/src"
cd "$work/src"

build() { # build <name> <main package>
	go build -cover -coverpkg="./internal/...,$2" -o "$work/$1" "$2"
}
build dasbench ./cmd/dasbench
for d in examples/*/; do
	[ -f "$d/main.go" ] && build "ex-$(basename "$d")" "./$d"
done

run() { GOCOVERDIR="$work/cov" "$@" > /dev/null || { echo "product-reach: $* failed" >&2; exit 1; }; }
run "$work/dasbench" -list
run "$work/dasbench" -exp all -census -csv "$work/csv"
run "$work/dasbench" -exp table1,coll -parallel 1
run "$work/dasbench" -chaos
run "$work/dasbench" -chaos -transport
run "$work/dasbench" -chaos -topo examples/topologies/ring9.json
run "$work/dasbench" -chaos -topo 2x8
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

go test -count=1 -cover -coverpkg=./internal/...,./cmd/...,./examples/... ./... \
	-args -test.gocoverdir="$work/tcov" > "$work/test.log" 2>&1 ||
	{ cat "$work/test.log" >&2; echo "product-reach: go test ./... failed" >&2; exit 1; }
go tool covdata textfmt -i "$work/cov" -o "$work/prod.txt"
go tool covdata textfmt -i "$work/cov,$work/tcov" -o "$work/both.txt"

# One line per block "<file> <first line> <last line> <statements> <product
# count> <count with tests>", summed over the binaries that carry the block.
awk 'FNR == 1 { next }
	{ n[$1] = $2; if (FILENAME == ARGV[1]) p[$1] += $3; else b[$1] += $3 }
	END { for (k in n) { split(k, f, ":"); split(f[2], r, "[.,]"); sub(/^albatross\//, "", f[1]);
		print f[1], r[1], r[3], n[k], p[k] + 0, b[k] + 0 } }' "$work/prod.txt" "$work/both.txt" |
	sort -k1,1 -k2,2n > "$work/blocks"

# listing <count column>: per file, the unreached statements and their lines.
listing() {
	awk -v c="$1" '$c == 0 && $4 > 0 {
		if ($1 != file) { if (file != "") print "  " file " " total ":" lines; file = $1; total = 0; lines = "" }
		total += $4; lines = lines " " ($2 == $3 ? $2 : $2 "-" $3) }
		END { if (file != "") print "  " file " " total ":" lines }' "$work/blocks"
}
echo "product-reach: statements no product run executes, per file (count: line ranges)"
listing 5
echo "product-reach: statements nothing executes, neither a product run nor a test"
listing 6
# The sharded engine's LP runners race by design, so which of their branches
# tier-1 enters varies from run to run (the runner's fenceSkip case, for
# one): RACY is listed above but left out of the second total.
RACY=internal/sim/shard.go
product=$(awk '$5 == 0 { s += $4 } END { print s + 0 }' "$work/blocks")
nothing=$(awk -v racy="$RACY" '$6 == 0 && $1 != racy { s += $4 } END { print s + 0 }' "$work/blocks")
total=$(awk '{ s += $4 } END { print s + 0 }' "$work/blocks")

# ratchet <name> <total>: fail above the recorded total, ask to record a lower one.
ratchet() {
	was=$(awk -v k="$1" '$1 == k { print $2 }' "$STMTS")
	if [ -z "$was" ]; then
		echo "product-reach: $STMTS has no '$1' line" >&2
		status=1
	elif [ "$2" -gt "$was" ]; then
		echo "product-reach: $1 went $was -> $2 statements: reach the new code from a run or a test, or delete it" >&2
		status=1
	elif [ "$2" -lt "$was" ]; then
		echo "product-reach: $1 went $was -> $2 statements: record '$1 $2' in $STMTS"
	fi
}
ratchet product-unreached "$product"
ratchet unreached "$nothing"
echo "product-reach: of $total statements, $product are executed by no product run and $nothing outside $RACY by nothing"
exit $status
