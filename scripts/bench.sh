#!/usr/bin/env sh
# Runs the hot-path engine benchmarks and regenerates BENCH_engine.json and
# BENCH_apps.json at the repository root. BENCH_engine.json keeps three
# sections:
#
#   baseline — the numbers measured on the container/heap engine before the
#              ready-ring rebuild (fixed; the reference for the speedup gate)
#   baton    — the process-switch, RPC and sharded rungs of the goroutine-baton
#              engine, measured at the last commit that had it on the host
#              named in the section (fixed; what the coroutine switch replaced)
#   current  — the numbers from this run, stamped with the host they ran on
#
# The BenchmarkEngineMode* pairs record the sequential engine against the
# cluster-sharded engine (-shards=4) for the shardable applications on a
# four-cluster platform; both sides land in the current section. Sharded
# results are byte-identical to sequential, so the pair compares wall-clock
# throughput only — on a single-core machine the sharded side serializes
# its LPs and shows pure synchronization overhead instead of speedup.
#
# BENCH_apps.json holds the end-to-end numbers for all eight applications of
# the paper's suite (2x8 wide-area, original variant). The RATransport and
# ASPTransport entries rerun RA and ASP with the gateway transport layer on
# (DefaultTransport: frame coalescing + multipath striping); each forms a
# coalescing-on/off pair with its plain entry. The GridASP and GridRA entries
# run on the 64-cluster tiered example topology (multi-hop sparse routing).
#
# The BenchmarkNetworkConstruct/c=N entries track building the sparse network
# for tiered platforms; BenchmarkNetworkConstructDense/c=N rebuilds the dense
# per-pair representation the package used before PR 8 on the same cluster
# counts — the dense-baseline column for the >=10x bytes/op gate at c=256.
#
# Usage:
#   scripts/bench.sh              # full run (benchtime 1s)
#   BENCHTIME=1x scripts/bench.sh # CI smoke: one iteration per benchmark
set -eu
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-1s}"
OUT="BENCH_engine.json"
APPS_OUT="BENCH_apps.json"
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

go test -run '^$' \
	-bench 'BenchmarkEngine|BenchmarkSharded|BenchmarkRPCRoundTrip|BenchmarkNetSendLAN|BenchmarkEndToEnd' \
	-benchmem -benchtime "$BENCHTIME" . | tee "$RAW"

# Network-construction scaling: sparse tiered platforms against the dense
# per-pair representation at the same cluster counts. The c=256 pair is the
# memory acceptance gate for the sparse refactor (>=10x fewer bytes/op).
go test -run '^$' \
	-bench 'BenchmarkNetworkConstruct' \
	-benchmem -benchtime "$BENCHTIME" ./internal/netsim/ | tee -a "$RAW"

HOST="$(go env GOVERSION) $(go env GOOS)/$(go env GOARCH), $(nproc) cpus, $(sed -n 's/^cpu: //p' "$RAW" | head -1), GOMAXPROCS=${GOMAXPROCS:-$(nproc)}"

awk -v benchtime="$BENCHTIME" -v host="$HOST" '
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)   # strip -GOMAXPROCS suffix if present
	for (i = 2; i < NF; i++) {
		if ($(i + 1) == "ns/op")           ns[name] = $i
		if ($(i + 1) == "B/op")            bytes[name] = $i
		if ($(i + 1) == "allocs/op")       allocs[name] = $i
		if ($(i + 1) == "simsec/wallsec")  simsec[name] = $i
		if ($(i + 1) == "windows/op")      windows[name] = $i
		if ($(i + 1) == "fences/op")       fences[name] = $i
	}
	if (!(name in seen)) { order[++n] = name; seen[name] = 1 }
}
END {
	printf "{\n"
	printf "  \"note\": \"hot-path engine benchmarks; regenerate with scripts/bench.sh\",\n"
	printf "  \"benchtime\": \"%s\",\n", benchtime
	printf "  \"baseline\": {\n"
	printf "    \"note\": \"container/heap engine before the ready-ring rebuild (PR 1 seed), benchtime 1s\",\n"
	printf "    \"BenchmarkEngineEvents\":            {\"ns_per_op\": 102.8, \"bytes_per_op\": 48, \"allocs_per_op\": 2},\n"
	printf "    \"BenchmarkEngineSameInstantEvents\": {\"ns_per_op\": 103.7, \"bytes_per_op\": 48, \"allocs_per_op\": 2},\n"
	printf "    \"BenchmarkEngineWakes\":             {\"ns_per_op\": 1697, \"bytes_per_op\": 239, \"allocs_per_op\": 13},\n"
	printf "    \"BenchmarkRPCRoundTrip\":            {\"ns_per_op\": 1522, \"bytes_per_op\": 544, \"allocs_per_op\": 17},\n"
	printf "    \"BenchmarkNetSendLAN\":              {\"ns_per_op\": 1363, \"bytes_per_op\": 232, \"allocs_per_op\": 3},\n"
	printf "    \"BenchmarkEndToEndASP\":             {\"simsec_per_wallsec\": 55.41},\n"
	printf "    \"BenchmarkEndToEndSOR\":             {\"simsec_per_wallsec\": 17.72},\n"
	printf "    \"dense_construct_note\": \"per-pair pipe matrix before the sparse refactor (PR 8), benchtime 1s; the live dense column is BenchmarkNetworkConstructDense in current\",\n"
	printf "    \"BenchmarkNetworkConstruct/c=4\":    {\"ns_per_op\": 3657, \"bytes_per_op\": 3920, \"allocs_per_op\": 49},\n"
	printf "    \"BenchmarkNetworkConstruct/c=64\":   {\"ns_per_op\": 62044, \"bytes_per_op\": 269836, \"allocs_per_op\": 649},\n"
	printf "    \"BenchmarkNetworkConstruct/c=256\":  {\"ns_per_op\": 506894, \"bytes_per_op\": 3835336, \"allocs_per_op\": 3083},\n"
	printf "    \"sharded_sync_note\": \"scalar-lookahead sharded engine before the per-route matrix (PR 10); tiered64 ASP shards=4, every window a fence participation\",\n"
	printf "    \"BenchmarkShardedGridASP\":          {\"windows_per_op\": 145060, \"fences_per_op\": 145060}\n"
	printf "  },\n"
	printf "  \"baton\": {\n"
	printf "    \"note\": \"goroutine-baton engine with thread-locked LP runners, commit 442fd4d, the parent of the coroutine switch (PR 17); go1.24.0 linux/amd64, 2 cpus (2-vCPU Firecracker VM), Intel(R) Xeon(R) Processor @ 2.10GHz, GOMAXPROCS=2, benchtime 1s\",\n"
	printf "    \"BenchmarkEngineWakes\":               {\"ns_per_op\": 838.5, \"bytes_per_op\": 0, \"allocs_per_op\": 0},\n"
	printf "    \"BenchmarkRPCRoundTrip\":              {\"ns_per_op\": 500.4, \"bytes_per_op\": 0, \"allocs_per_op\": 0},\n"
	printf "    \"BenchmarkEngineModeWaterSequential\": {\"ns_per_op\": 3711696, \"simsec_per_wallsec\": 180.8},\n"
	printf "    \"BenchmarkEngineModeWaterShards4\":    {\"ns_per_op\": 9229024, \"simsec_per_wallsec\": 72.72},\n"
	printf "    \"BenchmarkEngineModeRASequential\":    {\"ns_per_op\": 391473631, \"simsec_per_wallsec\": 1.324},\n"
	printf "    \"BenchmarkEngineModeRAShards4\":       {\"ns_per_op\": 8907678667, \"simsec_per_wallsec\": 0.05819},\n"
	printf "    \"BenchmarkShardedWindowSync\":         {\"ns_per_op\": 3665, \"windows_per_op\": 0.2000, \"fences_per_op\": 0.2000},\n"
	printf "    \"BenchmarkShardedGridASP\":            {\"ns_per_op\": 1250972877, \"simsec_per_wallsec\": 139.4, \"windows_per_op\": 2171, \"fences_per_op\": 1017}\n"
	printf "  },\n"
	printf "  \"current\": {\n"
	printf "    \"host\": \"%s\",\n", host
	for (i = 1; i <= n; i++) {
		name = order[i]
		printf "    \"%s\": {", name
		sep = ""
		if (name in ns)      { printf "%s\"ns_per_op\": %s", sep, ns[name]; sep = ", " }
		if (name in bytes)   { printf "%s\"bytes_per_op\": %s", sep, bytes[name]; sep = ", " }
		if (name in allocs)  { printf "%s\"allocs_per_op\": %s", sep, allocs[name]; sep = ", " }
		if (name in simsec)  { printf "%s\"simsec_per_wallsec\": %s", sep, simsec[name]; sep = ", " }
		if (name in windows) { printf "%s\"windows_per_op\": %s", sep, windows[name]; sep = ", " }
		if (name in fences)  { printf "%s\"fences_per_op\": %s", sep, fences[name]; sep = ", " }
		printf "}"
		printf (i < n) ? ",\n" : "\n"
	}
	printf "  }\n"
	printf "}\n"
}' "$RAW" > "$OUT"

awk -v benchtime="$BENCHTIME" '
/^BenchmarkEndToEnd/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	sub(/^BenchmarkEndToEnd/, "", name)
	for (i = 2; i < NF; i++) {
		if ($(i + 1) == "ns/op")           ns[name] = $i
		if ($(i + 1) == "B/op")            bytes[name] = $i
		if ($(i + 1) == "allocs/op")       allocs[name] = $i
		if ($(i + 1) == "simsec/wallsec")  simsec[name] = $i
	}
	if (!(name in seen)) { order[++n] = name; seen[name] = 1 }
}
END {
	printf "{\n"
	printf "  \"note\": \"end-to-end application benchmarks (2x8 wide-area, original variant); regenerate with scripts/bench.sh\",\n"
	printf "  \"benchtime\": \"%s\",\n", benchtime
	printf "  \"apps\": {\n"
	for (i = 1; i <= n; i++) {
		name = order[i]
		printf "    \"%s\": {", name
		sep = ""
		if (name in simsec) { printf "%s\"simsec_per_wallsec\": %s", sep, simsec[name]; sep = ", " }
		if (name in ns)     { printf "%s\"ns_per_op\": %s", sep, ns[name]; sep = ", " }
		if (name in bytes)  { printf "%s\"bytes_per_op\": %s", sep, bytes[name]; sep = ", " }
		if (name in allocs) { printf "%s\"allocs_per_op\": %s", sep, allocs[name]; sep = ", " }
		printf "}"
		printf (i < n) ? ",\n" : "\n"
	}
	printf "  }\n"
	printf "}\n"
}' "$RAW" > "$APPS_OUT"

echo "wrote $OUT and $APPS_OUT"
