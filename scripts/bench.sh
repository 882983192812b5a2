#!/usr/bin/env bash
# Runs the tracked search-core benchmark suite (BenchmarkSearchCore) and
# writes BENCH_search.json: ns/op, B/op, allocs/op and tasks/s per
# sub-benchmark. The committed BENCH_search.json at the repo root is the
# baseline the CI bench-regression job compares against (scripts/benchcmp).
#
# Usage: scripts/bench.sh [output.json]
#   BENCHTIME=2s COUNT=3 scripts/bench.sh   # longer / repeated runs
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_search.json}"
TMP="$(mktemp)"
trap 'rm -f "$TMP"' EXIT

go test -run '^$' -bench BenchmarkSearchCore -benchmem \
    -benchtime "${BENCHTIME:-1s}" -count "${COUNT:-1}" \
    ./internal/search/ | tee "$TMP"

go run ./scripts/benchjson <"$TMP" >"$OUT"
echo "wrote $OUT"
