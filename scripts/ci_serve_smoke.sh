#!/usr/bin/env bash
# serve-smoke: drive `study serve` through the cache states that matter —
# cold miss, exact hit across separate server processes (also for a
# request that writes out its resolved defaults), warm superset splice,
# and same-stream in-flight dedup — asserting the streamed provenance of
# each. Separate invocations per request where a *disk*
# hit is the point: within one stream, identical requests dedupe to one
# backend run instead (the final invocation asserts exactly that).
#
# Usage: scripts/ci_serve_smoke.sh [target/release] [stats-out.json]
set -euo pipefail
cd "$(dirname "$0")/.."

BIN="${1:-target/release}"
STATS_OUT="${2:-serve_cache_stats.json}"
OUT="$(mktemp -d)"
trap 'rm -rf "$OUT"' EXIT
CACHE="$OUT/cache"
SERVE=("$BIN/study" serve --cache-dir "$CACHE" --quick --seed 42 --workers 2)

SUB='{"id":"r","spec":{"name":"smoke","stage":"load_curve","axes":{"kinds":["hexamesh"],"ns":[7],"rates":[0.08,0.16]}}}'
SUP='{"id":"r","spec":{"name":"smoke","stage":"load_curve","axes":{"kinds":["hexamesh"],"ns":[7],"rates":[0.08,0.16,0.24]}}}'
# SUB with its --quick windows written out: the same resolved study.
SPELLED='{"id":"r","spec":{"name":"smoke","stage":"load_curve","axes":{"kinds":["hexamesh"],"ns":[7],"rates":[0.08,0.16]},"schedule":{"warmup_cycles":1500,"measure_cycles":3000}}}'

expect() {
    local label="$1" stream="$2" pattern="$3"
    if ! grep -q "$pattern" "$stream"; then
        echo "serve-smoke: $label: expected $pattern in stream:" >&2
        cat "$stream" >&2
        exit 1
    fi
}

echo "== cold miss"
printf '%s\n' "$SUB" | "${SERVE[@]}" > "$OUT/cold.jsonl" 2> /dev/null
expect cold "$OUT/cold.jsonl" '"outcome":"miss"'
expect cold "$OUT/cold.jsonl" '"cells_run":2'

echo "== exact hit (new process, same cache)"
printf '%s\n' "$SUB" | "${SERVE[@]}" > "$OUT/hit.jsonl" 2> /dev/null
expect hit "$OUT/hit.jsonl" '"outcome":"hit"'
expect hit "$OUT/hit.jsonl" '"hits":1'

echo "== respelled defaults hit the same entry"
printf '%s\n' "$SPELLED" | "${SERVE[@]}" > "$OUT/spelled.jsonl" 2> /dev/null
expect spelled "$OUT/spelled.jsonl" '"outcome":"hit"'

echo "== warm superset (cached cells spliced, delta run)"
printf '%s\n' "$SUP" | "${SERVE[@]}" > "$OUT/warm.jsonl" 2> /dev/null
expect warm "$OUT/warm.jsonl" '"outcome":"warm"'
expect warm "$OUT/warm.jsonl" '"cells_cached":2'
expect warm "$OUT/warm.jsonl" '"cells_run":1'
expect warm "$OUT/warm.jsonl" '"warm_from"'

echo "== warm result replays as an exact hit"
printf '%s\n' "$SUP" | "${SERVE[@]}" > "$OUT/warm_hit.jsonl" 2> /dev/null
expect warm_hit "$OUT/warm_hit.jsonl" '"outcome":"hit"'

echo "== in-flight dedup (two identical requests, one stream, cold cache)"
printf '%s\n%s\n' "$SUB" "$SUB" | "$BIN/study" serve --cache-dir "$OUT/dedup_cache" \
    --quick --seed 42 --workers 2 --stats-out "$STATS_OUT" \
    > "$OUT/dedup.jsonl" 2> /dev/null
expect dedup "$STATS_OUT" '"requests":2'
expect dedup "$STATS_OUT" '"backend_runs":1'

echo "serve-smoke: cold/hit/warm/dedup provenance all as served ($STATS_OUT)"
