#!/usr/bin/env bash
# study-vs-golden: run every checked-in preset spec through
# `study --spec … --quick` and compare each CSV it writes, byte for byte,
# with the golden fixture under crates/bench/tests/golden/ (the output of
# the pre-redesign binaries at the same flags). The golden tests pin the
# same studies through the library; this pins the binary's spec-loading
# path to them too.
#
# Usage: scripts/ci_study_diff.sh [target/release]
set -euo pipefail
cd "$(dirname "$0")/.."

BIN="${1:-target/release}"
GOLDEN=crates/bench/tests/golden
OUT="$(mktemp -d)"
trap 'rm -rf "$OUT"' EXIT
SHARED=(--quick --seed 42 --workers 2 --format both)

# check SPEC FIXTURE...: run examples/specs/SPEC, then compare the CSV
# named like each FIXTURE (a path under $GOLDEN) with that fixture.
check() {
    local spec="$1"
    shift
    echo "== $spec"
    "$BIN/study" --spec "examples/specs/$spec" "${SHARED[@]}" --out "$OUT/$spec" > /dev/null
    for fixture in "$@"; do
        cmp "$OUT/$spec/$(basename "$fixture")" "$GOLDEN/$fixture"
        echo "   $(basename "$fixture") identical"
    done
}

check fig7_quick.toml fig7/fig7_results.csv fig7/fig7_normalized.csv
check load_curves_quick.toml load_curves/load_curves.csv
check ablation_traffic_quick.toml ablation_traffic/ablation_traffic.csv
check ablation_router_quick.toml ablation_router/ablation_router.csv
check workload_quick.toml workload/BENCH_workload.csv
check kite_quick.toml kite/kite_comparison.csv
check arrangement_search_quick.toml arrange/BENCH_arrange.csv
check thermal_quick.toml thermal_comparison.csv
check cost_model.toml cost_model.csv
# Only the structural table has a fixture; the golden test covers the
# shape of the degradation companion.
check resilience_quick.toml resilience/resilience.csv

# An axis combination no fixture covers: runs end to end purely from
# data (no comparison target by construction).
echo "== opt_hotspot_load_curve.toml (spec-only)"
"$BIN/study" --spec examples/specs/opt_hotspot_load_curve.toml "${SHARED[@]}" \
    --out "$OUT/spec_opt" > /dev/null
grep -q ",OPT," "$OUT/spec_opt/opt_hotspot_curves.csv"
echo "   searched-arrangement rows present"

echo "study-vs-golden: every preset spec matches its golden fixture"
