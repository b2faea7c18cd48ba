#!/usr/bin/env bash
# study-vs-golden: run every checked-in preset spec through
# `study --spec … --quick` and compare each CSV it writes, byte for byte,
# with the golden fixture under crates/bench/tests/golden/ (the output of
# the pre-redesign binaries at the same flags). The golden tests pin the
# same studies through the library; this pins the binary's spec-loading
# path to them too.
#
# Those fixtures all run at --seeds 1, in default axis order, without
# searched (OPT) rows. The `cells` cases at the end pin the paths they
# miss, from fixtures under golden/cells/: replicate averaging, OPT
# seeds, the resilience degradation table, router makespan columns, the
# observability timeline and heatmaps, non-default axis orders, and the
# Fig. 6 proxies.
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

# Replicate cells (see the header): each case runs at --seeds 2 unless
# it pins an observability artefact or a seedless stage, with fixtures
# under $GOLDEN/cells/CASE/.
CELLS=(--quick --seed 42 --workers 2 --format csv)

# cells CASE "FILES..." FLAGS...: run study with FLAGS, then compare each
# of FILES with its fixture under $GOLDEN/cells/CASE/.
cells() {
    local case="$1" files="$2"
    shift 2
    echo "== cells/$case"
    "$BIN/study" "$@" "${CELLS[@]}" --out "$OUT/cells/$case" > /dev/null
    for f in $files; do
        cmp "$OUT/cells/$case/$f" "$GOLDEN/cells/$case/$f"
        echo "   $f identical"
    done
}

S=examples/specs
cells fig7_quick "fig7_results.csv fig7_normalized.csv" --spec $S/fig7_quick.toml --seeds 2
cells load_curves_quick load_curves.csv --spec $S/load_curves_quick.toml --seeds 2
cells ablation_traffic_quick ablation_traffic.csv --spec $S/ablation_traffic_quick.toml --seeds 2
cells ablation_router_quick ablation_router.csv --spec $S/ablation_router_quick.toml --seeds 2
cells workload_quick BENCH_workload.csv --spec $S/workload_quick.toml --seeds 2
cells kite_quick kite_comparison.csv --spec $S/kite_quick.toml --seeds 2
cells thermal_quick thermal_comparison.csv --spec $S/thermal_quick.toml --seeds 2
cells resilience_quick "resilience.csv BENCH_resilience.csv" \
    --spec $S/resilience_quick.toml --seeds 2
cells opt_hotspot_load_curve opt_hotspot_curves.csv \
    --spec $S/opt_hotspot_load_curve.toml --seeds 2
cells workload_opt BENCH_workload.csv --preset workload_comparison --kinds hexamesh,grid \
    --ns 7 --workloads stencil,ring_allreduce --optimized --restarts 2 --iterations 60 --seeds 2
cells router_fidelity BENCH_router.csv --preset router_fidelity --kinds hexamesh,grid --ns 7 \
    --routers baseline,fortified --workloads stencil --seeds 2
cells netview "netview.csv timeline.csv heatmap_hexamesh_n19_r300_uniform.svg \
    heatmap_grid_n19_r300_uniform.svg" --preset netview
cells ablation_traffic_axes ablation_traffic.csv --preset ablation_traffic \
    --kinds hexamesh,grid,brickwall --ns 7,9 --patterns uniform,tornado,hotspot:4:500 --seeds 2
cells load_curves_axes load_curves.csv --preset load_curves --kinds hexamesh,grid --ns 7,9 \
    --rates 0.1,0.3 --patterns uniform,tornado --seeds 2
cells fig7_axes "fig7_results.csv fig7_normalized.csv" --preset fig7_simulation \
    --kinds hexamesh,grid,brickwall --ns 4,7 --seeds 2
cells proxies proxies.csv --preset proxies

echo "study-vs-golden: every preset spec matches its golden fixture"
