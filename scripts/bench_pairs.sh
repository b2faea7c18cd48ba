#!/usr/bin/env bash
# bench-pairs: alternating parent/change runs of one perfbench workload.
#
# Builds perfbench in both checkouts, then runs PAIRS pairs through
# BENCHMARK.json's command (`cargo run --release --offline --quiet
# --manifest-path perfbench/Cargo.toml`, from the checkout). Pair i runs
# seed FIRST_SEED + i on both sides, with --trace 0 and the run_seconds of
# BENCHMARK.json; the parent runs first in even pairs and the change in
# odd ones, so a drift of the host's speed does not favour one side.
# Prints one line per run, then for each end-to-end metric both sides'
# median and quartiles, the number of pairs in which the change read
# lower (ties count for neither), and a verdict against its BENCHMARK.json `bound`
# (a fraction of the parent median; every metric is lower-is-better),
# checked in this order:
#   worse          the change median exceeds the parent's by more than the bound;
#   unresolved     the parent's quartile spread is wider than the bound, unless
#                  every change run beats every parent run;
#   gain           the change is lower in at least 9 of 10 pairs, and its median
#                  by more than the parent's quartile spread;
#   no regression  anything else.
# Then prints on how many seeds both sides' `outputs sha256:` digests were
# equal, and names each seed where they differ (or one is missing): a
# change meant to keep every output byte-identical must match on every
# seed, pinned or not. Exits 1 if any run is not correct or has a failed
# operation; differing digests alone do not change the exit code.
#
# Usage: scripts/bench_pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD PAIRS FIRST_SEED
set -euo pipefail

if [ "$#" -ne 5 ]; then
    echo "usage: $0 PARENT_DIR CHANGE_DIR WORKLOAD PAIRS FIRST_SEED" >&2
    exit 2
fi
PARENT="$(cd "$1" && pwd)"
CHANGE="$(cd "$2" && pwd)"
WORKLOAD="$3"
PAIRS="$4"
FIRST_SEED="$5"
case "$PAIRS$FIRST_SEED" in
    *[!0-9]*) echo "$0: PAIRS and FIRST_SEED must be whole numbers" >&2; exit 2 ;;
esac

BENCHMARK="$(dirname "$0")/../BENCHMARK.json"
SECONDS_PER_RUN="$(grep -o '"run_seconds": *[0-9]*' "$BENCHMARK" | grep -o '[0-9]*$')"
METRICS=(setup_s run_s peak_heap_mb)
OUT="$(mktemp -d)"
trap 'rm -rf "$OUT"' EXIT

for dir in "$PARENT" "$CHANGE"; do
    echo "building perfbench in $dir" >&2
    (cd "$dir" && cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml)
done

# run SIDE DIR SEED: one run; appends "seed side metrics... correct failed
# digest" to $OUT/runs and prints it.
run() {
    local side="$1" dir="$2" seed="$3" report summary line metric value
    report="$( (cd "$dir" && cargo run --release --offline --quiet \
        --manifest-path perfbench/Cargo.toml -- --workload "$WORKLOAD" --seed "$seed" \
        --seconds "$SECONDS_PER_RUN" --trace 0) 2> "$OUT/stderr")" || true
    summary="$(printf '%s\n' "$report" | tail -n 1)"
    line="$seed $side"
    for metric in "${METRICS[@]}"; do
        value="$(printf '%s' "$summary" | grep -o "\"$metric\": {\"value\": [^,}]*" \
            | grep -o '[^ ]*$' || true)"
        line="$line ${value:-nan}"
    done
    value="$(printf '%s' "$summary" | grep -o '"correct": [a-z]*' | grep -o '[a-z]*$' || true)"
    line="$line ${value:-missing}"
    value="$(printf '%s' "$summary" | grep -o '"failed": [0-9]*' | grep -o '[0-9]*$' || true)"
    line="$line ${value:-missing}"
    if [ "${value:-missing}" = missing ]; then
        sed 's/^/    /' "$OUT/stderr" >&2
    fi
    value="$(printf '%s\n' "$report" | sed -n 's/^outputs sha256: //p')"
    line="$line ${value:-missing}"
    echo "$line" >> "$OUT/runs"
    echo "$line"
}

echo "seed side ${METRICS[*]} correct failed outputs_sha256"
for ((i = 0; i < PAIRS; i++)); do
    seed=$((FIRST_SEED + i))
    if ((i % 2 == 0)); then
        run parent "$PARENT" "$seed"
        run change "$CHANGE" "$seed"
    else
        run change "$CHANGE" "$seed"
        run parent "$PARENT" "$seed"
    fi
done

# bound METRIC: the metric's end-to-end bound in BENCHMARK.json.
bound() {
    awk -v name="\"$1\"" '
        index($0, "\"name\": " name) { inside = 1 }
        inside && /"bound":/ { gsub(/[^0-9.]/, "", $NF); print $NF; exit }
        inside && /}/ { exit }' "$BENCHMARK"
}

# Quartiles interpolate linearly between order statistics.
for ((m = 0; m < ${#METRICS[@]}; m++)); do
    awk -v col=$((m + 3)) -v name="${METRICS[$m]}" -v bound="$(bound "${METRICS[$m]}")" '
        function sort(a, n,    i, j, t) {
            for (i = 2; i <= n; i++)
                for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
        }
        function quantile(a, n, q,    h, lo) {
            h = (n - 1) * q + 1; lo = int(h)
            return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
        }
        function spread(side, a, n) {
            sort(a, n)
            return sprintf("%s median %.6g (quartiles %.6g-%.6g)", side,
                quantile(a, n, 0.5), quantile(a, n, 0.25), quantile(a, n, 0.75))
        }
        { v[$2, $1] = $col; seeds[$1] = 1 }
        END {
            for (s in seeds) {
                p[++n] = v["parent", s] + 0; c[n] = v["change", s] + 0
                if (c[n] < p[n]) lower++
            }
            printf "%s: %s; %s; change lower in %d of %d pairs\n", name,
                spread("parent", p, n), spread("change", c, n), lower, n
            # spread() sorted both sides: p[1] is the lowest parent run and
            # c[n] the highest change run.
            pm = quantile(p, n, 0.5); cm = quantile(c, n, 0.5)
            iqr = quantile(p, n, 0.75) - quantile(p, n, 0.25)
            if (cm > pm * (1 + bound)) verdict = "worse"
            else if (iqr > pm * bound && c[n] >= p[1]) verdict = "unresolved"
            else if (lower * 10 >= n * 9 && pm - cm > iqr) verdict = "gain"
            else verdict = "no regression"
            printf "%s: %s (bound %g of the parent median)\n", name, verdict, bound
        }' "$OUT/runs"
done

awk '
    !($1 in digest) { order[++n] = $1 }
    { digest[$1] = digest[$1] " " $NF; sides[$1]++ }
    END {
        for (i = 1; i <= n; i++) {
            split(digest[order[i]], d, " ")
            if (sides[order[i]] == 2 && d[1] == d[2] && d[1] != "missing") equal++
            else differ = differ " " order[i]
        }
        printf "outputs: parent and change digests equal on %d of %d seeds\n", equal, n
        if (differ != "") printf "outputs: digests differ on seeds%s\n", differ
    }' "$OUT/runs"

if awk '$(NF - 2) != "true" || $(NF - 1) != "0" { bad = 1 } END { exit !bad }' "$OUT/runs"; then
    echo "bench-pairs: a run was not correct or had failed operations" >&2
    exit 1
fi
