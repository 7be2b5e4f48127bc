#!/usr/bin/env bash
# Paired benchmark of the working tree against an earlier revision.
#
#   scripts/bench_pair.sh <rev> <workload> [pairs] [seconds]
#
# <rev> is any git revision (the parent: HEAD, HEAD~1, a commit id);
# <workload> is a perfbench workload (scale, hot, readers, dist, live).
# `pairs` defaults to 5 and `seconds` (perfbench --seconds) to 20. The
# environment sets the rest: SEED (default 1) and TRACE (0, the default,
# for the end-to-end metrics; 1 for the per-layer ones).
#
# perfbench is built twice: from <rev>, exported with `git archive` into
# the ignored .bench_build/ (an export leaves no worktree registration
# behind in .git), and from the working tree. The two builds then run
# alternately, pair i running the parent first when i is odd and the
# change first when i is even, so drift in the host's speed falls on both
# sides alike. Every run must report `"correct": true`.
#
# The table gives, per metric, both sides' medians, the parent's
# interquartile range, the change/parent ratio of the medians, and in how
# many pairs the change was better (direction from BENCHMARK.json, ties
# counting for neither side). Raw result lines stay under
# .bench_build/runs/ for the record.
set -euo pipefail
cd "$(dirname "$0")/.."

usage="usage: scripts/bench_pair.sh <rev> <workload> [pairs] [seconds]"
rev=${1:?$usage}
workload=${2:?$usage}
pairs=${3:-5}
seconds=${4:-20}
seed=${SEED:-1}
trace=${TRACE:-0}
case "${pairs}${seconds}${seed}${trace}" in
    *[!0-9]*) echo "bench_pair: pairs, seconds, SEED and TRACE must be whole numbers" >&2; exit 1 ;;
esac

sha=$(git rev-parse --verify --quiet "${rev}^{commit}") || {
    echo "bench_pair: unknown revision ${rev}" >&2
    exit 1
}
root=.bench_build
src="${root}/src-${sha}"
if [ ! -d "${src}" ]; then
    rm -rf "${src}.partial"
    mkdir -p "${src}.partial"
    git archive "${sha}" | tar -x -C "${src}.partial"
    mv "${src}.partial" "${src}"
fi

echo "bench_pair: building perfbench at ${sha:0:12} and in the working tree" >&2
cargo build --release --quiet --offline --manifest-path "${src}/perfbench/Cargo.toml"
cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml
mkdir -p "${root}/bin" "${root}/runs"
cp "${src}/perfbench/target/release/perfbench" "${root}/bin/parent"
cp perfbench/target/release/perfbench "${root}/bin/change"

stamp=$(date -u +%Y%m%dT%H%M%SZ)
out="${root}/runs/${stamp}-${workload}-seed${seed}-trace${trace}.txt"
: > "${out}"
run() {
    local side=$1 pair=$2 line
    line=$("${root}/bin/${side}" --workload "${workload}" --seed "${seed}" \
        --seconds "${seconds}" --trace "${trace}" | tail -n 1)
    case "${line}" in
        *'"correct": true'*) ;;
        *) echo "bench_pair: ${side} run ${pair} failed its checks: ${line}" >&2; exit 1 ;;
    esac
    # One "<side> <pair> <metric> <value> <unit>" line per metric.
    printf '%s\n' "${line#*\"metrics\": \{}" |
        sed 's/}, "/}\n"/g' |
        sed -n 's/^"\([^"]*\)": {"value": \([^,]*\), "unit": "\([^"]*\)".*/\1 \2 \3/p' |
        while read -r name value unit; do
            echo "${side} ${pair} ${name} ${value} ${unit}"
        done >> "${out}"
}
for ((i = 1; i <= pairs; i++)); do
    echo "bench_pair: pair ${i}/${pairs}" >&2
    if ((i % 2 == 1)); then
        run parent "${i}"
        run change "${i}"
    else
        run change "${i}"
        run parent "${i}"
    fi
done

echo "workload ${workload}, seed ${seed}, trace ${trace}, ${pairs} pairs of ${seconds} s;" \
    "parent ${sha:0:12}, change = working tree; nproc $(nproc), $(rustc --version)"
# Metric directions: each "name" in BENCHMARK.json is followed by its "better".
awk '
    FNR == NR {
        if (match($0, /"name": *"[^"]*"/)) { split(substr($0, RSTART, RLENGTH), p, "\""); name = p[4] }
        if (match($0, /"better": *"[^"]*"/)) { split(substr($0, RSTART, RLENGTH), p, "\""); better[name] = p[4] }
        next
    }
    {
        key = $3
        if (!(key in seen)) { seen[key] = 1; order[++n] = key; unit[key] = $5 }
        v[$1, key, ++cnt[$1, key]] = $4
        val[$1, key, $2] = $4
    }
    function sorted(side, key, out,    i, j, m, t) {
        m = cnt[side, key]
        for (i = 1; i <= m; i++) out[i] = v[side, key, i] + 0
        for (i = 2; i <= m; i++) {
            t = out[i]
            for (j = i - 1; j >= 1 && out[j] > t; j--) out[j + 1] = out[j]
            out[j + 1] = t
        }
        return m
    }
    function quantile(xs, m, q,    h, lo) {
        h = (m - 1) * q + 1
        lo = int(h)
        return lo >= m ? xs[m] : xs[lo] + (h - lo) * (xs[lo + 1] - xs[lo])
    }
    END {
        printf "%-34s %-9s %14s %12s %14s %8s %6s\n", "metric", "unit", "parent_med", "parent_iqr", "change_med", "ratio", "wins"
        for (k = 1; k <= n; k++) {
            key = order[k]
            m = sorted("parent", key, ps)
            sorted("change", key, cs)
            pm = quantile(ps, m, 0.5)
            cm = quantile(cs, m, 0.5)
            iqr = quantile(ps, m, 0.75) - quantile(ps, m, 0.25)
            wins = 0
            for (i = 1; i <= m; i++) {
                a = val["parent", key, i] + 0
                b = val["change", key, i] + 0
                if ((better[key] == "higher" && b > a) || (better[key] == "lower" && b < a)) wins++
            }
            ratio = pm == 0 ? (cm == 0 ? "1" : "inf") : sprintf("%.4f", cm / pm)
            printf "%-34s %-9s %14.6g %12.6g %14.6g %8s %3d/%d\n", key, unit[key], pm, iqr, cm, ratio, wins, m
        }
    }
' BENCHMARK.json "${out}"
echo "raw results: ${out}"
