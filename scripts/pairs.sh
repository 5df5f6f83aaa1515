#!/usr/bin/env bash
# Alternating A/B pairs of one perf-ledger workload: a parent checkout
# against a changed one, one pair per seed, so a slow spell of a shared
# box lands on both sides of a pair instead of on one side of a batch.
#
#   scripts/pairs.sh [--dry-run] [--seconds S] PARENT_DIR CHANGE_DIR WORKLOAD SEED...
#
# Pair k (counted from 0) runs the parent first when k is even and the
# change first when it is odd. Each checkout builds its own source into
# its own target directory (DIR/.bench_build) through its own
# benchmark/run.sh; the benchmark/Cargo.lock a build may rewrite is put
# back after every run, and nothing else in either checkout is written
# but benchmark/out/. Each run is `--trace 0` for S seconds (default 10).
#
# Prints one line per pair — tokens_per_s, step_ms_p50 and setup_s of
# each side, and the host's CPU steal share over each side's run — then,
# per metric, the median over each side's runs with its quartiles, the
# median pair ratio (change / parent) and the pairs the change won: the
# columns of the EXPERIMENTS.md pair tables. The steal share of a run is
# Δsteal ÷ Δtotal of the aggregate `cpu` line of /proc/stat read before
# and after it, in percent: time the hypervisor gave this machine's
# virtual CPUs to someone else. A pair whose two sides' shares differ by
# more than 5 points is marked `steal`: a slow spell of the host fell on
# one side, and the pair says little. A run that fails its correctness
# check stops the script. --dry-run prints the first two pairs' commands
# and builds nothing.
set -euo pipefail

dry=0
seconds=10
while [ $# -gt 0 ]; do
    case "$1" in
        --dry-run) dry=1; shift ;;
        --seconds) seconds="$2"; shift 2 ;;
        *) break ;;
    esac
done
if [ $# -lt 4 ]; then
    echo "usage: $0 [--dry-run] [--seconds S] PARENT_DIR CHANGE_DIR WORKLOAD SEED..." >&2
    exit 2
fi
parent="$1" change="$2" workload="$3"
shift 3

# The command one side runs for one seed.
command_for() { # dir seed
    echo "cd $1 && CARGO_TARGET_DIR=$1/.bench_build bash benchmark/run.sh" \
        "--workload $workload --seed $2 --seconds $seconds --trace 0"
}

if [ "$dry" = 1 ]; then
    k=0
    for seed in "$@"; do
        [ "$k" -lt 2 ] || break
        if [ $((k % 2)) = 0 ]; then first="$parent" second="$change"; else first="$change" second="$parent"; fi
        echo "# pair $k, seed $seed"
        command_for "$first" "$seed"
        command_for "$second" "$seed"
        k=$((k + 1))
    done
    exit 0
fi

for dir in "$parent" "$change"; do
    [ -f "$dir/benchmark/run.sh" ] || { echo "$dir: no benchmark/run.sh" >&2; exit 2; }
done
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
cp "$parent/benchmark/Cargo.lock" "$work/parent.lock"
cp "$change/benchmark/Cargo.lock" "$work/change.lock"

# The aggregate cpu line of /proc/stat as "steal total", in clock ticks:
# total is user + nice + system + idle + iowait + irq + softirq + steal
# (guest time is already counted in user and nice).
cpu_ticks() {
    awk '$1 == "cpu" { print $9, $2 + $3 + $4 + $5 + $6 + $7 + $8 + $9; exit }' /proc/stat
}

# One run of `side` (parent or change) at `seed`: its three metrics and
# the run's steal share on stdout, "tokens_per_s step_ms_p50 setup_s
# steal_percent".
run_side() { # side seed
    local dir
    if [ "$1" = parent ]; then dir="$parent"; else dir="$change"; fi
    local out="$work/$1.$2.out" status=0 before after
    before="$(cpu_ticks)"
    (cd "$dir" && CARGO_TARGET_DIR="$dir/.bench_build" bash benchmark/run.sh \
        --workload "$workload" --seed "$2" --seconds "$seconds" --trace 0) >"$out" 2>"$out.err" \
        || status=$?
    after="$(cpu_ticks)"
    cp "$work/$1.lock" "$dir/benchmark/Cargo.lock"
    local last
    last="$(tail -n 1 "$out")"
    if [ "$status" != 0 ] || ! grep -q '"correct": true' <<<"$last"; then
        echo "$1 seed $2 failed (exit $status):" >&2
        tail -n 5 "$out.err" "$out" >&2
        exit 1
    fi
    local metric values=""
    for metric in tokens_per_s step_ms_p50 setup_s; do
        values="$values $(sed -n "s/.*\"$metric\": {\"value\": \([^,}]*\).*/\1/p" <<<"$last")"
    done
    echo "$values $(awk -v b="$before" -v a="$after" 'BEGIN {
        split(b, x, " "); split(a, y, " ")
        print (y[2] > x[2] ? 100 * (y[1] - x[1]) / (y[2] - x[2]) : 0)
    }')"
}

printf '%-5s %-8s %-7s %12s %12s %10s %10s %9s %9s %9s %9s\n' pair seed first \
    tok_parent tok_change step_parent step_change setup_par setup_chg steal%_par steal%_chg
rows="$work/rows"
k=0
for seed in "$@"; do
    if [ $((k % 2)) = 0 ]; then order="parent change"; else order="change parent"; fi
    for side in $order; do
        values="$(run_side "$side" "$seed")"
        read -r tok step setup steal <<<"$values"
        eval "${side}_tok=$tok ${side}_step=$step ${side}_setup=$setup ${side}_steal=$steal"
    done
    mark="$(awk -v p="$parent_steal" -v c="$change_steal" 'BEGIN { d = p - c; print (d > 5 || d < -5 ? "steal" : "") }')"
    printf '%-5s %-8s %-7s %12.1f %12.1f %10.2f %10.2f %9.3f %9.3f %9.1f %9.1f %s\n' "$k" "$seed" \
        "${order%% *}" "$parent_tok" "$change_tok" "$parent_step" "$change_step" "$parent_setup" \
        "$change_setup" "$parent_steal" "$change_steal" "$mark"
    echo "$parent_tok $change_tok $parent_step $change_step $parent_setup $change_setup" >>"$rows"
    k=$((k + 1))
done

# Per metric: each side's median [quartiles], the median pair ratio and
# the pairs the change won (higher is better for tokens_per_s only).
summarize() { # name parent_column change_column higher_is_better
    awk -v name="$1" -v p="$2" -v c="$3" -v up="$4" '
        function sorted_quantile(a, n, q,    pos, lo) {
            pos = q * (n - 1); lo = int(pos)
            return lo + 1 < n ? a[lo] + (pos - lo) * (a[lo + 1] - a[lo]) : a[lo]
        }
        function sort_in_place(a, n,    i, j, t) {
            for (i = 1; i < n; i++)
                for (j = i; j > 0 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
        }
        BEGIN { n = 0 }
        {
            pv[n] = $p; cv[n] = $c; r[n] = $c / $p
            won += up ? ($c > $p) : ($c < $p)
            n++
        }
        END {
            sort_in_place(pv, n); sort_in_place(cv, n); sort_in_place(r, n)
            printf "%-13s parent %.4g [%.4g, %.4g]  change %.4g [%.4g, %.4g]  median pair ratio %.3f  won %d/%d\n",
                name, sorted_quantile(pv, n, 0.5), sorted_quantile(pv, n, 0.25), sorted_quantile(pv, n, 0.75),
                sorted_quantile(cv, n, 0.5), sorted_quantile(cv, n, 0.25), sorted_quantile(cv, n, 0.75),
                sorted_quantile(r, n, 0.5), won, n
        }' "$rows"
}
echo "$workload, $k pairs, $seconds s each:"
summarize tokens_per_s 1 2 1
summarize step_ms_p50 3 4 0
summarize setup_s 5 6 0
