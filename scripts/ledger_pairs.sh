#!/usr/bin/env bash
# Alternating ledger pairs: the benchmark ledger (ledger/, BENCHMARK.json)
# built from a parent revision against the one built from this checkout's
# working tree, on one workload.
#
#   scripts/ledger_pairs.sh <parent-rev> <workload> <pairs> <seconds>
#
#   scripts/ledger_pairs.sh HEAD~1 cycle_tft 10 15
#
# The parent is checked out as a detached git worktree under
# target/ledger-pairs/ (removed again on exit) and both ledgers are built
# there (`--release --offline`, their own target directories), so nothing
# under ledger/ is written but the lockfile cargo rewrites, which is put
# back byte for byte. The pairs then run from the repository root, one
# workload per process with `--trace 0`, the order swapped every pair
# (parent first in odd pairs, change first in even ones) so a host that
# drifts in speed does not favour one side. Printed: each pair's five
# end-to-end metrics and the output digests, then per metric the two
# medians, the change in per cent, and how many pairs favour the change
# (the direction is each metric's `better` in BENCHMARK.json). A digest
# that differs between the two builds is printed as such; the script
# exits non-zero if either ledger fails or prints no result.
set -euo pipefail

if [ "$#" -ne 4 ]; then
    echo "usage: $0 <parent-rev> <workload> <pairs> <seconds>" >&2
    exit 2
fi
rev=$1 workload=$2 pairs=$3 seconds=$4
case $pairs$seconds in *[!0-9]*) echo "pairs and seconds are whole numbers" >&2; exit 2 ;; esac

root=$(git rev-parse --show-toplevel)
cd "$root"
parent=$(git rev-parse --verify --short "$rev^{commit}")
work=$root/target/ledger-pairs
tree=$work/parent-tree
mkdir -p "$work"

lock=ledger/Cargo.lock
lock_copy=$(mktemp)
cp "$lock" "$lock_copy"
cleanup() {
    cmp -s "$lock_copy" "$lock" || cp "$lock_copy" "$lock"
    rm -f "$lock_copy"
    if [ -d "$tree" ]; then
        git worktree remove --force "$tree" || true
    fi
}
trap cleanup EXIT

# name:better pairs of the end-to-end metrics, from BENCHMARK.json.
metrics=$(tr -d '\n ' < BENCHMARK.json | grep -o '"end_to_end":\[[^]]*\]' \
    | grep -o '"name":"[^"]*","unit":"[^"]*","better":"[^"]*"' \
    | sed 's/"name":"\([^"]*\)".*"better":"\([^"]*\)"/\1:\2/')
[ -n "$metrics" ] || { echo "no end_to_end metrics in BENCHMARK.json" >&2; exit 1; }

build() { # <source dir> <target dir> <binary out>
    (cd "$1" && CARGO_TARGET_DIR=$2 cargo build --release --offline --quiet \
        --manifest-path ledger/Cargo.toml)
    cp "$2/release/rpas-ledger" "$3"
}

echo "building the ledger at $parent (parent) and at the working tree (change)"
git worktree remove --force "$tree" 2>/dev/null || true
git worktree add --quiet --detach "$tree" "$parent"
build "$tree" "$work/parent-target" "$work/rpas-ledger-parent"
git worktree remove --force "$tree"
build "$root" "$work/change-target" "$work/rpas-ledger-change"
cmp -s "$lock_copy" "$lock" || cp "$lock_copy" "$lock"

# One run; prints "<digest> <metric>=<value> ..." on one line.
run() { # <binary>
    local out info result digest line
    out=$("$1" --workload "$workload" --seconds "$seconds" --trace 0) || {
        echo "$1 failed on $workload" >&2
        return 1
    }
    info=$(printf '%s\n' "$out" | grep '^{"info"' | tail -n 1)
    result=$(printf '%s\n' "$out" | tail -n 1)
    case $result in *'"metrics"'*) ;; *) echo "$1 printed no result" >&2; return 1 ;; esac
    digest=$(printf '%s' "$info" | grep -o '"digest": "[^"]*"' | cut -d'"' -f4)
    line=${digest:-none}
    for m in $metrics; do
        name=${m%%:*}
        value=$(printf '%s' "$result" | grep -o "\"$name\": {\"value\": [^,}]*" | sed 's/.*: //')
        line="$line $name=${value:-nan}"
    done
    echo "$line"
}

results=$work/pairs.txt
: > "$results"
echo "$workload: $pairs pairs of $seconds s, parent $parent against the working tree"
for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then
        p=$(run "$work/rpas-ledger-parent"); c=$(run "$work/rpas-ledger-change"); first=parent
    else
        c=$(run "$work/rpas-ledger-change"); p=$(run "$work/rpas-ledger-parent"); first=change
    fi
    echo "$i $p | $c" >> "$results"
    printf 'pair %d (%s first): digest %s -> %s\n' "$i" "$first" "${p%% *}" "${c%% *}"
    for m in $metrics; do
        name=${m%%:*}
        pv=$(printf '%s\n' "$p" | tr ' ' '\n' | grep "^$name=" | cut -d= -f2)
        cv=$(printf '%s\n' "$c" | tr ' ' '\n' | grep "^$name=" | cut -d= -f2)
        printf '    %-12s %12s -> %s\n' "$name" "$pv" "$cv"
    done
done

echo
printf '%-12s %-7s %12s %12s %9s  %s\n' metric better parent change change% favour-change
for m in $metrics; do
    name=${m%%:*} better=${m##*:}
    awk -v name="$name" -v better="$better" '
        function median(a, n,    i, j, t) {
            for (i = 2; i <= n; i++) for (j = i; j > 1 && a[j - 1] > a[j]; j--) {
                t = a[j]; a[j] = a[j - 1]; a[j - 1] = t
            }
            return n % 2 ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2
        }
        {
            side = 0
            for (f = 2; f <= NF; f++) {
                if ($f == "|") { side = 1; continue }
                split($f, kv, "=")
                if (kv[1] == name) { if (side) c[NR] = kv[2]; else p[NR] = kv[2] }
            }
            n = NR
            if (better == "lower" ? c[NR] + 0 < p[NR] + 0 : c[NR] + 0 > p[NR] + 0) wins++
        }
        END {
            for (i = 1; i <= n; i++) { ps[i] = p[i] + 0; cs[i] = c[i] + 0 }
            mp = median(ps, n); mc = median(cs, n)
            pct = mp != 0 ? 100 * (mc - mp) / mp : 0
            printf "%-12s %-7s %12.6g %12.6g %+8.1f%%  %d/%d\n", name, better, mp, mc, pct, wins, n
        }' "$results"
done
digests=$(awk '{print $2, $(NF/2 + 2)}' "$results" | sort -u)
if [ "$(printf '%s\n' "$digests" | awk '$1 != $2' | wc -l)" -ne 0 ]; then
    echo "DIGESTS DIFFER (parent change): $(printf '%s\n' "$digests" | tr '\n' ';')"
fi
