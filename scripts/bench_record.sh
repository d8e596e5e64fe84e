#!/usr/bin/env bash
# Append one PR's entry to the host-time ledger, BENCH_history.json.
#
# Usage: scripts/bench_record.sh PR COMMIT PAIRS_OUT...
#
# Each PAIRS_OUT is the saved stdout of one `scripts/pairs.sh PARENT_BIN
# CHANGE_BIN WORKLOAD N` run (one per workload). The entry holds, per
# workload and end-to-end metric, change / parent, the change's wins and the
# parent's IQR as a share of its median (absolute medians drift x2 between
# days, so only the pair ratios are kept); the failed-op counts; the six
# virt_digests of scripts/golden_virt_digests.txt (check.sh holds the tree
# to them); and SCORECARD.md's mean |error| over its scored rows and its
# worst signed error. The ledger is a JSON array, one entry per line.
#
# Run by hand once per PR, after the pairs. check.sh never appends to it.
set -euo pipefail

[ $# -ge 3 ] || { echo "usage: $0 PR COMMIT PAIRS_OUT..." >&2; exit 2; }
pr=$1 commit=$2
shift 2
root="$(dirname "$0")/.."
hist="$root/BENCH_history.json"

workloads=$(awk '
    FNR == 1 {
        if (w != "") printf "%s}, ", out
        w = $1; sub(/:$/, "", w); seeds = $6
        out = sprintf("\"%s\": {", w); sep = ""
    }
    $2 ~ /^[0-9.e+-]+$/ && $5 ~ /\// {
        split($5, wins, "/"); iqr = $6; sub(/%$/, "", iqr)
        out = out sprintf("%s\"%s\": {\"ratio\": %s, \"wins\": %d, \"parent_iqr_pct\": %s}", sep, $1, $4, wins[1], iqr)
        sep = ", "
    }
    /^failed ops:/ { p = $4; sub(/,$/, "", p); out = out sprintf(", \"failed\": {\"parent\": %d, \"change\": %d}", p, $6) }
    END { printf "%s}\t%s", out, seeds }
' "$@")
seeds=${workloads##*$'\t'}
workloads=${workloads%$'\t'*}

digests=$(awk '{ printf "%s\"%s\": \"%s\"", (NR > 1 ? ", " : ""), $1, $2 }' "$root/scripts/golden_virt_digests.txt")

# Scored rows: | `id` | locator | paper | measured | error | frozen |
scorecard=$(awk -F' [|] ' '
    /^\| `/ && $5 ~ /%$/ {
        e = $5; sub(/ %$/, "", e); e += 0; a = (e < 0 ? -e : e); n++; sum += a
        if (n == 1 || a > (worst < 0 ? -worst : worst)) { worst = e; id = $1 }
    }
    END {
        sub(/^\| `/, "", id); sub(/`$/, "", id)
        printf "\"rows\": %d, \"mean_abs_err_pct\": %.1f, \"worst\": {\"id\": \"%s\", \"err_pct\": %.1f}", n, sum / n, id, worst
    }
' "$root/SCORECARD.md")

entry="{\"pr\": $pr, \"commit\": \"$commit\", \"nproc\": $(nproc), \"seeds\": \"$seeds\", \"workloads\": {$workloads}, \"digests\": {$digests}, \"scorecard\": {$scorecard}}"

if [ -s "$hist" ]; then
    # Drop the closing bracket, end the last entry with a comma.
    sed -i -e '$d' "$hist"
    sed -i -e '$s/$/,/' "$hist"
else
    echo '[' >"$hist"
fi
printf '%s\n]\n' "$entry" >>"$hist"
echo "appended PR $pr ($commit) to $hist"
