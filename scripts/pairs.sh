#!/usr/bin/env bash
# Alternating-pair comparison of two builds of the frozen benchmark binary.
#
# Usage: scripts/pairs.sh PARENT_BIN CHANGE_BIN WORKLOAD N
#
# Copies both binaries side by side first (a freshly written binary reads
# more `peak_rss_mb` than one that has sat in the page cache, so both must
# be equally fresh), then runs N pairs: pair i runs each binary once as a
# fresh process at `--seed i --seconds 10`, parent first in odd pairs and
# change first in even ones. For every end-to-end metric of BENCHMARK.json
# it prints both medians, change / parent, in how many pairs the change was
# better, the parent's inter-quartile range (IQR) as a share of its median,
# and whether the difference resolves (the medians differ by more than the
# parent's IQR). Raw JSON lines stay in the printed directory.
#
# Not run by check.sh: ten pairs of one workload take about four minutes.
set -euo pipefail

[ $# -eq 4 ] || { echo "usage: $0 PARENT_BIN CHANGE_BIN WORKLOAD N" >&2; exit 2; }
parent_src=$1 change_src=$2 workload=$3 n=$4
spec="$(dirname "$0")/../BENCHMARK.json"

dir=$(mktemp -d "${TMPDIR:-/tmp}/pairs.XXXXXX")
cp "$parent_src" "$dir/parent"
cp "$change_src" "$dir/change"

run() { # side seed
    "$dir/$1" --workload "$workload" --seed "$2" --seconds 10 | tail -n 1 >>"$dir/$1.jsonl"
}
for ((i = 1; i <= n; i++)); do
    if ((i % 2)); then run parent "$i"; run change "$i"; else run change "$i"; run parent "$i"; fi
done

echo "$workload: $n alternating pairs, --seed 1..$n --seconds 10 (raw: $dir)"
# Metric names and directions from BENCHMARK.json's end_to_end list, then
# one JSON line per run from each side, in seed order.
awk '
    FNR == 1 { file++ }
    file == 1 && /"end_to_end"/ { e2e = 1 }
    file == 1 && /"per_layer"/ { e2e = 0 }
    file == 1 && e2e && /"name"/ { split($0, q, "\""); names[++nm] = q[4] }
    file == 1 && e2e && /"better"/ { split($0, q, "\""); higher[nm] = (q[4] == "higher") }
    file > 1 {
        side = file - 1; runs[side]++
        match($0, /"failed": [0-9]+/); failed[side] += substr($0, RSTART + 10, RLENGTH - 10)
        for (m = 1; m <= nm; m++) {
            if (match($0, "\"" names[m] "\": \\{\"value\": [-0-9.eE+]+")) {
                s = substr($0, RSTART, RLENGTH); sub(/.*: /, "", s)
                v[side, m, runs[side]] = s + 0
            }
        }
    }
    # Quantile q of the k values a[1..k] (sorted here), linear interpolation.
    function quantile(a, k, q,    i, j, t, h, lo) {
        for (i = 2; i <= k; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]; a[j + 1] = t }
        h = (k - 1) * q + 1; lo = int(h)
        return lo >= k ? a[k] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
    }
    END {
        k = runs[1] < runs[2] ? runs[1] : runs[2]
        printf "%-14s %14s %14s %8s %6s %11s  %s\n", "metric", "parent", "change", "ratio", "wins", "parent IQR", "resolves"
        for (m = 1; m <= nm; m++) {
            wins = 0
            for (i = 1; i <= k; i++) {
                p[i] = v[1, m, i]; c[i] = v[2, m, i]
                if (higher[m] ? c[i] > p[i] : c[i] < p[i]) wins++
            }
            pm = quantile(p, k, 0.5); iqr = quantile(p, k, 0.75) - quantile(p, k, 0.25)
            cm = quantile(c, k, 0.5)
            d = cm - pm; if (d < 0) d = -d
            printf "%-14s %14.6g %14.6g %8.3f %3d/%-2d %10.1f%%  %s\n", names[m], pm, cm, \
                pm ? cm / pm : 0, wins, k, pm ? 100 * iqr / pm : 0, (d > iqr) ? "yes" : "no"
        }
        printf "failed ops: parent %d, change %d\n", failed[1], failed[2]
    }
' "$spec" "$dir/parent.jsonl" "$dir/change.jsonl"
