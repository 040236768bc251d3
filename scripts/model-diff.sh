#!/usr/bin/env bash
# Compare the modeled output of `repro` and `perfbench` at a git
# revision with the working tree.
#
#   scripts/model-diff.sh <rev>
#
# Extracts <rev> with `git archive` into a temporary directory (no
# worktree is created and the checkout is not touched) and builds
# `repro` and `perfbench` there and in the working tree. Then:
#
# 1. runs every deterministic `repro` part with `--model-only` on both
#    sides and prints a unified diff of their stdout;
# 2. runs the four perfbench workloads on both sides at `--seed 7
#    --seconds 1 --trace 0` and diffs `correct`, `failed`,
#    `modeled_ops_per_s` and `modeled_req_p50_ms`, each float printed
#    in full (Python's repr).
#
# Both parts run even when the first differs. Exits 0 when both are
# identical, 1 when either differs and 2 on a usage or build error.
#
# table1, table2, multicore and ddcost print measured host columns, so
# they are left out, as are perfbench's host-clock metrics. The
# temporary directory honours TMPDIR; the working tree's perfbench
# builds into perfbench/target, as the benchmark's own runs do.
set -euo pipefail

parts="cluster session solve newton syshard chaos trace serve sparse capacity counts ablate-cf ablate-layout dims batch"
workloads="eval-table1 solve-small solve-dim32 serve-mix"

if [ $# -ne 1 ]; then
    echo "usage: $0 <rev>" >&2
    exit 2
fi
rev=$1
root=$(git rev-parse --show-toplevel)
if ! git -C "$root" rev-parse --verify --quiet "$rev^{commit}" >/dev/null; then
    echo "unknown revision: $rev" >&2
    exit 2
fi

tmp=$(mktemp -d "${TMPDIR:-/tmp}/model-diff.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/src"
git -C "$root" archive "$rev" | tar -x -C "$tmp/src"

# build <source dir> <repro target dir> <perfbench target dir>
build() {
    cargo build --release --offline --quiet -p polygpu-bench --bin repro \
        --manifest-path "$1/Cargo.toml" --target-dir "$2" || exit 2
    cargo build --release --offline --quiet \
        --manifest-path "$1/perfbench/Cargo.toml" --target-dir "$3" || exit 2
}
build "$tmp/src" "$tmp/target" "$tmp/perfbench-target"
build "$root" "$root/target" "$root/perfbench/target"

run() {
    local repro=$1
    for part in $parts; do
        echo "=== repro $part --model-only"
        "$repro" "$part" --model-only 2>/dev/null || echo "=== exit status $?"
    done
}
run "$tmp/target/release/repro" >"$tmp/rev.txt"
run "$root/target/release/repro" >"$tmp/tree.txt"

# perf <source dir> <perfbench binary>: one line of modeled figures per
# workload, run from the source it was built from.
perf() {
    local out
    for w in $workloads; do
        if out=$(cd "$1" && "$2" --workload "$w" --seed 7 --seconds 1 --trace 0 2>/dev/null); then
            tail -n 1 <<<"$out" | python3 -c '
import json, sys
r = json.load(sys.stdin)
m = r["metrics"]
print("%s: correct %r failed %r modeled_ops_per_s %r modeled_req_p50_ms %r" % (
    sys.argv[1], r["correct"], r["failed"],
    m["modeled_ops_per_s"]["value"], m["modeled_req_p50_ms"]["value"]))
' "$w"
        else
            echo "$w: exit status $?"
        fi
    done
}
perf "$tmp/src" "$tmp/perfbench-target/release/perfbench" >"$tmp/rev-perf.txt"
perf "$root" "$root/perfbench/target/release/perfbench" >"$tmp/tree-perf.txt"

status=0
if diff -u --label "$rev" --label "working tree" "$tmp/rev.txt" "$tmp/tree.txt"; then
    echo "model output identical to $rev"
else
    status=1
fi
if diff -u --label "$rev perfbench" --label "working tree perfbench" \
    "$tmp/rev-perf.txt" "$tmp/tree-perf.txt"; then
    echo "perfbench modeled metrics identical to $rev"
else
    status=1
fi
exit $status
