#!/usr/bin/env bash
# Compare the modeled output of `repro` at a git revision with the
# working tree.
#
#   scripts/model-diff.sh <rev>
#
# Extracts <rev> with `git archive` into a temporary directory (no
# worktree is created and the checkout is not touched), builds `repro`
# there and in the working tree, runs every deterministic part with
# `--model-only` on both, and prints a unified diff of their stdout.
# Exits 0 when the outputs are byte-identical, 1 when they differ and
# 2 on a usage or build error.
#
# table1, table2, multicore and ddcost print measured host columns, so
# they are left out. The temporary directory honours TMPDIR.
set -euo pipefail

parts="cluster session solve newton syshard chaos trace serve sparse capacity counts ablate-cf ablate-layout dims batch"

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

build() {
    cargo build --release --offline --quiet -p polygpu-bench --bin repro \
        --manifest-path "$1/Cargo.toml" --target-dir "$2" || exit 2
}
build "$tmp/src" "$tmp/target"
build "$root" "$root/target"

run() {
    local repro=$1
    for part in $parts; do
        echo "=== repro $part --model-only"
        "$repro" "$part" --model-only 2>/dev/null || echo "=== exit status $?"
    done
}
run "$tmp/target/release/repro" >"$tmp/rev.txt"
run "$root/target/release/repro" >"$tmp/tree.txt"

if diff -u --label "$rev" --label "working tree" "$tmp/rev.txt" "$tmp/tree.txt"; then
    echo "model output identical to $rev"
else
    exit 1
fi
