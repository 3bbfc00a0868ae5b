#!/bin/sh
# Compare every output of the reference run between the commit REF and the
# working tree: `scripts/reference_outputs.sh` runs once in a temporary git
# worktree of REF and once in the working tree, each on its own src/, and
# every file is compared with `cmp`. The worktree is removed afterwards.
# Exits 0 when all files are identical, 1 on any difference, 2 on a usage
# error or a REF that names no commit. Both sides run the working tree's
# copy of the script, so REF only needs a CLI that takes its commands.
#
#   sh scripts/compare_outputs.sh REF     # e.g. HEAD or main
#
# A scorer change should keep the outputs under OPENBLAS_NUM_THREADS=1 and
# under the default thread count: run it under both.
set -eu
[ $# -eq 1 ] || { echo "usage: $0 REF" >&2; exit 2; }
root=$(cd "$(dirname "$0")/.." && pwd)
git -C "$root" rev-parse --quiet --verify "$1^{commit}" > /dev/null ||
    { echo "$0: not a commit: $1" >&2; exit 2; }
tmp=$(mktemp -d)
cleanup() {
    git -C "$root" worktree remove --force "$tmp/ref" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT
git -C "$root" worktree add --quiet --detach "$tmp/ref" "$1"
mkdir -p "$tmp/ref/scripts"
cp "$root/scripts/reference_outputs.sh" "$tmp/ref/scripts/reference_outputs.sh"
sh "$tmp/ref/scripts/reference_outputs.sh" "$tmp/out-ref"
sh "$root/scripts/reference_outputs.sh" "$tmp/out-tree"
status=0
for f in "$tmp"/out-ref/*; do
    cmp "$f" "$tmp/out-tree/${f##*/}" || status=1
done
if [ "$status" -eq 0 ]; then
    echo "identical: $(ls "$tmp/out-ref" | wc -l) files"
fi
exit "$status"
