#!/bin/sh
# Compare every output of the reference run between the commit REF and the
# working tree: `scripts/reference_outputs.sh` runs on a `git archive` copy
# of REF and on the working tree, each on its own src/, and every file is
# compared with `cmp`. Both run once under OPENBLAS_NUM_THREADS=1 and once
# under BLAS's default thread count, and each side is compared with the
# other under the same count. The copy is removed afterwards. Exits 0 when
# all files are identical, 1 on any difference, 2 on a usage error or a REF
# that names no commit. Both sides run the working tree's copy of the
# script, so REF only needs a CLI that takes its commands.
#
#   sh scripts/compare_outputs.sh REF     # e.g. HEAD or main
set -eu
[ $# -eq 1 ] || { echo "usage: $0 REF" >&2; exit 2; }
root=$(cd "$(dirname "$0")/.." && pwd)
git -C "$root" rev-parse --quiet --verify "$1^{commit}" > /dev/null ||
    { echo "$0: not a commit: $1" >&2; exit 2; }
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/ref"
git -C "$root" archive "$1" | tar -x -C "$tmp/ref"
mkdir -p "$tmp/ref/scripts"
cp "$root/scripts/reference_outputs.sh" "$tmp/ref/scripts/reference_outputs.sh"
status=0
# $1 names the run; the rest is the environment change `env` makes for it
compare() {
    name=$1
    shift
    env "$@" sh "$tmp/ref/scripts/reference_outputs.sh" "$tmp/ref-$name"
    env "$@" sh "$root/scripts/reference_outputs.sh" "$tmp/tree-$name"
    for f in "$tmp/ref-$name"/*; do
        cmp "$f" "$tmp/tree-$name/${f##*/}" || status=1
    done
    echo "$name: compared $(ls "$tmp/ref-$name" | wc -l) files"
}
compare one-thread OPENBLAS_NUM_THREADS=1
compare default-threads -u OPENBLAS_NUM_THREADS
[ "$status" -eq 0 ] && echo "identical"
exit "$status"
