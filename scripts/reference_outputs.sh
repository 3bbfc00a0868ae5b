#!/bin/sh
# Write every output of the reference run into OUTDIR: the model file,
# metrics.tsv and stdout of `train`, then `lisa` with and without
# --lookahead, both `patterns` runs, `eval` and `export-hidden` on that
# model, and the test split they read. Then the same corpus trained at the
# SemEval shape (h100 d50, 2 epochs) with its metrics.tsv (dev accuracy),
# then `lisa` with and without --lookahead, both `patterns` runs, `eval`
# and `export-hidden` on it, which run the prefix scorer and the batched
# labeller at that shape. Every file of that model is named *-h100*. Runs
# the checkout's own src/, so two checkouts (say, a change and its parent)
# can be compared with `cmp`.
#
#   sh scripts/reference_outputs.sh OUTDIR
set -eu
[ $# -eq 1 ] || { echo "usage: $0 OUTDIR" >&2; exit 2; }
d=$1
mkdir -p "$d"
PYTHONPATH="$(cd "$(dirname "$0")/.." && pwd)/src"
export PYTHONPATH
cbrnn() { python -m cbrnn.cli "$@"; }

ref="--synthetic 4x50 --seed 7 --epochs 30 --hidden 32 --dim 16"
sentence="<e1> signal </e1> sent for <e2> circuit </e2> again"
test="$d/test.tsv"
python -c "import sys, cbrnn; cbrnn.corpus.save_corpus_file(cbrnn.generate_synthetic(cbrnn.SyntheticConfig(4, 50, 7)).test, sys.argv[1])" "$test"
# shellcheck disable=SC2086  # $ref is a list of flags
cbrnn train $ref --out "$d/model.txt" --metrics "$d/metrics.tsv" > "$d/train.txt"
cbrnn lisa --model "$d/model.txt" --relation rel-00 --sentence "$sentence" > "$d/lisa.csv"
cbrnn lisa --model "$d/model.txt" --relation rel-00 --sentence "$sentence" --lookahead > "$d/lisa-lookahead.csv"
cbrnn patterns --model "$d/model.txt" --data "$test" > "$d/patterns.tsv"
cbrnn patterns --model "$d/model.txt" --data "$test" --all --no-lookahead --tau 0.3 > "$d/patterns-all.tsv"
cbrnn eval --model "$d/model.txt" --data "$test" > "$d/eval.txt"
cbrnn export-hidden --model "$d/model.txt" --data "$test" > "$d/hidden.tsv"
wide="--synthetic 4x50 --seed 7 --epochs 2 --hidden 100 --dim 50"
# shellcheck disable=SC2086
cbrnn train $wide --out "$d/model-h100.txt" --metrics "$d/metrics-h100.tsv" > "$d/train-h100.txt"
cbrnn lisa --model "$d/model-h100.txt" --relation rel-00 --sentence "$sentence" > "$d/lisa-h100.csv"
cbrnn lisa --model "$d/model-h100.txt" --relation rel-00 --sentence "$sentence" --lookahead > "$d/lisa-h100-lookahead.csv"
cbrnn patterns --model "$d/model-h100.txt" --data "$test" --all --tau 0.3 > "$d/patterns-h100-all.tsv"
cbrnn patterns --model "$d/model-h100.txt" --data "$test" > "$d/patterns-h100.tsv"
cbrnn eval --model "$d/model-h100.txt" --data "$test" > "$d/eval-h100.txt"
cbrnn export-hidden --model "$d/model-h100.txt" --data "$test" > "$d/hidden-h100.tsv"
