#!/bin/sh
# Write every output of the reference run into OUTDIR: the model file,
# metrics.tsv and stdout of `train`, then `lisa` with and without
# --lookahead, both `patterns` runs, `eval` and `export-hidden` on that
# model, and the test split they read. Then the same corpus trained at the
# SemEval shape (h100 d50, 2 epochs) with its metrics.tsv (dev accuracy),
# then `lisa` with and without --lookahead, `lisa` on an 81-word sentence
# (a curve long enough at h100 to run on two threads), both `patterns`
# runs, `eval` and `export-hidden` on it, which run the prefix scorer and
# the batched labeller at that shape, and `patterns --all` over six
# sentences of 60-120 words (the 81-word sentence and variants), long
# enough at h100 to mine on two threads. Every file of that model is named
# *-h100*. Last, `patterns --all` on the reference model over nine
# sentences of 6-38 words that share two prefix blocks of unequal lengths,
# some crossing early, some late and some never. 22 outputs. Runs the checkout's own
# src/, so two checkouts (say, a change and its parent) can be compared
# with `cmp`.
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
# the sentence and 24 times "sent for again": 81 words
long="$sentence$(printf ' sent for again%.0s' $(seq 24))"
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
cbrnn lisa --model "$d/model-h100.txt" --relation rel-00 --sentence "$long" > "$d/lisa-h100-long.csv"
cbrnn patterns --model "$d/model-h100.txt" --data "$test" --all --tau 0.3 > "$d/patterns-h100-all.tsv"
cbrnn patterns --model "$d/model-h100.txt" --data "$test" > "$d/patterns-h100.tsv"
cbrnn eval --model "$d/model-h100.txt" --data "$test" > "$d/eval-h100.txt"
cbrnn export-hidden --model "$d/model-h100.txt" --data "$test" > "$d/hidden-h100.tsv"
# at tau 0.5 the 81-word sentence and a 100-word one led by "again" cross
# within their first 10 words, two 80-word ones led by "the" and "a" in
# their last 6, on the worker thread's prefixes, and a 60- and a 120-word
# one never cross; the data file is not an output
filler() { printf " $1%.0s" $(seq "$2"); }
{
    printf 'rel-00\t%s\n' "$long"
    printf 'rel-01\t%s\n' "$(filler the 71) $sentence"
    printf 'rel-00\t%s\n' "$(filler a 71) $sentence"
    printf 'rel-03\t%s\n' "$(filler again 91) $sentence"
    printf 'rel-03\t%s\n' "$sentence$(filler 'sent for again' 17)"
    printf 'rel-02\t%s\n' "$sentence$(filler 'sent for again' 37)"
} > "$d/long.tsv"
cbrnn patterns --model "$d/model-h100.txt" --data "$d/long.tsv" --all --tau 0.5 > "$d/patterns-h100-long-all.tsv"
rm "$d/long.tsv"
# the reference model at tau 0.5 over nine sentences of 6-38 words: the
# six of 25-38 words share one prefix block, the 12- and 9-word ones
# another, and the 6-word one is scored alone. The 9-word sentence, the
# 38-word one led by "a" and the 38-word one led by "plain" cross within
# their first 6 words, the 38-, 25- and 37-word ones led by "the", "the"
# and "old" in their last 7, the 12-word one halfway, and the 29- and
# 6-word ones never; the data file is not an output
made="<e1> garden </e1> was made with <e2> garden </e2> small"
placed="<e1> harbor </e1> placed near <e2> signal </e2> nearby"
drawn="<e1> castle </e1> is drawn in <e2> tablet </e2> gray"
{
    printf 'rel-00\t%s\n' "$sentence"
    printf 'rel-01\t%s\n' "$(filler the 28) $made"
    printf 'rel-03\t%s\n' "$(filler the 15) $drawn"
    printf 'rel-00\t%s\n' "$(filler the 20) $sentence"
    printf 'rel-02\t%s\n' "$(filler slowly 3) $placed"
    printf 'rel-03\t%s\n' "<e1> signal </e1> <e2> circuit </e2>"
    printf 'rel-01\t%s\n' "$(filler a 28) $made"
    printf 'rel-02\t%s\n' "$(filler old 28) $placed"
    printf 'rel-03\t%s\n' "$(filler plain 28) $drawn"
} > "$d/mixed.tsv"
cbrnn patterns --model "$d/model.txt" --data "$d/mixed.tsv" --all --tau 0.5 > "$d/patterns-mixed-all.tsv"
rm "$d/mixed.tsv"
