"""A SemEval-2010 Task 8 shaped corpus, generated from a seed.

The shape follows the real data set: 19 labels (nine directed relations in
both directions plus Other), sentences of about 25 tokens with the four
entity markers (log-normal, 12 to about 65 tokens), and a Zipfian vocabulary
of several thousand types. Each label has its own planted trigger phrase between the
two entities, so a model can learn the task and pattern mining has a known
answer. The library only ever sees the generated sentences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from cbrnn.corpus import CorpusSplit, LabeledSentence

_RELATIONS = (
    "Cause-Effect", "Component-Whole", "Content-Container",
    "Entity-Destination", "Entity-Origin", "Instrument-Agency",
    "Member-Collection", "Message-Topic", "Product-Producer",
)
LABELS = tuple(
    f"{rel}({a},{b})" for rel in _RELATIONS for a, b in (("e1", "e2"), ("e2", "e1"))
) + ("Other",)

# Zipf-Mandelbrot word frequencies over a fixed type universe.
_N_WORD_TYPES = 40_000
_N_ENTITY_TYPES = 6_000
_ZIPF_S = 1.05
_ZIPF_Q = 2.7

# Length model: log-normal total length (markers included), clipped.
_LEN_MU = 3.15
_LEN_SIGMA = 0.33
MIN_LEN = 12
MAX_LEN = 90


@dataclass(frozen=True)
class ShapeTargets:
    """Bounds the generated corpus must meet; a run fails outside them."""
    vocab_min: int
    vocab_max: int
    mean_len_min: float
    mean_len_max: float
    max_len: int


SEMEVAL_TARGETS = ShapeTargets(
    vocab_min=3_000, vocab_max=8_000, mean_len_min=22.0, mean_len_max=28.0,
    max_len=MAX_LEN,
)


def _zipf_cdf(n_types):
    ranks = np.arange(1, n_types + 1)
    weights = 1.0 / (ranks + _ZIPF_Q) ** _ZIPF_S
    return np.cumsum(weights / weights.sum())


_WORD_CDF = _zipf_cdf(_N_WORD_TYPES)
_ENTITY_CDF = _zipf_cdf(_N_ENTITY_TYPES)


def _stratified_draw(rng, cdf, k):
    """k Zipf ranks, one uniform per 1/k stratum, in random order. Unlike k
    independent draws, the number of distinct types hardly depends on the
    seed, so neither do the vocabulary size and what scales with it."""
    u = (np.arange(k) + rng.random(k)) / k
    return rng.permutation(np.minimum(np.searchsorted(cdf, u), len(cdf) - 1))


def _triggers():
    """One distinct two- or three-token phrase per label."""
    out = {}
    for i, label in enumerate(LABELS):
        words = [f"t{i:02d}{part}" for part in ("a", "b", "c")[: 2 + i % 2]]
        out[label] = tuple(words)
    return out


TRIGGERS = _triggers()


def quantile_lengths(k):
    """k lengths at the mid-quantiles of the length model, ascending."""
    normal = NormalDist(_LEN_MU, _LEN_SIGMA)
    return [min(max(int(round(math.exp(normal.inv_cdf((i + 0.5) / k)))), MIN_LEN),
                MAX_LEN) for i in range(k)]


def make_sentences(rng, lengths, prefix):
    """Labelled sentences with exactly the given token counts (markers
    included): random labels, one- or two-token entities, the label's
    trigger between the entities, Zipfian filler words around them."""
    plans = []
    for total in lengths:
        label = LABELS[int(rng.integers(len(LABELS)))]
        n_e1, n_e2 = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        free = max(total - 4 - n_e1 - n_e2 - len(TRIGGERS[label]), 0)
        # up to two filler words sit between the entities, split around the
        # trigger; the rest go before <e1> and after </e2>
        mid = min(free, int(rng.integers(0, 3)))
        lead = int(rng.integers(0, free - mid + 1))
        m1 = int(rng.integers(0, mid + 1))
        plans.append((label, n_e1, n_e2, free, mid, lead, m1))
    words = iter(_stratified_draw(rng, _WORD_CDF, sum(p[3] for p in plans)).tolist())
    entities = iter(_stratified_draw(
        rng, _ENTITY_CDF, sum(p[1] + p[2] for p in plans)).tolist())
    out = []
    for j, (label, n_e1, n_e2, free, mid, lead, m1) in enumerate(plans):
        e1 = [f"n{next(entities)}" for _ in range(n_e1)]
        e2 = [f"n{next(entities)}" for _ in range(n_e2)]
        fillers = [f"w{next(words)}" for _ in range(free)]
        tokens = (
            *fillers[:lead], "<e1>", *e1, "</e1>",
            *fillers[lead:lead + m1], *TRIGGERS[label], *fillers[lead + m1:lead + mid],
            "<e2>", *e2, "</e2>", *fillers[lead + mid:],
        )
        out.append(LabeledSentence(tokens=tokens, label=label, id=f"{prefix}:{j:05d}"))
    return out


def generate_semeval_like(seed, n_train, n_dev, n_test):
    """A CorpusSplit with SemEval-like labels, lengths and vocabulary.

    Lengths sit at fixed quantiles of the length model (shuffled in the
    training split), so a seed changes the words, not the length mix.
    """
    rng = np.random.default_rng(seed)
    train_lengths = rng.permutation(quantile_lengths(n_train)).tolist()
    return CorpusSplit(
        train=make_sentences(rng, train_lengths, "train"),
        dev=make_sentences(rng, quantile_lengths(n_dev), "dev"),
        test=make_sentences(rng, quantile_lengths(n_test), "test"),
        label_set=list(LABELS),
        trigger_phrases=dict(TRIGGERS),
    )


def long_sentences(seed, lengths):
    """Sentences with exactly the given token counts (markers included)."""
    return make_sentences(np.random.default_rng(seed), list(lengths), "long")


def length_histogram(sentences, edges=(0, 10, 20, 30, 40, 50, 60, 70, 80, 90)):
    """Counts of sentence lengths per bin [edges[i], edges[i+1]); the last
    bin is open-ended."""
    counts = [0] * len(edges)
    for s in sentences:
        n = len(s.tokens)
        i = max(j for j, e in enumerate(edges) if n >= e)
        counts[i] += 1
    return {f"{edges[i]}+" if i == len(edges) - 1 else f"{edges[i]}-{edges[i + 1] - 1}": c
            for i, c in enumerate(counts)}


def check_shape(train_sentences, vocab_size, targets):
    """Names of the shape targets the corpus misses (empty when it meets all)."""
    lengths = [len(s.tokens) for s in train_sentences]
    mean = sum(lengths) / len(lengths)
    misses = []
    if not targets.vocab_min <= vocab_size <= targets.vocab_max:
        misses.append(f"vocab_size {vocab_size} outside "
                      f"[{targets.vocab_min}, {targets.vocab_max}]")
    if not targets.mean_len_min <= mean <= targets.mean_len_max:
        misses.append(f"mean_length {mean:.2f} outside "
                      f"[{targets.mean_len_min}, {targets.mean_len_max}]")
    if max(lengths) > targets.max_len:
        misses.append(f"max_length {max(lengths)} above {targets.max_len}")
    return misses
