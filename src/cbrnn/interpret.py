"""Prefix-probability curves, saliency-pattern extraction and hidden export.

A prefix of length k is scored as its own full input: the window sequence is
recomposed on the truncated tokens, so the last window ends in padding rather
than the next word. Pattern *reporting* can instead take the window from the
full sentence (``lookahead=True``), which includes the right neighbor of the
crossing word. One scorer, ``model.prefix_states``, serves both callers: it
composes and projects the sentence once, takes each prefix's few rows that
differ from it, its tail, from the sentence's input with the padding written
in, and runs all prefixes as one lockstep block, yielding after each prefix
ends. A curve reads every prefix, so it takes the last yield and puts every
prefix through one stacked output layer; pattern extraction puts each
prefix through the output layer as it is yielded and stops at the first
that crosses. Mining only the correctly classified sentences and hidden
export both read ``model.classify_many``, the one batched labeller: mining
hands each correct sentence's forward chain to the scorer, export keeps
each sentence's final combined state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import PAD_TOKEN, InputError, LabeledSentence
# compose_ngram_inputs and forward_pass are not called here; perfbench's
# tests check that its probes reach every namespace that holds them, this
# one included
from .embeddings import EvenWindow, compose_ngram_inputs  # noqa: F401
from .model import (  # noqa: F401
    UnknownRelation,
    classify_many,
    forward_pass,
    prefix_states,
    softmax,
)


@dataclass(frozen=True)
class CurvePoint:
    k: int
    token: str
    prob_target: float
    predicted_label: str
    prob_predicted: float


@dataclass
class PrefixScoreCurve:
    sentence_id: str
    relation: str
    points: list


@dataclass(frozen=True)
class SaliencyPattern:
    relation: str
    ngram: tuple
    crossing_index: int
    score: float
    sentence_id: str


@dataclass(frozen=True)
class PatternEntry:
    relation: str
    ngram: tuple
    support: int
    mean_score: float


@dataclass
class PatternTable:
    entries: list
    tau: float
    window: int


def _tokens_of(sentence):
    if isinstance(sentence, LabeledSentence):
        return sentence.tokens, sentence.id
    return tuple(sentence), "0"


def token_window(tokens, k, window):
    """Window of `window` tokens centered at 1-based position k, with
    out-of-range positions rendered as the literal padding token."""
    half = window // 2
    out = []
    for pos in range(k - half, k + half + 1):
        out.append(tokens[pos - 1] if 1 <= pos <= len(tokens) else PAD_TOKEN)
    return tuple(out)


def _relation_index(model, relation):
    if relation not in model.label_set:
        raise UnknownRelation(f"relation {relation!r} not in label set")
    return model.label_set.index(relation)


def prefix_curve(model, sentence, relation, lookahead=False):
    """Score every word-prefix of the sentence, all in one pass: the final
    combined states of all prefixes go through one stacked output matmul,
    one gemv per row as ``h @ out_w`` is, and one row-wise softmax."""
    tokens, sid = _tokens_of(sentence)
    r_idx = _relation_index(model, relation)
    params = model.params
    *_, comb = prefix_states(params, model.table, model.vocab.encode(tokens),
                             model.train_cfg.window, lookahead)
    rows = softmax(np.matmul(comb, params.out_w)[:, 0] + params.out_b)
    points = []
    for k, probs in enumerate(rows, start=1):
        p_idx = int(probs.argmax())
        points.append(CurvePoint(
            k=k, token=tokens[k - 1],
            prob_target=float(probs[r_idx]),
            predicted_label=model.label_set[p_idx],
            prob_predicted=float(probs[p_idx]),
        ))
    return PrefixScoreCurve(sentence_id=sid, relation=relation, points=points)


@dataclass
class FixedCurveModel:
    """A fixed per-prefix target-probability curve that ``extract_pattern``
    searches in place of a trained model's; pattern-extraction fixtures use
    it."""
    probs: tuple


def _target_probs(model, tokens, relation, h_fwd):
    if isinstance(model, FixedCurveModel):
        if len(model.probs) != len(tokens):
            raise ValueError("curve length does not match sentence length")
        return model.probs
    r_idx = _relation_index(model, relation)
    params = model.params
    states = prefix_states(params, model.table, model.vocab.encode(tokens),
                           model.train_cfg.window, h_fwd=h_fwd)
    # each prefix through the output layer as it ends, so a caller that
    # stops early leaves the later steps unrun
    return (float(softmax(comb[k, 0] @ params.out_w + params.out_b)[r_idx])
            for k, comb in enumerate(states))


class WindowTooWide(InputError):
    pass


def check_pattern_settings(tau, window, sentences=()):
    """Reject a ``tau`` outside (0, 1), a window that is not odd and
    positive, and one wider than ``2 * L - 1``, L the length of the longest
    of ``sentences``. A window that wide, centred on any word, covers the
    whole sentence: a wider one only adds padding, and a huge one would
    build a tuple that wide for each pattern."""
    if not 0.0 < tau < 1.0:
        raise InputError(f"tau must lie in (0, 1), got {tau}")
    if window < 1 or window % 2 == 0:
        raise EvenWindow(f"window size must be odd and positive, got {window}")
    longest = max((len(s.tokens) for s in sentences), default=0)
    if longest and window > 2 * longest - 1:
        raise WindowTooWide(f"window size must be at most {2 * longest - 1} for "
                            f"sentences of up to {longest} words, got {window}")


def extract_pattern(model, sentence, relation, tau=0.5, window=3,
                    lookahead=True, h_fwd=None):
    """Return the last window of the first prefix whose target probability
    reaches tau, or None when no prefix crosses. The scorer advances its
    one block of prefixes word by word and is not resumed past the
    crossing, so no step after it runs. ``h_fwd``, the sentence's forward
    states from ``forward_pass``, spares the scorer its own. The
    window is not bounded by the sentence's length: a short sentence's
    pattern is padded."""
    check_pattern_settings(tau, window)
    tokens, sid = _tokens_of(sentence)
    for k, p in enumerate(_target_probs(model, tokens, relation, h_fwd),
                          start=1):
        if p >= tau:
            source = tokens if lookahead else tokens[:k]
            return SaliencyPattern(
                relation=relation, ngram=token_window(source, k, window),
                crossing_index=k, score=float(p), sentence_id=sid,
            )
    return None


def mine_patterns(model, sentences, tau=0.5, window=3, only_correct=True,
                  lookahead=True):
    """Aggregate extracted patterns per relation into support counts and
    mean scores, deterministically ordered. A window wider than
    ``2 * L - 1``, L the longest sentence's length, is rejected before any
    sentence is scored."""
    sentences = list(sentences)
    check_pattern_settings(tau, window, sentences)
    if only_correct:
        # classified a batch at a time; a sentence's forward chain spares
        # the scorer its own
        mined = ((s, cache.h_fwd) for s, (label, cache)
                 in zip(sentences, classify_many(model, sentences))
                 if label == s.label)
    else:
        mined = ((s, None) for s in sentences)
    buckets = {}
    for s, h_fwd in mined:
        pat = extract_pattern(model, s, s.label, tau=tau, window=window,
                              lookahead=lookahead, h_fwd=h_fwd)
        if pat is None:
            continue
        buckets.setdefault((pat.relation, pat.ngram), []).append(pat.score)
    entries = [
        PatternEntry(relation=rel, ngram=ngram, support=len(scores),
                     mean_score=sum(sorted(scores)) / len(scores))
        for (rel, ngram), scores in buckets.items()
    ]
    entries.sort(key=lambda e: (e.relation, -e.support, -e.mean_score, e.ngram))
    return PatternTable(entries=entries, tau=tau, window=window)


def export_hidden_states(model, sentences):
    """Final combined hidden vector per sentence, paired with the gold label."""
    sentences = list(sentences)
    return [(s.label, cache.h_comb[-1].copy())
            for s, (_, cache) in zip(sentences, classify_many(model, sentences))]


# ---------------------------------------------------------------------------
# serializers


def curve_to_csv(curve):
    lines = ["k,token,prob_target,predicted_label,prob_predicted"]
    for p in curve.points:
        lines.append(
            f"{p.k},{p.token},{p.prob_target:.17g},"
            f"{p.predicted_label},{p.prob_predicted:.17g}"
        )
    return "\n".join(lines) + "\n"


def pattern_table_to_tsv(table):
    lines = []
    for e in table.entries:
        ngram = " ".join(e.ngram)
        lines.append(f"{e.relation}\t{ngram}\t{e.support}\t{e.mean_score:.9g}")
    return "\n".join(lines) + ("\n" if lines else "")


def hidden_to_tsv(rows):
    lines = []
    for label, vector in rows:
        values = "\t".join(f"{v:.9g}" for v in vector)
        lines.append(f"{label}\t{values}")
    return "\n".join(lines) + ("\n" if lines else "")
