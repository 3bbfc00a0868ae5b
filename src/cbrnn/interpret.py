"""Prefix-probability curves, saliency-pattern extraction and hidden export.

A prefix of length k is scored as its own full input: the window sequence is
recomposed on the truncated tokens, so the last window ends in padding rather
than the next word. Pattern *reporting* can instead take the window from the
full sentence (``lookahead=True``), which includes the right neighbor of the
crossing word.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import PAD_TOKEN, InputError, LabeledSentence
from .embeddings import EvenWindow, compose_ngram_inputs
from .model import UnknownRelation, forward_pass, model_inputs, predict


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


def _prefix_probs(model, tokens, lookahead=False):
    """Yield the class-probability row of each word-prefix, shortest first.

    Each prefix is an independent forward run because the backward chain
    depends on the prefix length; a caller that stops early scores no later
    prefix.
    """
    window = model.train_cfg.window
    ids = [model.vocab.id_of(t) for t in tokens]
    full = compose_ngram_inputs(ids, model.table, window) if lookahead else None
    for k in range(1, len(tokens) + 1):
        if lookahead:
            x = full[:k]
        else:
            x = compose_ngram_inputs(ids[:k], model.table, window)
        yield forward_pass(model.params, x).probs


def prefix_curve(model, sentence, relation, lookahead=False):
    """Score every word-prefix of the sentence."""
    tokens, sid = _tokens_of(sentence)
    r_idx = _relation_index(model, relation)
    points = []
    for k, probs in enumerate(_prefix_probs(model, tokens, lookahead), start=1):
        p_idx = int(np.argmax(probs))
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


def _target_probs(model, tokens, relation):
    if isinstance(model, FixedCurveModel):
        if len(model.probs) != len(tokens):
            raise ValueError("curve length does not match sentence length")
        return model.probs
    r_idx = _relation_index(model, relation)
    return (float(probs[r_idx]) for probs in _prefix_probs(model, tokens))


def extract_pattern(model, sentence, relation, tau=0.5, window=3,
                    lookahead=True):
    """Return the last window of the first prefix whose target probability
    reaches tau, or None when no prefix crosses. Prefixes after the
    crossing are not scored."""
    if not 0.0 < tau < 1.0:
        raise InputError(f"tau must lie in (0, 1), got {tau}")
    if window < 1 or window % 2 == 0:
        raise EvenWindow(f"window size must be odd and positive, got {window}")
    tokens, sid = _tokens_of(sentence)
    for k, p in enumerate(_target_probs(model, tokens, relation), start=1):
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
    mean scores, deterministically ordered."""
    buckets = {}
    for s in sentences:
        if only_correct and predict(model, s)[0] != s.label:
            continue
        pat = extract_pattern(model, s, s.label, tau=tau, window=window,
                              lookahead=lookahead)
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
    rows = []
    for s in sentences:
        cache = forward_pass(model.params, model_inputs(model, s.tokens))
        rows.append((s.label, cache.h_comb[-1].copy()))
    return rows


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
