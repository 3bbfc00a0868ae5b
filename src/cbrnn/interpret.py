"""Prefix-probability curves, saliency-pattern extraction and hidden export.

A prefix of length k is scored as its own full input: the window sequence is
recomposed on the truncated tokens, so the last window ends in padding rather
than the next word. Pattern *reporting* can instead take the window from the
full sentence (``lookahead=True``), which includes the right neighbor of the
crossing word. A curve drains the prefix scorer, ``model.prefix_states``,
which yields the final combined states as each prefix ends (see ``model``
for how it runs), and puts them all through the output layer,
``model.class_scores``, in one call. Pattern extraction reads a stream of
probability rows from ``model.prefix_probs_many`` and stops it at the
crossing (``first_crossing``). Mining and hidden export both read
``model.classify_many``, the one batched labeller: export keeps each
sentence's final combined state, and mining takes its sentences in
``model.batches``, labels each batch (unless it mines all of them) and hands
its sentences, with their caches, to ``model.prefix_probs_many``.
"""

from __future__ import annotations

import csv
import io
from contextlib import closing
from dataclasses import dataclass

from .corpus import PAD_TOKEN, InputError, LabeledSentence, sentence_tokens
# compose_ngram_inputs and forward_pass are not called here; perfbench's
# tests check that its probes reach every namespace that holds them, this
# one included
from .embeddings import EvenWindow, compose_ngram_inputs  # noqa: F401
from .model import (  # noqa: F401
    UnknownRelation,
    batches,
    class_scores,
    classify_many,
    forward_pass,
    prefix_probs_many,
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


def _tokens_of(model, sentence):
    """The tokens ``model`` scores for ``sentence``, and its id: a trained
    model's come through ``corpus.sentence_tokens``, the rule ``predict``
    follows; a ``FixedCurveModel`` scores nothing and takes any words."""
    if isinstance(sentence, LabeledSentence):
        return sentence.tokens, sentence.id
    if isinstance(model, FixedCurveModel):
        return tuple(sentence), "0"
    return sentence_tokens(sentence), "0"


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
    """Score every word-prefix of the sentence, all in one pass
    (``prefix_states`` drained): the final combined states of all prefixes
    go through one ``class_scores`` call and one row-wise softmax."""
    tokens, sid = _tokens_of(model, sentence)
    r_idx = _relation_index(model, relation)
    params = model.params
    *_, comb = prefix_states(params, model.table, model.vocab.encode(tokens),
                             model.train_cfg.window, lookahead)
    rows = softmax(class_scores(params, comb))
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


def first_crossing(probs, tau):
    """``(k, p)`` for the first element ``p`` of ``probs``, ``k`` its 1-based
    place, with ``p >= tau``, or None when none has; no element past it is
    read."""
    for k, p in enumerate(probs, start=1):
        if p >= tau:
            return k, p
    return None


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
                    lookahead=True, scorer=None):
    """Return the last window of the first prefix whose target probability
    reaches tau, or None when no prefix crosses. A trained model scores the
    tokens ``predict`` would and refuses what it refuses
    (``corpus.sentence_tokens``). The probabilities come from ``scorer``,
    the sentence's generator from ``model.prefix_probs_many(params, table,
    ids, window, caches)``, or from the sentence's own; it advances word by
    word and is closed at the crossing or when anything raises: the
    caller's thread runs no step past the crossing, and a worker thread
    running the longer prefixes of a long sentence stops within one step
    and is joined before this returns. The window is not bounded by the
    sentence's length: a short sentence's pattern is padded."""
    check_pattern_settings(tau, window)
    tokens, sid = _tokens_of(model, sentence)
    if isinstance(model, FixedCurveModel):
        if len(model.probs) != len(tokens):
            raise ValueError("curve length does not match sentence length")
        crossing = first_crossing(model.probs, tau)
    else:
        r_idx = _relation_index(model, relation)
        if scorer is None:
            scorer, = prefix_probs_many(model.params, model.table,
                                        [model.vocab.encode(tokens)],
                                        model.train_cfg.window)
        with closing(scorer):
            crossing = first_crossing((row[r_idx] for row in scorer), tau)
    if crossing is None:
        return None
    k, p = crossing
    source = tokens if lookahead else tokens[:k]
    return SaliencyPattern(relation=relation, ngram=token_window(source, k, window),
                           crossing_index=k, score=float(p), sentence_id=sid)


def mine_patterns(model, sentences, tau=0.5, window=3, only_correct=True,
                  lookahead=True):
    """Aggregate extracted patterns per relation into support counts and
    mean scores, deterministically ordered. A window wider than
    ``2 * L - 1``, L the longest sentence's length, is rejected before any
    sentence is scored. Sentences are taken in ``model.batches``: a batch
    is classified at once (unless every sentence is mined), and its
    prefixes are scored as one block where that pays
    (``model.prefix_probs_many``)."""
    sentences = list(sentences)
    check_pattern_settings(tau, window, sentences)
    buckets = {}
    for batch in batches(sentences):
        if only_correct:
            # a sentence's cache spares the scorer composing it and running
            # its forward chain again
            mined = [(s, cache) for s, (label, cache)
                     in zip(batch, classify_many(model, batch))
                     if label == s.label]
        else:
            mined = [(s, None) for s in batch]
        scorers = [None] * len(mined)
        if not isinstance(model, FixedCurveModel):
            scorers = prefix_probs_many(
                model.params, model.table,
                [model.vocab.encode(s.tokens) for s, _ in mined],
                model.train_cfg.window, caches=[cache for _, cache in mined])
        for (s, _), scorer in zip(mined, scorers):
            pat = extract_pattern(model, s, s.label, tau=tau, window=window,
                                  lookahead=lookahead, scorer=scorer)
            if pat is not None:
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
    return [(s.label, cache.steps[-1, 2, 0].copy())
            for s, (_, cache) in zip(sentences, classify_many(model, sentences))]


# ---------------------------------------------------------------------------
# serializers


def curve_to_csv(curve):
    """The curve as CSV with ``\\n`` line ends. A token or label holding a
    comma, a double quote or a newline is quoted as RFC 4180 does; every
    other field is written as it is."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["k", "token", "prob_target", "predicted_label",
                     "prob_predicted"])
    writer.writerows([p.k, p.token, f"{p.prob_target:.17g}", p.predicted_label,
                      f"{p.prob_predicted:.17g}"] for p in curve.points)
    return out.getvalue()


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
