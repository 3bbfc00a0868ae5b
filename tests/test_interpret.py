import csv
import io
import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cbrnn import interpret, model
from cbrnn.corpus import MARKERS, LabeledSentence
from cbrnn.embeddings import EmbeddingTable, EvenWindow, compose_ngram_inputs
from cbrnn.interpret import (
    FixedCurveModel,
    UnknownRelation,
    WindowTooWide,
    check_pattern_settings,
    curve_to_csv,
    export_hidden_states,
    extract_pattern,
    first_crossing,
    hidden_to_tsv,
    mine_patterns,
    pattern_table_to_tsv,
    prefix_curve,
    token_window,
)
from cbrnn.model import classify_many, forward_pass, predict

def inputs_of(model, tokens):
    return compose_ngram_inputs(model.vocab.encode(tokens), model.table,
                                model.train_cfg.window)


S1_TOKENS = (
    "<e1>", "demolition", "</e1>", "was", "the", "cause", "of",
    "<e2>", "terror", "</e2>",
)
S1_CURVE = (0.10, 0.25, 0.29, 0.30, 0.35, 0.39, 0.77, 0.98, 1.00, 1.00)

S8_TOKENS = (
    "<e1>", "person", "</e1>", "was", "born", "in", "<e2>", "location", "</e2>",
)
S8_CURVE = (0.34, 0.34, 0.34, 0.37, 0.50, 0.58, 0.53, 0.54, 0.53)


def s1_sentence():
    return LabeledSentence(S1_TOKENS, "cause-effect(e1,e2)", "S1")


def s8_sentence():
    return LabeledSentence(S8_TOKENS, "per:loc_of_birth(e1,e2)", "S8")


# ---------------------------------------------------------------------------
# pattern extraction on scripted curves


def test_s1_crossing_with_lookahead():
    model = FixedCurveModel(S1_CURVE)
    pat = extract_pattern(model, s1_sentence(), "cause-effect(e1,e2)",
                          tau=0.5, window=3, lookahead=True)
    assert pat.crossing_index == 7
    assert S1_TOKENS[pat.crossing_index - 1] == "of"
    assert pat.ngram == ("cause", "of", "<e2>")
    assert pat.score == 0.77


def test_s1_crossing_without_lookahead_pads_right():
    model = FixedCurveModel(S1_CURVE)
    pat = extract_pattern(model, s1_sentence(), "cause-effect(e1,e2)",
                          tau=0.5, window=3, lookahead=False)
    assert pat.crossing_index == 7
    assert pat.ngram == ("cause", "of", "__PAD__")


def test_s8_first_crossing():
    model = FixedCurveModel(S8_CURVE)
    pat = extract_pattern(model, s8_sentence(), "per:loc_of_birth(e1,e2)",
                          tau=0.5, window=3, lookahead=True)
    assert pat.crossing_index == 5
    assert S8_TOKENS[pat.crossing_index - 1] == "born"
    assert pat.ngram == ("was", "born", "in")


def test_no_crossing_returns_none():
    model = FixedCurveModel((0.4,) * 10)
    assert extract_pattern(model, s1_sentence(), "cause-effect(e1,e2)",
                           tau=0.5, window=3) is None


def test_extract_pattern_validates_tau_and_window():
    model = FixedCurveModel(S1_CURVE)
    with pytest.raises(ValueError):
        extract_pattern(model, s1_sentence(), "x", tau=0.0)
    with pytest.raises(ValueError):
        extract_pattern(model, s1_sentence(), "x", tau=0.5, window=2)


@pytest.mark.parametrize("window", [-1, 0, 2, 4])
def test_pattern_settings_refuse_a_window_as_composition_does(window):
    """One check refuses a window that is not odd and positive, with one
    message, for mining's settings and for composition."""
    with pytest.raises(EvenWindow) as settings_error:
        check_pattern_settings(0.5, window)
    with pytest.raises(EvenWindow) as compose_error:
        compose_ngram_inputs([1, 2], EmbeddingTable(np.zeros((3, 2))), window)
    assert str(settings_error.value) == str(compose_error.value) == \
        f"window size must be odd and positive, got {window}"


def test_mine_patterns_bounds_the_window_by_the_longest_sentence():
    """A window of 2L - 1 words, centred on any of L words, covers the whole
    sentence; a wider one is rejected, while one as wide pads."""
    model, sentences = FixedCurveModel(S1_CURVE), [s1_sentence()]
    table = mine_patterns(model, sentences, window=19, only_correct=False)
    assert table.entries[0].ngram == ("__PAD__",) * 3 + S1_TOKENS + ("__PAD__",) * 6
    with pytest.raises(WindowTooWide, match="at most 19 for sentences of up to 10"):
        mine_patterns(model, sentences, window=21, only_correct=False)


@given(
    probs=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=12),
    tau=st.floats(min_value=0.05, max_value=0.95),
    window=st.sampled_from([1, 3, 5]),
)
def test_extraction_equals_exhaustive_scan(probs, tau, window):
    n = len(probs)
    words = tuple(f"w{i}" for i in range(n))
    # marker layout is irrelevant for the scripted scorer; use raw words
    model = FixedCurveModel(tuple(probs))
    pat = extract_pattern(model, words, "r", tau=tau, window=window)
    crossing = [k for k, p in enumerate(probs, start=1) if p >= tau]
    if not crossing:
        assert pat is None
    else:
        k = min(crossing)
        assert pat.crossing_index == k
        assert all(probs[j - 1] < tau for j in range(1, k))
        assert pat.ngram == token_window(words, k, window)


@given(
    probs=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=12),
    tau_lo=st.floats(min_value=0.05, max_value=0.9),
    delta=st.floats(min_value=0.0, max_value=0.5),
)
def test_raising_tau_never_lowers_crossing(probs, tau_lo, delta):
    tau_hi = min(0.95, tau_lo + delta)
    words = tuple(f"w{i}" for i in range(len(probs)))
    model = FixedCurveModel(tuple(probs))
    lo = extract_pattern(model, words, "r", tau=tau_lo)
    hi = extract_pattern(model, words, "r", tau=tau_hi)
    if lo is None:
        assert hi is None
    elif hi is not None:
        assert hi.crossing_index >= lo.crossing_index


class CountingIterator:
    """An iterator over ``items`` that counts the elements read from it."""

    def __init__(self, items):
        self.items, self.read = iter(items), 0

    def __iter__(self):
        return self

    def __next__(self):
        item = next(self.items)
        self.read += 1
        return item


# probabilities with NaN, 0 and 1 drawn often, beside the rest of [0, 1]
edge_probs = st.one_of(st.sampled_from([float("nan"), 0.0, 1.0]),
                       st.floats(min_value=0.0, max_value=1.0))


@given(probs=st.lists(edge_probs, max_size=12),
       tau=st.one_of(st.sampled_from([0.0, 1.0]),
                     st.floats(min_value=0.0, max_value=1.0)))
def test_first_crossing_equals_a_reference_scan(probs, tau):
    """The first ``(k, p)`` with ``p >= tau``, k 1-based, as a scan of every
    element finds it (a NaN never crosses), or None when no element
    crosses; no element past the crossing is read."""
    crossed = [k for k, p in enumerate(probs, start=1) if p >= tau]
    counted = CountingIterator(probs)
    got = first_crossing(counted, tau)
    if not crossed:
        assert got is None
        assert counted.read == len(probs)
    else:
        k = crossed[0]
        assert got == (k, probs[k - 1])
        assert counted.read == k


def test_token_window_pads_out_of_range():
    assert token_window(("a", "b", "c"), 1, 3) == ("__PAD__", "a", "b")
    assert token_window(("a", "b", "c"), 3, 3) == ("b", "c", "__PAD__")
    assert token_window(("a", "b", "c"), 2, 1) == ("b",)


# ---------------------------------------------------------------------------
# curves on a trained model


def test_curve_single_token_equals_full_prediction(trained_model):
    # a one-token input has no valid marker layout, which the public API
    # refuses, so score its ids with the prefix scorer, as a curve does
    tokens = ("<e1>",)
    params = trained_model.params
    *_, comb = model.prefix_states(params, trained_model.table,
                                   trained_model.vocab.encode(tokens),
                                   trained_model.train_cfg.window)
    assert len(comb) == 1
    curve_probs = model.softmax(model.class_scores(params, comb))[0]
    x = inputs_of(trained_model, tokens)
    probs = forward_pass(params, x).probs
    assert curve_probs.tobytes() == probs.tobytes()


# (kind, a, b): marker a (mod the count of markers) dropped, or doubled
# at place b (mod the places), markers a and b swapped, every marker
# removed, or every token
MARKER_EDITS = st.tuples(st.sampled_from(["drop", "double", "swap", "remove",
                                          "empty"]),
                         st.integers(0, 99), st.integers(0, 99))


def edit_markers(tokens, edits):
    tokens = list(tokens)
    for kind, a, b in edits:
        marks = [i for i, tok in enumerate(tokens) if tok in MARKERS]
        if kind == "empty":
            tokens = []
        elif kind == "remove":
            tokens = [tok for tok in tokens if tok not in MARKERS]
        elif marks and kind == "drop":
            del tokens[marks[a % len(marks)]]
        elif marks and kind == "double":
            tokens.insert(b % (len(tokens) + 1), tokens[marks[a % len(marks)]])
        elif marks and kind == "swap":
            i, j = marks[a % len(marks)], marks[b % len(marks)]
            tokens[i], tokens[j] = tokens[j], tokens[i]
    return tuple(tokens)


def _outcome(call):
    """The class and message of what ``call()`` raises and None, or None
    and what it returns."""
    try:
        return None, call()
    except Exception as exc:
        return (type(exc), str(exc)), None


@given(index=st.integers(0, 39), edits=st.lists(MARKER_EDITS, max_size=3))
@example(index=0, edits=[])
@example(index=0, edits=[("empty", 0, 0)])
@example(index=0, edits=[("remove", 0, 0)])
@example(index=0, edits=[("swap", 0, 1)])
def test_curves_and_patterns_refuse_what_predict_refuses(trained_model,
                                                         synthetic_split,
                                                         index, edits):
    """A test sentence's tokens with markers dropped, doubled, swapped or
    removed, or no tokens: ``predict``, ``classify_many``, ``prefix_curve``
    and ``extract_pattern`` on the reference model all raise the same
    class and message, or all succeed, and the curve then ends on
    ``predict``'s probability bit for bit."""
    s = synthetic_split.test[index % len(synthetic_split.test)]
    tokens = edit_markers(s.tokens, edits)
    r_idx = trained_model.label_set.index(s.label)
    refused, predicted = _outcome(lambda: predict(trained_model, tokens))
    assert _outcome(lambda: next(classify_many(trained_model, [tokens])))[0] == refused
    curve_refused, curve = _outcome(
        lambda: prefix_curve(trained_model, tokens, s.label))
    assert curve_refused == refused
    assert _outcome(lambda: extract_pattern(trained_model, tokens,
                                            s.label))[0] == refused
    if refused is None:
        probs = predicted[1]
        assert (np.float64(curve.points[-1].prob_target).tobytes()
                == probs[r_idx].tobytes())


def test_curve_unknown_relation(trained_model, synthetic_split):
    with pytest.raises(UnknownRelation):
        prefix_curve(trained_model, synthetic_split.test[0], "nope")


def test_curve_endpoint_matches_predict(trained_model, synthetic_split):
    for s in synthetic_split.test[:10]:
        curve = prefix_curve(trained_model, s, s.label)
        assert len(curve.points) == len(s.tokens)
        _, probs = predict(trained_model, s)
        ridx = trained_model.label_set.index(s.label)
        assert curve.points[-1].prob_target == float(probs[ridx])


def test_first_crossing_consistent_with_curve(trained_model, synthetic_split):
    s = synthetic_split.test[0]
    curve = prefix_curve(trained_model, s, s.label)
    pat = extract_pattern(trained_model, s, s.label, tau=0.5, window=3)
    assert pat is not None
    k = pat.crossing_index
    assert curve.points[k - 1].prob_target >= 0.5
    assert all(p.prob_target < 0.5 for p in curve.points[:k - 1])


# ---------------------------------------------------------------------------
# mining


def test_mine_patterns_empty():
    table = mine_patterns(FixedCurveModel(()), [], tau=0.5)
    assert table.entries == []


def test_mine_patterns_aggregates(trained_model, synthetic_split):
    s = synthetic_split.test[0]
    table = mine_patterns(trained_model, [s, s], tau=0.5, window=3)
    assert len(table.entries) == 1
    e = table.entries[0]
    assert e.support == 2
    pat = extract_pattern(trained_model, s, s.label, tau=0.5, window=3)
    assert e.mean_score == pytest.approx(pat.score)
    assert e.ngram == pat.ngram


def test_mine_patterns_order_invariant(trained_model, synthetic_split):
    sentences = synthetic_split.test[:8]
    a = mine_patterns(trained_model, sentences, tau=0.5, window=3)
    b = mine_patterns(trained_model, list(reversed(sentences)), tau=0.5, window=3)
    assert a.entries == b.entries


def test_mine_patterns_sorted(trained_model, synthetic_split):
    table = mine_patterns(trained_model, synthetic_split.test, tau=0.5, window=3)
    keys = [(e.relation, -e.support, -e.mean_score, e.ngram) for e in table.entries]
    assert keys == sorted(keys)


def test_mining_composes_each_sentence_once(trained_model, synthetic_split,
                                            monkeypatch):
    """Mining the correctly classified sentences hands the scorer the
    cache ``classify_many`` made, so a sentence is composed whole once,
    and the pattern table has the bytes of a scorer that composes and runs
    its forward chain itself. The all-tail prefixes, ``window // 2`` words
    at most, are composed on their own."""
    sentences = synthetic_split.test
    half = trained_model.train_cfg.window // 2
    composed = []

    def spy(ids, table, window):
        composed.append(len(ids))
        return compose(ids, table, window)

    def without_cache(trained, chosen):
        for label, _ in classify(trained, chosen):
            yield label, None

    compose, classify = model.compose_ngram_inputs, interpret.classify_many
    monkeypatch.setattr(model, "compose_ngram_inputs", spy)
    table = mine_patterns(trained_model, sentences, tau=0.5, window=3)
    assert table.entries
    assert [n for n in composed if n > half] == [len(s.tokens) for s in sentences]
    monkeypatch.setattr(interpret, "classify_many", without_cache)
    uncached = mine_patterns(trained_model, sentences, tau=0.5, window=3)
    assert pattern_table_to_tsv(table) == pattern_table_to_tsv(uncached)


# ---------------------------------------------------------------------------
# hidden export


def test_export_rows_and_definitional_equality(trained_model, synthetic_split):
    """Each row is the sentence's gold label and its own copy of the
    ``final`` state of the sentence's ``forward_pass``, bit for bit."""
    sentences = synthetic_split.test[:5]
    rows = export_hidden_states(trained_model, sentences)
    assert [label for label, _ in rows] == [s.label for s in sentences]
    for s, (_, hidden) in zip(sentences, rows):
        cache = forward_pass(trained_model.params,
                             inputs_of(trained_model, s.tokens))
        assert hidden.tobytes() == cache.final.tobytes()
        assert hidden.flags.owndata


def test_export_class_separation(trained_model, synthetic_split):
    rows = export_hidden_states(trained_model, synthetic_split.test)
    intra, inter = [], []
    for (l1, v1), (l2, v2) in itertools.combinations(rows, 2):
        (intra if l1 == l2 else inter).append(float(np.linalg.norm(v1 - v2)))
    assert np.mean(intra) < np.mean(inter)


# ---------------------------------------------------------------------------
# serializers


def test_curve_csv_shape(trained_model, synthetic_split):
    s = synthetic_split.test[0]
    curve = prefix_curve(trained_model, s, s.label)
    text = curve_to_csv(curve)
    lines = text.strip().split("\n")
    assert lines[0] == "k,token,prob_target,predicted_label,prob_predicted"
    assert len(lines) == len(s.tokens) + 1


def test_curve_csv_quotes_commas_and_quotes(trained_model, synthetic_split):
    """Labels such as SemEval's ``Cause-Effect(e1,e2)`` and the ``,`` and
    ``"`` tokens read back through ``csv.reader`` as five fields a row,
    equal to the curve's points; a row without such a field keeps the bytes
    of plain comma-joined fields."""
    labels = ["Cause-Effect(e1,e2)", "Other", 'say "it"', "a,b,c"]
    commas = replace(trained_model, label_set=labels)
    tokens = ("<e1>", "signal", ",", "</e1>", '"', "sent", 'a"b', "<e2>",
              "circuit", "</e2>", ",")
    for trained in (commas, trained_model):
        curve = prefix_curve(trained, tokens, trained.label_set[0])
        text = curve_to_csv(curve)
        rows = list(csv.reader(io.StringIO(text, newline="")))
        assert rows[0] == ["k", "token", "prob_target", "predicted_label",
                           "prob_predicted"]
        assert len(rows) == len(tokens) + 1
        for p, row in zip(curve.points, rows[1:]):
            assert len(row) == 5
            assert (int(row[0]), row[1], float(row[2]), row[3], float(row[4])) == (
                p.k, p.token, p.prob_target, p.predicted_label, p.prob_predicted)
    s = synthetic_split.test[0]
    curve = prefix_curve(trained_model, s, s.label)
    assert curve_to_csv(curve).splitlines()[1:] == [
        f"{p.k},{p.token},{p.prob_target:.17g},{p.predicted_label},"
        f"{p.prob_predicted:.17g}" for p in curve.points]


def test_pattern_tsv_shape(trained_model, synthetic_split):
    table = mine_patterns(trained_model, synthetic_split.test[:5], tau=0.5, window=3)
    text = pattern_table_to_tsv(table)
    for line in text.strip().split("\n"):
        relation, ngram, support, mean_score = line.split("\t")
        assert int(support) >= 1
        assert 0.0 <= float(mean_score) <= 1.0
        assert len(ngram.split(" ")) == 3


def test_hidden_tsv_shape(trained_model, synthetic_split):
    rows = export_hidden_states(trained_model, synthetic_split.test[:3])
    text = hidden_to_tsv(rows)
    lines = text.strip().split("\n")
    assert len(lines) == 3
    parts = lines[0].split("\t")
    assert len(parts) == 1 + trained_model.train_cfg.hidden_size
