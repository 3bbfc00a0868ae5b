"""The one prefix scorer behind prefix curves and pattern extraction."""

from dataclasses import replace

import pytest

from cbrnn import model, train
from cbrnn.interpret import FixedCurveModel, UnknownRelation, extract_pattern


@pytest.fixture(scope="module")
def window_5_model(trained_model, synthetic_split):
    """The reference run with window 5, in fewer epochs."""
    return train(synthetic_split,
                 replace(trained_model.train_cfg, window=5, epochs=10))


def test_extract_pattern_stops_scoring_at_the_crossing(trained_model,
                                                       window_5_model,
                                                       synthetic_split,
                                                       monkeypatch):
    """At h32 the scorer's first block holds prefixes 1-16, and it starts no
    later block before a row of it is asked for. The prefixes that are all
    tail, 1 for window 3 and 1 and 2 for window 5, are scored on their
    own."""
    blocks, alone, tailed = [], [], []

    def spy_lockstep(params, first, n_pre, *rest):
        blocks.extend(range(first, first + n_pre))
        return lockstep(params, first, n_pre, *rest)

    def spy_tails(params, table, padded, half, first, end):
        tailed.extend(range(first, end))
        return tails(params, table, padded, half, first, end)

    def spy_forward(params, x):
        alone.append(len(x))
        return forward(params, x)

    s = synthetic_split.test[0]
    # the scores extract_pattern reads do not look past their prefix, so
    # words after the sentence leave the crossing where it is; 24 of them
    # take the sentence past the first block
    longer = replace(s, tokens=s.tokens + ("still",) * 24)
    crossings = [extract_pattern(trained, s, s.label).crossing_index
                 for trained in (trained_model, window_5_model)]
    lockstep, forward, tails = model._lockstep, model.forward_pass, model._tails
    monkeypatch.setattr(model, "_lockstep", spy_lockstep)
    monkeypatch.setattr(model, "_tails", spy_tails)
    monkeypatch.setattr(model, "forward_pass", spy_forward)
    first = 16
    assert len(longer.tokens) > first
    for trained, lookahead, crossing in zip((trained_model, window_5_model),
                                            (True, False), crossings):
        assert trained.params.hidden_size == 32
        blocks.clear()
        alone.clear()
        tailed.clear()
        pat = extract_pattern(trained, longer, s.label, tau=0.5, window=3,
                              lookahead=lookahead)
        assert pat is not None and pat.crossing_index == crossing <= first
        assert alone == list(range(1, trained.train_cfg.window // 2 + 1))
        assert alone + blocks == list(range(1, first + 1))
        # the tails of later blocks are not built either
        assert tailed == blocks


def test_extract_pattern_unknown_relation(trained_model, synthetic_split):
    with pytest.raises(UnknownRelation):
        extract_pattern(trained_model, synthetic_split.test[0], "nope")


def test_fixed_curve_length_must_match_sentence():
    with pytest.raises(ValueError, match="curve length"):
        extract_pattern(FixedCurveModel((0.9, 0.9)), ("a", "b", "c"), "r")
