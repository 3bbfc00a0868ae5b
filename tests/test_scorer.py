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
    """The scorer starts each block of prefixes before it yields their
    rows. The prefixes that are all tail, 1 for window 3 and 1 and 2 for
    window 5, are scored on their own."""
    blocks, alone = [], []

    def spy_lockstep(params, w_in, rec, first, tails, *rest):
        blocks.extend(range(first, first + len(tails)))
        return lockstep(params, w_in, rec, first, tails, *rest)

    def spy_forward(params, x):
        alone.append(len(x))
        return forward(params, x)

    lockstep, forward = model._lockstep_probs, model.forward_pass
    monkeypatch.setattr(model, "_lockstep_probs", spy_lockstep)
    monkeypatch.setattr(model, "forward_pass", spy_forward)
    s = synthetic_split.test[0]
    for trained, lookahead in ((trained_model, True), (window_5_model, False)):
        blocks.clear()
        alone.clear()
        pat = extract_pattern(trained, s, s.label, tau=0.5, window=3,
                              lookahead=lookahead)
        assert pat is not None
        k = pat.crossing_index
        assert 2 * k <= len(s.tokens)  # so a scorer that does not stop fails
        # prefixes come in blocks 1, 2-3, 4-7, ...; the one holding k is the last
        block_end = 2 ** k.bit_length() - 1
        assert alone == list(range(1, trained.train_cfg.window // 2 + 1))
        assert alone + blocks == list(range(1, block_end + 1))
        assert len(alone + blocks) < 2 * k


def test_extract_pattern_unknown_relation(trained_model, synthetic_split):
    with pytest.raises(UnknownRelation):
        extract_pattern(trained_model, synthetic_split.test[0], "nope")


def test_fixed_curve_length_must_match_sentence():
    with pytest.raises(ValueError, match="curve length"):
        extract_pattern(FixedCurveModel((0.9, 0.9)), ("a", "b", "c"), "r")
