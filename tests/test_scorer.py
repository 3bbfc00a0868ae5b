"""The one prefix scorer behind prefix curves and pattern extraction."""

import pytest

from cbrnn import interpret
from cbrnn.interpret import FixedCurveModel, UnknownRelation, extract_pattern


def test_extract_pattern_stops_scoring_at_the_crossing(trained_model,
                                                       synthetic_split,
                                                       monkeypatch):
    forward_pass = interpret.forward_pass
    lengths = []

    def spy(params, x):
        lengths.append(len(x))
        return forward_pass(params, x)

    monkeypatch.setattr(interpret, "forward_pass", spy)
    s = synthetic_split.test[0]
    pat = extract_pattern(trained_model, s, s.label, tau=0.5, window=3)
    assert pat is not None and pat.crossing_index < len(s.tokens)
    assert lengths == list(range(1, pat.crossing_index + 1))


def test_extract_pattern_unknown_relation(trained_model, synthetic_split):
    with pytest.raises(UnknownRelation):
        extract_pattern(trained_model, synthetic_split.test[0], "nope")


def test_fixed_curve_length_must_match_sentence():
    with pytest.raises(ValueError, match="curve length"):
        extract_pattern(FixedCurveModel((0.9, 0.9)), ("a", "b", "c"), "r")
