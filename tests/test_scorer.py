"""The one prefix scorer behind prefix curves and pattern extraction."""

import pytest

from cbrnn import interpret
from cbrnn.interpret import FixedCurveModel, UnknownRelation, extract_pattern


def test_extract_pattern_stops_scoring_at_the_crossing(trained_model,
                                                       synthetic_split,
                                                       monkeypatch):
    prefix_inputs = interpret.prefix_inputs
    drawn = []

    def spy(*args):
        full, tails = prefix_inputs(*args)

        def counted():
            for k, tail in enumerate(tails, start=1):
                drawn.append(k)
                yield tail

        return full, counted()

    # the scorer draws each prefix's tail before it scores the prefix
    monkeypatch.setattr(interpret, "prefix_inputs", spy)
    s = synthetic_split.test[0]
    pat = extract_pattern(trained_model, s, s.label, tau=0.5, window=3)
    assert pat is not None
    k = pat.crossing_index
    assert 2 * k <= len(s.tokens)  # so a scorer that does not stop fails
    # prefixes come in blocks 1, 2-3, 4-7, ...; the one holding k is the last
    block_end = 2 ** k.bit_length() - 1
    assert drawn == list(range(1, block_end + 1))
    assert len(drawn) < 2 * k


def test_extract_pattern_unknown_relation(trained_model, synthetic_split):
    with pytest.raises(UnknownRelation):
        extract_pattern(trained_model, synthetic_split.test[0], "nope")


def test_fixed_curve_length_must_match_sentence():
    with pytest.raises(ValueError, match="curve length"):
        extract_pattern(FixedCurveModel((0.9, 0.9)), ("a", "b", "c"), "r")
