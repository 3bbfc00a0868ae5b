"""The one prefix scorer behind prefix curves and pattern extraction."""

import threading
from dataclasses import replace

import pytest

from cbrnn import model, train
from cbrnn.interpret import (
    FixedCurveModel,
    UnknownRelation,
    extract_pattern,
    mine_patterns,
    prefix_curve,
)


@pytest.fixture(scope="module")
def window_5_model(trained_model, synthetic_split):
    """The reference run with window 5, in fewer epochs."""
    return train(synthetic_split,
                 replace(trained_model.train_cfg, window=5, epochs=10))


@pytest.fixture(scope="module")
def h100_model(trained_model, synthetic_split):
    """The reference run at the SemEval shape, h100 d50, in two epochs."""
    return train(synthetic_split,
                 replace(trained_model.train_cfg, hidden_size=100,
                         embed_dim=50, epochs=2))


def test_extract_pattern_stops_scoring_at_the_crossing(trained_model,
                                                       window_5_model,
                                                       h100_model,
                                                       synthetic_split,
                                                       monkeypatch):
    """At h32 and h100, past the all-tail prefixes (1 for window 3, 1 and 2
    for window 5, each one ``forward_pass``), every prefix of a sentence is
    one lockstep block, whose tails are projected once. A curve runs every
    step of it; extraction runs it only up to the step that ends the
    crossing prefix."""
    blocks, alone, tailed = [], [], []

    def spy_lockstep(params, tails, proj_bwd, chain, state):
        blocks.append([state.shape[1], 0])
        for step in lockstep(params, tails, proj_bwd, chain, state):
            blocks[-1][1] += 1
            yield step

    def spy_tails(params, table, padded, half):
        tailed.append(half)
        return tails(params, table, padded, half)

    def spy_forward(params, x):
        alone.append(len(x))
        return forward(params, x)

    s = synthetic_split.test[0]
    # 24 words more, so that the block runs well past the crossing
    longer = replace(s, tokens=s.tokens + ("still",) * 24)
    n = len(longer.tokens)
    lockstep, forward, tails = model._lockstep, model.forward_pass, model._tails
    monkeypatch.setattr(model, "_lockstep", spy_lockstep)
    monkeypatch.setattr(model, "_tails", spy_tails)
    monkeypatch.setattr(model, "forward_pass", spy_forward)
    for trained, lookahead in ((trained_model, True), (window_5_model, False),
                               (h100_model, True)):
        half = trained.train_cfg.window // 2
        blocks.clear()
        alone.clear()
        tailed.clear()
        curve = [p.prob_target
                 for p in prefix_curve(trained, longer, s.label).points]
        assert blocks == [[n - half, n - half]]
        assert alone == list(range(1, half + 1))
        assert tailed == [half]
        # a tau the curve first reaches at its highest point in the first
        # half of the sentence
        tau = max(curve[:n // 2])
        crossing = curve.index(tau) + 1
        assert half < crossing < n
        blocks.clear()
        alone.clear()
        tailed.clear()
        pat = extract_pattern(trained, longer, s.label, tau=tau, window=3,
                              lookahead=lookahead)
        assert pat.crossing_index == crossing
        assert alone == list(range(1, half + 1))
        assert tailed == [half]
        assert blocks == [[n - half, crossing - half]]
    # a sentence of window // 2 words is all tail, one word more one block
    for words, want in ((2, []), (3, [[1, 1]])):
        blocks.clear()
        prefix_curve(window_5_model, s.tokens[:words], s.label)
        assert blocks == want


def test_curve_splits_its_block_from_the_constant_on(h100_model,
                                                     synthetic_split,
                                                     monkeypatch):
    """A curve whose block's first step does ``_SPLIT_WORK`` multiply-adds
    or more, on a process that may use two CPUs, runs the block's rows
    ``[m, rows)``, ``m = floor(rows / sqrt(2))``, on one worker thread, and
    ``[0, m)`` on the caller's; no thread outlives the call, and the curve
    keeps its values. Below the constant, on one CPU, and in extraction and
    mining, the block is one, on the caller's thread."""
    blocks = []

    def spy_lockstep(params, tails, proj_bwd, chain, state, first=0):
        blocks.append((first, first + state.shape[1], threading.get_ident()))
        yield from lockstep(params, tails, proj_bwd, chain, state, first)

    lockstep, caller = model._lockstep, threading.get_ident()
    monkeypatch.setattr(model, "_lockstep", spy_lockstep)
    s = synthetic_split.test[0]
    half = h100_model.train_cfg.window // 2
    # the fewest rows whose first step does _SPLIT_WORK multiply-adds at h100
    least = -(-model._SPLIT_WORK // 100 ** 2)
    threads = threading.active_count()
    for words in (half + least - 1, half + least, 160):
        tokens = (s.tokens + ("still",) * 160)[:words]
        rows = words - half
        curves = {}
        for cpus in (1, 2):
            monkeypatch.setattr(model, "_usable_cpus", lambda: cpus)
            blocks.clear()
            curves[cpus] = prefix_curve(h100_model, tokens, s.label).points
            assert threading.active_count() == threads
            if cpus == 2 and rows >= least:
                m = int(rows / 2 ** 0.5)
                shorter, longer = sorted(blocks)
                assert shorter == (0, m, caller)
                assert longer[:2] == (m, rows) and longer[2] != caller
            else:
                assert blocks == [(0, rows, caller)], (words, cpus)
        assert curves[1] == curves[2]
        blocks.clear()
        extract_pattern(h100_model, tokens, s.label, tau=0.99)
        assert blocks == [(0, rows, caller)]
        blocks.clear()
        mine_patterns(h100_model, [replace(s, tokens=tokens)], tau=0.99,
                      only_correct=False)
        assert blocks == [(0, rows, caller)]


def test_extract_pattern_unknown_relation(trained_model, synthetic_split):
    with pytest.raises(UnknownRelation):
        extract_pattern(trained_model, synthetic_split.test[0], "nope")


def test_fixed_curve_length_must_match_sentence():
    with pytest.raises(ValueError, match="curve length"):
        extract_pattern(FixedCurveModel((0.9, 0.9)), ("a", "b", "c"), "r")
