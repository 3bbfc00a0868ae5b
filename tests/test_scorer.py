"""The one prefix scorer behind prefix curves and pattern extraction."""

import threading
from dataclasses import replace

import numpy as np
import pytest

from cbrnn import interpret, model, train
from cbrnn.corpus import PAD_ID, MissingMarker
from cbrnn.embeddings import EmbeddingTable
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
    one lockstep block, whose inputs and tails are projected in one
    ``_project`` call, as each all-tail prefix's are in its ``forward_pass``.
    A curve runs every step of it; extraction runs it only up to the step
    that ends the crossing prefix."""
    blocks, alone, projected = [], [], []

    def spy_lockstep(params, tails, proj_bwd, chain, state):
        blocks.append([state.shape[1], 0])
        for step in lockstep(params, tails, proj_bwd, chain, state):
            blocks[-1][1] += 1
            yield step

    def spy_project(padded, w, out=None):
        projected.append(len(padded))
        return project(padded, w, out)

    def spy_forward(params, x):
        alone.append(len(x))
        return forward(params, x)

    s = synthetic_split.test[0]
    # 24 words more, so that the block runs well past the crossing
    longer = replace(s, tokens=s.tokens + ("still",) * 24)
    n = len(longer.tokens)
    lockstep, forward, project = model._lockstep, model.forward_pass, model._project
    monkeypatch.setattr(model, "_lockstep", spy_lockstep)
    monkeypatch.setattr(model, "_project", spy_project)
    monkeypatch.setattr(model, "forward_pass", spy_forward)
    for trained, lookahead in ((trained_model, True), (window_5_model, False),
                               (h100_model, True)):
        half = trained.train_cfg.window // 2
        blocks.clear()
        alone.clear()
        projected.clear()
        curve = [p.prob_target
                 for p in prefix_curve(trained, longer, s.label).points]
        assert blocks == [[n - half, n - half]]
        assert alone == list(range(1, half + 1))
        assert len(projected) == half + 1
        # a tau the curve first reaches at its highest point in the first
        # half of the sentence
        tau = max(curve[:n // 2])
        crossing = curve.index(tau) + 1
        assert half < crossing < n
        blocks.clear()
        alone.clear()
        projected.clear()
        pat = extract_pattern(trained, longer, s.label, tau=tau, window=3,
                              lookahead=lookahead)
        assert pat.crossing_index == crossing
        assert alone == list(range(1, half + 1))
        assert len(projected) == half + 1
        assert blocks == [[n - half, crossing - half]]
    # a sentence of window // 2 words is all tail, one word more one block;
    # neither has a marker layout, so the prefix scorer reads their ids
    ids = window_5_model.vocab.encode(s.tokens)
    for words, want in ((2, []), (3, [[1, 1]])):
        blocks.clear()
        list(model.prefix_states(window_5_model.params, window_5_model.table,
                                 ids[:words], 5))
        assert blocks == want


def test_curve_splits_its_block_from_the_constant_on(h100_model,
                                                     synthetic_split,
                                                     monkeypatch):
    """A block whose first step does ``_SPLIT_WORK`` multiply-adds or more,
    on a process that may use two CPUs, runs its rows ``[m, rows)``,
    ``m = floor(rows / sqrt(2))``, on one worker thread, and ``[0, m)`` on
    the caller's: for a curve, for extraction and for ``--all`` mining
    alike. Below the constant, and on one CPU, the block is one, on the
    caller's thread. No thread outlives a call, and the curve and the
    extraction keep their values."""
    blocks = []

    def spy_lockstep(params, tails, proj_bwd, chain, state, first=0,
                     stop=None):
        blocks.append((first, first + state.shape[1], threading.get_ident()))
        yield from lockstep(params, tails, proj_bwd, chain, state, first, stop)

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
        m = int(rows / 2 ** 0.5)
        curves, found = {}, {}
        for cpus in (1, 2):
            monkeypatch.setattr(model, "_usable_cpus", lambda: cpus)
            blocks.clear()
            curves[cpus] = prefix_curve(h100_model, tokens, s.label).points
            # above every prefix's probability, so that extraction and
            # mining score every prefix
            tau = (max(p.prob_target for p in curves[cpus]) + 1.0) / 2
            found[cpus] = extract_pattern(h100_model, tokens, s.label, tau=tau)
            mine_patterns(h100_model, [replace(s, tokens=tokens)], tau=tau,
                          only_correct=False)
            assert threading.active_count() == threads
            if cpus == 2 and rows >= least:
                for i in range(0, 6, 2):
                    shorter, longer = sorted(blocks[i:i + 2])
                    assert shorter == (0, m, caller)
                    assert longer[:2] == (m, rows) and longer[2] != caller
                assert len(blocks) == 6
            else:
                assert blocks == [(0, rows, caller)] * 3, (words, cpus)
        assert curves[1] == curves[2]
        assert found[1] is found[2] is None


class HeldStop:
    """A worker's stop flag that holds the worker at its first step until
    the flag is set, so that what the worker ran does not hang on how the
    threads are scheduled, and counts the steps it ran."""

    def __init__(self, stop):
        self.flag, self.checks, self.ran = stop, 0, 0

    def is_set(self):
        if not self.checks:
            self.flag.wait(timeout=30)
        self.checks += 1
        self.ran += not self.flag.is_set()
        return self.flag.is_set()


def test_stopping_early_stops_and_joins_the_worker(h100_model,
                                                   synthetic_split,
                                                   monkeypatch):
    """On a 160-word sentence at h100 with two CPUs, extraction and mining
    that cross within the first 10 words, extraction that raises, and a
    scorer closed after its first yield each set the worker's stop flag
    and join it: the worker ran fewer steps than its part has, and the
    thread count is what it was."""
    held = []

    def spy_lockstep(params, tails, proj_bwd, chain, state, first=0,
                     stop=None):
        if stop is not None:
            held.append(HeldStop(stop))
            stop = held[-1]
        yield from lockstep(params, tails, proj_bwd, chain, state, first, stop)

    def worker_stopped():
        # the worker's part runs one step per word of the sentence
        assert len(held) == 1 and held[0].checks >= 1
        assert held[0].ran < n
        assert threading.active_count() == threads
        held.clear()

    lockstep = model._lockstep
    monkeypatch.setattr(model, "_usable_cpus", lambda: 2)
    s = synthetic_split.test[0]
    tokens = (s.tokens + ("still",) * 160)[:160]
    n, half = len(tokens), h100_model.train_cfg.window // 2
    # a relation whose curve first reaches its highest point among the
    # first 10 prefixes past the all-tail ones
    for relation in h100_model.label_set:
        curve = [p.prob_target
                 for p in prefix_curve(h100_model, tokens, relation).points]
        tau = max(curve[half:10])
        crossing = next(k for k, p in enumerate(curve, start=1) if p >= tau)
        if crossing > half:
            break
    assert half < crossing <= 10
    monkeypatch.setattr(model, "_lockstep", spy_lockstep)
    threads = threading.active_count()
    pat = extract_pattern(h100_model, tokens, relation, tau=tau)
    assert pat.crossing_index == crossing
    worker_stopped()
    table = mine_patterns(h100_model, [replace(s, tokens=tokens,
                                               label=relation)],
                          tau=tau, only_correct=False)
    assert [e.support for e in table.entries] == [1]
    worker_stopped()
    # the output layer fails at the prefix after the crossing's
    calls = []

    def failing_softmax(scores):
        calls.append(1)
        if len(calls) > crossing:
            raise FloatingPointError("stop")
        return softmax(scores)

    softmax = model.softmax
    monkeypatch.setattr(model, "softmax", failing_softmax)
    with pytest.raises(FloatingPointError):
        extract_pattern(h100_model, tokens, relation, tau=1.0 - 1e-12)
    worker_stopped()
    monkeypatch.setattr(model, "softmax", softmax)
    # with lookahead no prefix is all tail: the first yield is the block's
    ids = h100_model.vocab.encode(tokens)
    states = model.prefix_states(h100_model.params, h100_model.table, ids,
                                 h100_model.train_cfg.window, lookahead=True)
    next(states)
    states.close()
    worker_stopped()


def spy_shared_blocks(monkeypatch):
    """The sentences of each shared block made from now on, in a list."""
    blocks, shared_block = [], model._shared_block

    def spy(params, table, ids, *rest):
        blocks.append(ids)
        return shared_block(params, table, ids, *rest)

    monkeypatch.setattr(model, "_shared_block", spy)
    return blocks


@pytest.mark.parametrize("window", [1, 3, 5])
@pytest.mark.parametrize("lookahead", [False, True])
def test_bad_input_raises_before_the_first_yield(window, lookahead,
                                                 monkeypatch):
    """An empty sentence, and a cache whose input is narrower than the
    weights, raise before the scorer yields anything, whether or not the
    sentence has all-tail prefixes: through ``prefix_states``, and through
    ``prefix_probs_many``, alone and in a shared block."""
    rng = np.random.default_rng(0)
    dim, width = 2, 2 * window
    params = model.init_params(width, 4, 3, rng)
    matrix = rng.uniform(-0.1, 0.1, size=(6, dim))
    matrix[PAD_ID] = 0.0
    table, ids = EmbeddingTable(matrix), [1, 2, 3, 4, 5]
    narrow = model.forward_pass(model.init_params(width - 1, 4, 3, rng),
                                np.ones((len(ids), width - 1)))
    empty, too_narrow = "empty id sequence", f"input dim {width - 1} != "
    with pytest.raises(ValueError, match=empty):
        next(model.prefix_states(params, table, [], window, lookahead))
    with pytest.raises(model.ShapeMismatch, match=too_narrow):
        next(model.prefix_states(params, table, ids, window, lookahead, narrow))
    blocks = spy_shared_blocks(monkeypatch)
    # one sentence alone gets its own scorer, two share a block
    for count in (1, 2):
        blocks.clear()
        scorers = model.prefix_probs_many(params, table, [[]] + [ids] * count,
                                          window)
        assert blocks == [[ids] * count] * (count - 1)
        with pytest.raises(ValueError, match=empty):
            next(scorers[0])
        with pytest.raises(model.ShapeMismatch, match=too_narrow):
            for probs in model.prefix_probs_many(params, table, [ids] * count,
                                                 window, [narrow] * count):
                next(probs)


def test_a_step_that_raised_makes_the_other_sentences_raise(monkeypatch):
    """When a shared block's output layer raises at one step, the sentence
    that ran the step gets the error, and another sentence of the block
    reads every prefix before that step and then raises too, rather than
    ending early with its later prefixes unscored."""
    rng = np.random.default_rng(1)
    window, dim = 3, 2
    params = model.init_params(window * dim, 4, 3, rng)
    matrix = rng.uniform(-0.1, 0.1, size=(6, dim))
    matrix[PAD_ID] = 0.0
    table = EmbeddingTable(matrix)
    ids = [[1, 2, 3, 4, 5, 1, 2, 3, 4, 5], [5, 4, 3, 2, 1, 5, 4, 3, 2]]
    steps = []

    def failing_softmax(scores):
        # the block's output layer scores a row per sentence, an all-tail
        # prefix's forward_pass one vector
        if scores.ndim == 2:
            steps.append(1)
            if len(steps) == 3:
                raise FloatingPointError("step 3")
        return softmax(scores)

    softmax = model.softmax
    monkeypatch.setattr(model, "softmax", failing_softmax)
    blocks = spy_shared_blocks(monkeypatch)
    first, second = model.prefix_probs_many(params, table, ids, window)
    assert blocks == [ids]
    # prefix 1 is all tail; block step j ends prefix 1 + j
    for _ in range(3):
        next(first)
    with pytest.raises(FloatingPointError, match="step 3"):
        next(first)
    read = 0
    with pytest.raises(RuntimeError):
        for _ in second:
            read += 1
    assert read == 3
    assert len(steps) == 3


def test_empty_sentence_is_rejected_before_it_is_scored(trained_model,
                                                         synthetic_split,
                                                         monkeypatch):
    """A curve and an extraction of an empty sentence, or of words with no
    markers, refuse it as ``predict`` does, with and without lookahead,
    before the prefix scorer is reached."""
    def no_scoring(*args, **kwargs):
        pytest.fail("the sentence was scored")

    monkeypatch.setattr(model, "_prefix_operands", no_scoring)
    label = synthetic_split.test[0].label
    for tokens in ((), ("a", "b", "c")):
        for lookahead in (False, True):
            with pytest.raises(MissingMarker, match="^marker <e1> missing$"):
                prefix_curve(trained_model, tokens, label, lookahead)
            with pytest.raises(MissingMarker, match="^marker <e1> missing$"):
                extract_pattern(trained_model, tokens, label,
                                lookahead=lookahead)
        with pytest.raises(MissingMarker, match="^marker <e1> missing$"):
            model.predict(trained_model, tokens)


def test_extract_pattern_unknown_relation(trained_model, synthetic_split):
    with pytest.raises(UnknownRelation):
        extract_pattern(trained_model, synthetic_split.test[0], "nope")


def test_fixed_curve_length_must_match_sentence():
    with pytest.raises(ValueError, match="curve length"):
        extract_pattern(FixedCurveModel((0.9, 0.9)), ("a", "b", "c"), "r")
