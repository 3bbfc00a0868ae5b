"""Vectorised kernels against loop references.

The references below are the original per-step implementations: BPTT with
one outer product per step and matrix, window composition and gradient
scatter with one slice per window slot, a dense embedding update, and a
training loop over separate weight arrays updated one by one. They live
here only, as the specification the fast kernels must meet. The lockstep
prefix scorer must give, bit for bit, what one ``forward_pass`` per prefix
gives, and the batched pass what one ``forward_pass`` per sentence gives;
both rest on the input projection giving each row the same bits whatever
the number of rows projected with it and whatever the other rows of its
block hold.
"""

import sys
import threading
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cbrnn.corpus import (
    MARKERS,
    PAD_ID,
    PAD_TOKEN,
    UNK_TOKEN,
    LabeledSentence,
    SyntheticConfig,
    Vocabulary,
    build_vocabulary,
    generate_synthetic,
)
from cbrnn.embeddings import (
    EmbeddingTable,
    SentenceWindows,
    compose_ngram_inputs,
    init_random,
    input_grads_to_embeddings,
    load_pretrained_text,
)
from cbrnn import interpret, model
from cbrnn.model import (
    CBRNNParams,
    LossConfig,
    ShapeMismatch,
    TrainConfig,
    TrainedModel,
    _ROW_BLOCK,
    _checked_input,
    _project,
    class_scores,
    evaluate,
    forward_many,
    forward_pass,
    init_params,
    load_model,
    loss_gradients,
    predict,
    prefix_states,
    ranking_loss,
    save_model,
    sgd_step,
    softmax,
    train,
)

VOCAB = 6  # small, so that ids repeat and PAD_ID turns up inside sentences


def reference_compose(ids, matrix, window):
    half = window // 2
    n = len(ids)
    dim = matrix.shape[1]
    out = np.zeros((n, window * dim))
    for k in range(n):
        for j, pos in enumerate(range(k - half, k + half + 1)):
            if 0 <= pos < n:
                out[k, j * dim:(j + 1) * dim] = matrix[ids[pos]]
    return out


def reference_scatter(d_inputs, ids, window, vocab_size, dim):
    half = window // 2
    n = len(ids)
    grads = np.zeros((vocab_size, dim))
    for k in range(n):
        for j, pos in enumerate(range(k - half, k + half + 1)):
            if 0 <= pos < n:
                grads[ids[pos]] += d_inputs[k, j * dim:(j + 1) * dim]
    grads[PAD_ID] = 0.0
    return grads


def reference_loss_gradients(params, cache, y_plus, cfg):
    x = cache.inputs
    n = x.shape[0]
    hidden = params.hidden_size

    def sigmoid(z):
        return 0.5 * (1.0 + np.tanh(0.5 * z))

    _, c_minus = ranking_loss(cache.scores, y_plus, cfg)
    d_scores = np.zeros(params.n_classes)
    d_scores[y_plus] -= cfg.gamma * sigmoid(
        cfg.gamma * (cfg.m_plus - cache.scores[y_plus]))
    d_scores[c_minus] += cfg.gamma * sigmoid(
        cfg.gamma * (cfg.m_minus + cache.scores[c_minus]))

    g = CBRNNParams(
        in_fwd=np.zeros_like(params.in_fwd),
        in_bwd=np.zeros_like(params.in_bwd),
        rec_fwd=np.zeros_like(params.rec_fwd),
        rec_bwd=np.zeros_like(params.rec_bwd),
        rec_comb=np.zeros_like(params.rec_comb),
        out_w=np.outer(cache.h_comb[n - 1], d_scores),
        out_b=d_scores.copy(),
    )
    d_inputs = np.zeros_like(x)
    d_h_fwd = np.zeros((n, hidden))
    d_h_bwd = np.zeros((n, hidden))
    d_h_comb = np.zeros((n, hidden))
    d_h_comb[n - 1] = params.out_w @ d_scores

    for t in range(n - 1, -1, -1):
        da = d_h_comb[t] * (1.0 - cache.h_comb[t] ** 2)
        if t > 0:
            g.rec_comb += np.outer(cache.h_comb[t - 1], da)
            d_h_comb[t - 1] += params.rec_comb @ da
        d_h_fwd[t] += da
        d_h_bwd[n - 1 - t] += da

    for t in range(n - 1, -1, -1):
        da = d_h_fwd[t] * (1.0 - cache.h_fwd[t] ** 2)
        g.in_fwd += np.outer(x[t], da)
        if t > 0:
            g.rec_fwd += np.outer(cache.h_fwd[t - 1], da)
            d_h_fwd[t - 1] += params.rec_fwd @ da
        d_inputs[t] += params.in_fwd @ da

    for p in range(n):
        da = d_h_bwd[p] * (1.0 - cache.h_bwd[p] ** 2)
        g.in_bwd += np.outer(x[p], da)
        if p < n - 1:
            g.rec_bwd += np.outer(cache.h_bwd[p + 1], da)
            d_h_bwd[p + 1] += params.rec_bwd @ da
        d_inputs[p] += params.in_bwd @ da
    return g, d_inputs


def reference_sgd_embeddings(matrix, grads, emb_grads, learning_rate, clip_norm):
    arrays = [*grads.arrays().values(), emb_grads]
    norm = np.sqrt(sum(float(np.sum(a ** 2)) for a in arrays))
    scale = 1.0 if norm <= clip_norm else clip_norm / norm
    return matrix - learning_rate * scale * emb_grads


def random_table(seed, dim):
    matrix = np.random.default_rng(seed).uniform(-0.1, 0.1, size=(VOCAB, dim))
    matrix[PAD_ID] = 0.0
    return EmbeddingTable(matrix=matrix)


sentences = st.lists(st.integers(0, VOCAB - 1), min_size=1, max_size=9)
windows = st.sampled_from([1, 3, 5])
seeds = st.integers(0, 2 ** 16)


@given(ids=sentences, window=windows, dim=st.integers(1, 4), seed=seeds)
@example(ids=[PAD_ID], window=5, dim=2, seed=0)
def test_compose_bit_equal_to_loop(ids, window, dim, seed):
    table = random_table(seed, dim)
    fast = compose_ngram_inputs(ids, table, window)
    ref = reference_compose(ids, table.matrix, window)
    assert fast.shape == ref.shape
    assert fast.tobytes() == ref.tobytes()


@given(ids=sentences, window=windows, dim=st.integers(1, 4), seed=seeds)
@example(ids=[PAD_ID], window=3, dim=2, seed=0)
def test_sparse_scatter_equals_dense_rows(ids, window, dim, seed):
    rng = np.random.default_rng(seed)
    d_inputs = rng.normal(size=(len(ids), window * dim))
    row_ids, row_grads = input_grads_to_embeddings(d_inputs, ids, window,
                                                   VOCAB, dim)
    assert list(row_ids) == sorted(set(ids) - {PAD_ID})
    assert row_grads.shape == (len(row_ids), dim)
    assert row_grads.dtype == np.float64
    dense = np.zeros((VOCAB, dim))
    dense[row_ids] = row_grads
    assert dense.tobytes() == reference_scatter(d_inputs, ids, window,
                                                VOCAB, dim).tobytes()


@settings(deadline=None)
@given(n=st.integers(1, 7), window=windows, dim=st.integers(1, 3),
       hidden=st.integers(1, 6), n_classes=st.integers(2, 4), seed=seeds)
@example(n=1, window=1, dim=1, hidden=1, n_classes=2, seed=0)
def test_loss_gradients_match_per_step_bptt(n, window, dim, hidden,
                                            n_classes, seed):
    rng = np.random.default_rng(seed)
    params = init_params(window * dim, hidden, n_classes, rng)
    x = rng.uniform(-1.0, 1.0, size=(n, window * dim))
    y_plus = int(rng.integers(n_classes))
    cache = forward_pass(params, x)
    loss, grads, d_inputs = loss_gradients(params, cache, y_plus, LossConfig())
    ref, ref_d_inputs = reference_loss_gradients(params, cache, y_plus,
                                                 LossConfig())
    assert loss == ranking_loss(cache.scores, y_plus, LossConfig())[0]
    fast = {**grads.arrays(), "d_inputs": d_inputs}
    for name, want in {**ref.arrays(), "d_inputs": ref_d_inputs}.items():
        # the sums run in another order; an entry whose terms cancel keeps
        # only an absolute error of the size of the array's larger entries
        np.testing.assert_allclose(fast[name], want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max(),
                                   err_msg=name)


@settings(deadline=None)
@given(n=st.integers(1, 7), window=windows, dim=st.integers(1, 3),
       hidden=st.integers(1, 6), n_classes=st.integers(2, 4),
       scale=st.sampled_from([1.0, 30.0, 3000.0]), seed=seeds)
@example(n=1, window=1, dim=1, hidden=1, n_classes=2, scale=3000.0, seed=0)
def test_loss_gradients_into_a_given_buffer(n, window, dim, hidden, n_classes,
                                            scale, seed):
    """Gradients written into a container full of nan are those of a fresh
    call, and those of the step with the combined chain seeded through a
    zero (n, hidden) array, bit for bit. Weights x30 drive the states
    towards saturation, x3000 onto tanh = +-1, whose zero derivatives give
    signed zeros."""
    rng = np.random.default_rng(seed)
    params = init_params(window * dim, hidden, n_classes, rng)
    params.buffer *= scale
    x = rng.uniform(-1.0, 1.0, size=(n, window * dim))
    y_plus = int(rng.integers(n_classes))
    cache = forward_pass(params, x)
    loss, fresh, d_inputs = loss_gradients(params, cache, y_plus, LossConfig())
    out = params.empty_like()
    out.buffer.fill(np.nan)
    got = loss_gradients(params, cache, y_plus, LossConfig(), out=out)
    assert got[0] == loss and got[1] is out
    assert out.buffer.tobytes() == fresh.buffer.tobytes()
    assert got[2].tobytes() == d_inputs.tobytes()
    want, want_d_inputs = reference_weight_grads(params.arrays(), cache, y_plus,
                                                 LossConfig())
    for name, array in out.arrays().items():
        assert array.tobytes() == want[name].tobytes(), name
    assert d_inputs.tobytes() == want_d_inputs.tobytes()


@settings(deadline=None)
@given(ids=sentences, window=windows, seed=seeds,
       clip_norm=st.sampled_from([1e-3, 5.0]))
def test_sparse_sgd_step_matches_dense_update(ids, window, seed, clip_norm):
    dim, hidden = 2, 3
    rng = np.random.default_rng(seed)
    table = random_table(seed, dim)
    params = init_params(window * dim, hidden, 3, rng)
    cache = forward_pass(params, compose_ngram_inputs(ids, table, window))
    _, grads, d_inputs = loss_gradients(params, cache, 0, LossConfig())
    emb_grads = input_grads_to_embeddings(d_inputs, ids, window, VOCAB, dim)
    expected = reference_sgd_embeddings(
        table.matrix, grads,
        reference_scatter(d_inputs, ids, window, VOCAB, dim),
        0.1, clip_norm)
    sgd_step(params, grads, 0.1, clip_norm, table, emb_grads)
    untouched = np.setdiff1d(np.arange(VOCAB), emb_grads[0])
    assert table.matrix[untouched].tobytes() == expected[untouched].tobytes()
    np.testing.assert_allclose(table.matrix, expected, rtol=1e-12)


@given(ids=sentences, window=windows, dim=st.integers(1, 4), seed=seeds)
@example(ids=[PAD_ID], window=5, dim=2, seed=0)
def test_sentence_windows_compose_and_scatter_bit_equal(ids, window, dim, seed):
    """A sentence's windows, built once, give the composition and the
    scatter that the sentence's ids give."""
    table = random_table(seed, dim)
    prebuilt = SentenceWindows(ids, window)
    assert len(prebuilt) == len(ids)
    x = compose_ngram_inputs(prebuilt, table, window)
    assert x.tobytes() == compose_ngram_inputs(ids, table, window).tobytes()
    assert x.tobytes() == reference_compose(ids, table.matrix, window).tobytes()
    d_inputs = np.random.default_rng(seed).normal(size=x.shape)
    row_ids, row_grads = input_grads_to_embeddings(d_inputs, prebuilt, window,
                                                   VOCAB, dim)
    assert list(row_ids) == sorted(set(ids) - {PAD_ID})
    dense = np.zeros((VOCAB, dim))
    dense[row_ids] = row_grads
    assert dense.tobytes() == reference_scatter(d_inputs, ids, window,
                                                VOCAB, dim).tobytes()
    with pytest.raises(ValueError):
        compose_ngram_inputs(prebuilt, table, window + 2)


@pytest.mark.parametrize("bad", [-1, VOCAB])
def test_scatter_rejects_ids_outside_the_table(bad):
    with pytest.raises(IndexError):
        input_grads_to_embeddings(np.ones((2, 2)), [1, bad], 1, VOCAB, 2)


def reference_bptt(rec, h, d_ext):
    """BPTT through ``h[s] = tanh(... + h[s-1] @ rec)`` with the gradient
    ``d_ext[s]`` reaching every state from outside the chain, zero rows
    included: the pre-activation gradient of every step."""
    deriv = 1.0 - h ** 2
    dA = np.empty(h.shape)
    d = d_ext[-1]
    for s in range(len(h) - 1, -1, -1):
        da = np.multiply(d, deriv[s], out=dA[s])
        if s:
            d = d_ext[s - 1] + rec.dot(da)
    return dA


def reference_weight_grads(p, cache, y_plus, cfg):
    """``loss_gradients`` with every weight gradient its own new array and
    the combined chain's gradient seeded through a zero (n, hidden) array."""
    x = cache.inputs
    n = len(x)
    _, c_minus = ranking_loss(cache.scores, y_plus, cfg)
    d_scores = np.zeros(len(p["out_b"]))
    d_scores[y_plus] -= cfg.gamma * model._sigmoid(
        cfg.gamma * (cfg.m_plus - cache.scores[y_plus]))
    d_scores[c_minus] += cfg.gamma * model._sigmoid(
        cfg.gamma * (cfg.m_minus + cache.scores[c_minus]))
    d_top = np.zeros(cache.h_comb.shape)
    d_top[n - 1] = p["out_w"] @ d_scores
    dA_comb = reference_bptt(p["rec_comb"], cache.h_comb, d_top)
    dA_fwd = reference_bptt(p["rec_fwd"], cache.h_fwd, dA_comb)
    dA_bwd = reference_bptt(p["rec_bwd"], cache.h_bwd[::-1], dA_comb)[::-1]
    grads = {
        "in_fwd": x.T @ dA_fwd,
        "in_bwd": x.T @ dA_bwd,
        "rec_fwd": cache.h_fwd[:-1].T @ dA_fwd[1:],
        "rec_bwd": cache.h_bwd[1:].T @ dA_bwd[:-1],
        "rec_comb": cache.h_comb[:-1].T @ dA_comb[1:],
        "out_w": np.outer(cache.h_comb[n - 1], d_scores),
        "out_b": d_scores.copy(),
    }
    return grads, dA_fwd @ p["in_fwd"].T + dA_bwd @ p["in_bwd"].T


def reference_train(split, cfg, loss_cfg, pretrained=None):
    """``train`` over separate weight arrays, each updated on its own, with
    every step composing and scattering through the loop references.
    Returns the model and the number of steps that clipped."""
    vocab = build_vocabulary(split.train, min_count=cfg.min_count)
    rng = np.random.default_rng(cfg.seed)
    table = init_random(vocab, cfg.embed_dim, cfg.seed)
    shapes = CBRNNParams.shapes(cfg.window * cfg.embed_dim, cfg.hidden_size,
                                len(split.label_set))
    p = {name: rng.uniform(-0.1, 0.1, size=shape)
         for name, shape in shapes.items() if name != "out_b"}
    p["out_b"] = np.zeros(shapes["out_b"])
    if pretrained:
        table = load_pretrained_text(pretrained, vocab, cfg.embed_dim,
                                     fallback_seed=cfg.seed)
    labels = {lab: i for i, lab in enumerate(split.label_set)}
    encoded = [(vocab.encode(s.tokens), labels[s.label])
               for s in split.train]

    def loose(arrays):
        # forward_pass reads the input matrices stacked, as CBRNNParams.in_pair
        return SimpleNamespace(**arrays, hidden_size=cfg.hidden_size,
                               in_pair=np.array([arrays["in_fwd"], arrays["in_bwd"]]))

    def as_model(arrays, matrix, params=None):
        params = params or loose(arrays)
        return TrainedModel(params, EmbeddingTable(matrix), vocab,
                            list(split.label_set), cfg, loss_cfg)

    def snapshot():
        return {k: v.copy() for k, v in p.items()}, table.matrix.copy()

    best, best_acc, history, clipped = snapshot(), -1.0, [], 0
    for epoch in range(1, cfg.epochs + 1):
        total = 0.0
        for i in rng.permutation(len(encoded)):
            ids, y = encoded[i]
            x = reference_compose(ids, table.matrix, cfg.window)
            cache = forward_pass(loose(p), x)
            total += ranking_loss(cache.scores, y, loss_cfg)[0]
            grads, d_inputs = reference_weight_grads(p, cache, y, loss_cfg)
            rows = np.array(sorted(set(ids) - {PAD_ID}), dtype=np.intp)
            row_grads = reference_scatter(d_inputs, ids, cfg.window, vocab.size,
                                          cfg.embed_dim)[rows]
            norm = np.sqrt(sum(float(np.vdot(a, a))
                               for a in [*grads.values(), row_grads]))
            clipped += bool(norm > cfg.clip_norm)
            scale = 1.0 if norm <= cfg.clip_norm else cfg.clip_norm / norm
            step = cfg.learning_rate * scale
            for name, grad in grads.items():
                p[name] -= step * grad
            table.matrix[rows] -= step * row_grads
        dev = split.dev or split.train
        current = as_model(p, table.matrix)
        acc = sum(1 for s in dev if predict(current, s)[0] == s.label) / len(dev)
        history.append((epoch, total / len(encoded), acc))
        if acc >= best_acc:
            best, best_acc = snapshot(), acc
    result = as_model(*best, params=CBRNNParams(**best[0]))
    result.history = history
    return result, clipped


@pytest.mark.parametrize("window", [1, 3, 5])
@pytest.mark.parametrize("clip_norm", [1e-3, 5.0])
@pytest.mark.parametrize("pretrained", [False, True])
def test_train_bit_equal_to_per_array_loop(tmp_path, window, clip_norm, pretrained):
    """The one-buffer update and the per-sentence windows write the model
    file the per-array loop writes, byte for byte; a clip norm of 1e-3
    clips every step."""
    split = generate_synthetic(SyntheticConfig(2, 20, seed=window))
    cfg = TrainConfig(epochs=3, seed=window, window=window, hidden_size=5,
                      embed_dim=3, clip_norm=clip_norm)
    vectors = None
    if pretrained:
        vectors = tmp_path / "vectors.txt"
        words = sorted({t for s in split.train for t in s.tokens})[::2]
        rng = np.random.default_rng(window)
        vectors.write_text("".join(
            f"{w} {' '.join(f'{v:.17g}' for v in rng.uniform(-0.5, 0.5, 3))}\n"
            for w in words))
    want, clipped = reference_train(split, cfg, LossConfig(), vectors)
    if clip_norm == 1e-3:
        assert clipped == cfg.epochs * len(split.train)
    got = train(split, cfg, LossConfig(), pretrained=vectors)
    assert got.history == want.history
    save_model(want, tmp_path / "want.txt")
    save_model(got, tmp_path / "got.txt")
    assert (tmp_path / "got.txt").read_bytes() == (tmp_path / "want.txt").read_bytes()


def test_every_params_container_is_one_buffer(tmp_path):
    """However a ``CBRNNParams`` is built, its arrays are consecutive views,
    in field order, of one float64 buffer that starts on a cache line; a
    copy shares no memory."""
    rng = np.random.default_rng(0)
    drawn = init_params(6, 3, 2, rng)
    cache = forward_pass(drawn, rng.uniform(-1.0, 1.0, size=(5, 6)))
    trained = train(generate_synthetic(SyntheticConfig(2, 20, seed=1)),
                    TrainConfig(epochs=1, hidden_size=3, embed_dim=2))
    save_model(trained, tmp_path / "m.txt")
    built = {
        "init_params": drawn,
        "direct": CBRNNParams(**{k: v.tolist() for k, v in drawn.arrays().items()}),
        "copy": drawn.copy(),
        "empty_like": drawn.empty_like(),
        "loss_gradients": loss_gradients(drawn, cache, 1, LossConfig())[1],
        "train": trained.params,
        "load_model": load_model(tmp_path / "m.txt").params,
    }
    for how, params in built.items():
        buffer = params.buffer
        assert buffer.dtype == np.float64 and buffer.ndim == 1, how
        assert buffer.flags.c_contiguous, how
        start = 0
        for name, array in params.arrays().items():
            assert np.shares_memory(array, buffer), (how, name)
            assert array.flags.c_contiguous, (how, name)
            offset = array.ctypes.data - buffer.ctypes.data
            assert offset == start * buffer.itemsize, (how, name)
            start += array.size
        assert start == buffer.size, how
        assert buffer.ctypes.data % 64 == 0, how
    assert built["direct"].buffer.tobytes() == drawn.buffer.tobytes()
    assert built["copy"].buffer.tobytes() == drawn.buffer.tobytes()
    for how in ("copy", "direct", "empty_like"):
        assert not np.shares_memory(built[how].buffer, drawn.buffer), how


def test_weight_pairs_are_views_of_the_buffer(tmp_path, trained_model):
    """``in_pair`` and ``rec_all`` stack two and three weight arrays
    without a copy, so an update of the buffer shows in them."""
    save_model(trained_model, tmp_path / "m.txt")
    drawn = init_params(6, 3, 2, np.random.default_rng(0))
    built = {
        "init_params": drawn,
        "copy": drawn.copy(),
        "empty_like": drawn.empty_like(),
        "load_model": load_model(tmp_path / "m.txt").params,
    }
    for how, params in built.items():
        params.buffer[...] = np.arange(len(params.buffer))
        for stack, names in ((params.in_pair, ("in_fwd", "in_bwd")),
                             (params.rec_all, ("rec_fwd", "rec_bwd",
                                               "rec_comb"))):
            assert np.shares_memory(stack, params.buffer), (how, names)
            for view, name in zip(stack, names):
                assert view.ctypes.data == getattr(params, name).ctypes.data
            assert np.array_equal(stack, np.array([getattr(params, name)
                                                   for name in names])), how
        params.buffer += 1.0
        assert np.array_equal(params.in_pair[1], params.in_bwd), how
        assert np.array_equal(params.rec_all[2], params.rec_comb), how


def assert_prefix_probs_bit_equal(params, ids, table, window, stop=None):
    """Every prefix's probabilities against ``forward_pass`` on the prefix
    composed on its own, or on the sentence's rows with ``lookahead``, as
    the two callers of ``prefix_states`` read them: row by row as each
    prefix ends, through the output layer one row at a time (pattern
    extraction), and from the last yield, through one stacked output matmul
    and one row-wise softmax (curves). Both with and without the sentence's
    cache (its input and forward chain) handed in; and, with ``stop``, those
    of a caller that stops after prefix ``stop``."""
    full = compose_ngram_inputs(ids, table, window)
    prefixes = [compose_ngram_inputs(ids[:k], table, window)
                for k in range(1, len(ids) + 1)]
    # the scorer's own input and forward chain, and those of the caches
    # forward_pass and forward_many give
    caches = (None, forward_pass(params, full), forward_many(params, [full])[0])
    out_w, out_b = params.out_w, params.out_b
    for lookahead, inputs in ((False, prefixes),
                              (True, [full[:k] for k in range(1, len(ids) + 1)])):
        want = [forward_pass(params, x).probs.tobytes() for x in inputs]
        for cache in caches:
            lazy = []
            for k, comb in enumerate(prefix_states(params, table, ids, window,
                                                   lookahead, cache)):
                lazy.append(softmax(comb[k, 0] @ out_w + out_b).tobytes())
            assert len(lazy) == len(ids)
            for k, (row, expected) in enumerate(zip(lazy, want), start=1):
                assert row == expected, k
            # comb is the last yield
            curve = softmax(np.matmul(comb, out_w)[:, 0] + out_b)
            assert curve.shape == (len(ids), params.n_classes)
            assert [row.tobytes() for row in curve] == want
            if stop is not None:
                states = prefix_states(params, table, ids, window, lookahead,
                                       cache)
                for k, expected in enumerate(want[:stop]):
                    row = softmax(next(states)[k, 0] @ out_w + out_b)
                    assert row.tobytes() == expected, k + 1
                states.close()


def curve_states(params, table, ids, window, lookahead=False):
    """The last yield of ``prefix_states``, as a curve reads it."""
    *_, comb = prefix_states(params, table, ids, window, lookahead)
    return comb


def projection(x, w):
    """The input projection ``forward_pass`` applies to ``x``."""
    return _project(_checked_input(SimpleNamespace(in_fwd=w), x)[1], w)[:len(x)]


@settings(deadline=None, max_examples=40)
@given(shape=st.sampled_from([(48, 32), (150, 100), (900, 300)]),
       n=st.integers(1, 140), data=st.data(), seed=seeds)
def test_projection_rows_do_not_depend_on_the_row_count(shape, n, data, seed):
    """Row r of the projection of a prefix, also of one whose last rows
    differ from the sentence's, is row r of the whole sentence's: OpenBLAS
    takes other paths on either side of its small-matrix cut-off, and the
    shapes sit on both sides of it."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(n, shape[0]))
    w = rng.uniform(-1.0, 1.0, size=shape)
    whole = projection(x, w)
    k = data.draw(st.integers(1, n))
    changed = data.draw(st.integers(0, min(k, 3)))
    prefix = x[:k].copy()
    prefix[k - changed:] = rng.uniform(-1.0, 1.0, size=(changed, shape[0]))
    rows = projection(prefix, w)
    assert rows[:k - changed].tobytes() == whole[:k - changed].tobytes()
    # and the changed rows do not depend on the rows that follow them
    longer = projection(np.concatenate([prefix, x[k:]]), w)
    assert longer[:k].tobytes() == rows.tobytes()


def reference_forward(params, x):
    """``forward_pass`` with one loop per chain: the states, (3, n, hidden),
    and the scores."""
    x, padded = _checked_input(params, x)
    n, hidden = x.shape[0], params.hidden_size
    states = np.empty((3, n, hidden))
    h_fwd, h_bwd, h_comb = states
    proj_fwd, proj_bwd = _project(padded, params.in_pair[:, None])
    prev = np.zeros(hidden)
    for row, out in zip(proj_fwd, h_fwd):
        prev = np.tanh(row + prev.dot(params.rec_fwd), out=out)
    nxt = np.zeros(hidden)
    for row, out in zip(proj_bwd[n - 1::-1], h_bwd[::-1]):
        nxt = np.tanh(row + nxt.dot(params.rec_bwd), out=out)
    prev = np.zeros(hidden)
    for row, out in zip(h_fwd + h_bwd[::-1], h_comb):
        prev = np.tanh(row + prev.dot(params.rec_comb), out=out)
    return states, h_comb[n - 1] @ params.out_w + params.out_b


@settings(deadline=None)
@given(ids=sentences, window=windows, dim=st.integers(1, 4),
       hidden=st.sampled_from([1, 2, 3, 5, 8, 32, 100]),
       n_classes=st.integers(2, 4), scale=st.sampled_from([1.0, 30.0]),
       seed=seeds)
@example(ids=[1, 2, 3, 4, 5, 1, 2, 3, 4], window=3, dim=2, hidden=32,
         n_classes=3, scale=30.0, seed=0)
def test_forward_pass_bit_equal_to_per_chain_loops(ids, window, dim, hidden,
                                                   n_classes, scale, seed):
    """One recurrence helper runs the three chains as their own loops do,
    the backward one over the input's rows only, not the zero rows that
    pad it to whole blocks."""
    rng = np.random.default_rng(seed)
    params = scaled_params(window * dim, hidden, n_classes, scale, rng)
    x = compose_ngram_inputs(ids, random_table(seed, dim), window)
    states, scores = reference_forward(params, x)
    cache = forward_pass(params, x)
    assert cache.states.tobytes() == states.tobytes()
    assert cache.scores.tobytes() == scores.tobytes()


def scaled_params(input_dim, hidden, n_classes, scale, rng):
    params = init_params(input_dim, hidden, n_classes, rng)
    # large weights drive tanh into saturation, where states round to +-1
    for array in params.arrays().values():
        array *= scale
    return params


# three fifths of the active profile's budget: 60 examples by default, 600
# under --hypothesis-profile=fuzz
@settings(deadline=None,
          max_examples=max(1, settings().max_examples * 3 // 5))
@given(hidden=st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 16, 32, 40, 64, 100]),
       window=st.sampled_from([1, 3, 5, 7]), dim=st.integers(1, 4),
       n_classes=st.integers(2, 4), scale=st.sampled_from([1.0, 30.0]),
       data=st.data(), seed=seeds)
def test_prefix_probs_bit_equal_to_forward_pass(hidden, window, dim, n_classes,
                                                scale, data, seed):
    """Sentences of 1 to 70 words, the shortest all tail at window 3 and
    wider, scored whole and by a caller that stops early, with and without
    the sentence's forward chain handed in."""
    ids = data.draw(st.lists(st.integers(0, VOCAB - 1), min_size=1,
                             max_size=70), label="ids")
    stop = data.draw(st.integers(1, len(ids)), label="stop")
    rng = np.random.default_rng(seed)
    params = scaled_params(window * dim, hidden, n_classes, scale, rng)
    assert_prefix_probs_bit_equal(params, ids, random_table(seed, dim), window,
                                  stop)


# a fifth of the active profile's budget: 20 examples by default, 200 under
# --hypothesis-profile=fuzz
@settings(deadline=None, max_examples=max(1, settings().max_examples // 5))
@given(hidden=st.integers(1, 32), window=windows, lookahead=st.booleans(),
       dim=st.integers(1, 4), n_classes=st.integers(2, 4),
       cached=st.booleans(),
       lengths=st.lists(st.integers(1, 40), min_size=1, max_size=8),
       seed=seeds)
@example(hidden=32, window=3, lookahead=False, dim=4, n_classes=4,
         cached=True, lengths=[40, 1, 9, 2, 25, 12, 40, 3], seed=0)
@example(hidden=32, window=3, lookahead=False, dim=4, n_classes=4,
         cached=False, lengths=[40, 1, 9, 2, 25, 12, 40, 3], seed=0)
def test_shared_prefix_block_yields_what_each_sentence_scorer_yields(
        hidden, window, lookahead, dim, n_classes, cached, lengths, seed):
    """1 to 8 sentences of 1 to 40 words, with or without their caches,
    their generators read in a random order and some closed early: every
    yield of each has, in the rows of the prefixes that have ended, the
    bytes of ``prefix_states``'s yield for its sentence, and a shared
    block's probability row those of the output layer on that row. Since
    the two share their set-up, a sample of a shared block's ended rows is
    also checked against ``forward_pass`` on the prefix's own input. The
    sentences longer than their all-tail prefixes share blocks, longest
    first, a block's shortest with at least half its longest's prefixes,
    and a block runs no step past the furthest prefix that any of its
    generators has read."""
    rng = np.random.default_rng(seed)
    # a stream of its own, so that the reading order is the seed's
    sample = np.random.default_rng(seed + 1)
    ids = [list(rng.integers(0, VOCAB, size=n)) for n in lengths]
    params = scaled_params(window * dim, hidden, n_classes, 1.0, rng)
    table = random_table(seed, dim)
    half = 0 if lookahead else window // 2
    caches = [None] * len(ids)
    if cached:
        caches = forward_many(params, [compose_ngram_inputs(s, table, window)
                                       for s in ids])
    want = [[comb.copy() for comb in prefix_states(params, table, s, window,
                                                   lookahead, cache)]
            for s, cache in zip(ids, caches)]
    # each shared block's steps so far, by its sentences' prefix counts
    steps = Counter()

    def spy(*args, **kwargs):
        for step in lockstep(*args, **kwargs):
            steps[tuple(kwargs.get("sizes") or ())] += 1
            yield step

    lockstep = model._lockstep
    with mock.patch.object(model, "_lockstep", spy):
        scorers = model.prefix_states_many(params, table, ids, window,
                                           lookahead, caches if cached else None)
        # at most 39 prefixes at h32, under _SHARED_WORK
        groups = []
        for i in sorted((i for i, n in enumerate(lengths) if n > half),
                        key=lengths.__getitem__, reverse=True):
            if (not groups or 2 * (lengths[i] - half)
                    < lengths[groups[-1][0]] - half):
                groups.append([])
            groups[-1].append(i)
        groups = [group for group in groups if len(group) > 1]
        shared = {i for group in groups for i in group}
        assert ([probs is not None for _, probs in scorers]
                == [i in shared for i in range(len(ids))])
        read, running = [0] * len(ids), set(range(len(ids)))
        while running:
            i = int(rng.choice(sorted(running)))
            states, probs = scorers[i]
            if rng.random() < 0.05:
                states.close()
                running.discard(i)
                continue
            comb = next(states, None)
            if comb is None:
                assert read[i] == len(ids[i])
                running.discard(i)
                continue
            read[i] += 1
            k = read[i]
            assert comb[:k].tobytes() == want[i][k - 1][:k].tobytes(), (i, k)
            if probs is not None:
                row = softmax(want[i][k - 1][k - 1, 0] @ params.out_w
                              + params.out_b)
                assert probs[k - 1].tobytes() == row.tobytes(), (i, k)
                if sample.random() < 0.25:
                    x = (compose_ngram_inputs(ids[i], table, window)[:k]
                         if lookahead else
                         compose_ngram_inputs(ids[i][:k], table, window))
                    oracle = forward_pass(params, x).h_comb[-1]
                    assert comb[k - 1, 0].tobytes() == oracle.tobytes(), (i, k)
            for group in groups:
                furthest = max(read[j] - half for j in group)
                sizes = tuple(lengths[j] - half for j in group)
                assert steps[sizes] == max(furthest, 0), (group, read)


@pytest.mark.parametrize("ids, window, hidden", [
    ([PAD_ID], 5, 1),
    ([1, 2, 3, 4, 5, 1, 2, 3, 4, 5], 7, 2),
])
def test_prefix_probs_bit_equal_inside_the_first_block(ids, window, hidden):
    """A one-word sentence that is all tail, and one whose first three
    prefixes are; the caller that stops early stops at the first."""
    params = scaled_params(window, hidden, 2, 1.0, np.random.default_rng(0))
    assert_prefix_probs_bit_equal(params, ids, random_table(0, 1), window, 1)


def test_prefix_probs_bit_equal_past_the_largest_block():
    # the reference run's shape (h32, d16, window 3), 140 words: one
    # lockstep block of 139 prefixes
    rng = np.random.default_rng(5)
    ids = list(rng.integers(0, VOCAB, size=140))
    params = init_params(3 * 16, 32, 4, rng)
    assert_prefix_probs_bit_equal(params, ids, random_table(5, 16), 3)


def test_prefix_probs_bit_equal_at_the_semeval_shape():
    # h100 d50, 140 words: plain gemm would take another path from 67 rows
    # on, so every prefix crosses that switch
    rng = np.random.default_rng(6)
    table = EmbeddingTable(rng.uniform(-0.1, 0.1, size=(300, 50)))
    table.matrix[PAD_ID] = 0.0
    ids = list(rng.integers(0, 300, size=140))
    params = init_params(3 * 50, 100, 19, rng)
    assert_prefix_probs_bit_equal(params, ids, table, 3)


# a twentieth of the active profile's budget for each window and lookahead,
# 5 examples by default and 50 under --hypothesis-profile=fuzz, besides the
# three fixed ones
@pytest.mark.parametrize("window", [1, 3, 5])
@pytest.mark.parametrize("lookahead", [False, True])
@settings(deadline=None, max_examples=max(1, settings().max_examples // 20))
@given(shape=st.one_of(st.tuples(st.just(100), st.integers(40, 70)),
                       st.just((32, 160))),
       n_classes=st.integers(2, 19), seed=seeds)
@example(shape=(100, 48), n_classes=2, seed=0)
@example(shape=(100, 60), n_classes=2, seed=0)
@example(shape=(32, 160), n_classes=2, seed=0)
def test_curve_path_bit_equal_to_forward_pass(window, lookahead, shape,
                                              n_classes, seed):
    """The scorer, run on two threads from ``_SPLIT_WORK`` on (h100 from
    50 prefixes, so 40-70 words lie on both sides of it) and on one below
    it (h32 at 160 words), gives every prefix the probabilities of its own
    ``forward_pass``: read row by row as each prefix is yielded, as
    extraction reads it, and from the last yield, as a curve does."""
    hidden, n = shape
    rng = np.random.default_rng(seed)
    table = EmbeddingTable(rng.uniform(-0.1, 0.1, size=(50, 8)))
    table.matrix[PAD_ID] = 0.0
    ids = list(rng.integers(0, 50, size=n))
    params = init_params(window * 8, hidden, n_classes, rng)
    full = compose_ngram_inputs(ids, table, window)
    inputs = [full[:k] if lookahead
              else compose_ngram_inputs(ids[:k], table, window)
              for k in range(1, n + 1)]
    out_w, out_b, lazy = params.out_w, params.out_b, []
    with mock.patch.object(model, "_usable_cpus", return_value=2):
        for k, comb in enumerate(prefix_states(params, table, ids, window,
                                               lookahead)):
            lazy.append(softmax(comb[k, 0] @ out_w + out_b))
    probs = softmax(np.matmul(comb, out_w)[:, 0] + out_b)
    for k, (row, early, x) in enumerate(zip(probs, lazy, inputs), start=1):
        want = forward_pass(params, x).probs.tobytes()
        assert row.tobytes() == want, k
        assert early.tobytes() == want, k


def test_curve_path_threads_keep_to_their_rows():
    """Four callers at once, each cutting its h100 curve's block in two, so
    eight threads on the machine's cores, with the interpreter switching
    threads every microsecond: every curve keeps the bits of the pass on
    one thread."""
    rng = np.random.default_rng(11)
    table = random_table(11, 8)
    params = init_params(3 * 8, 100, 4, rng)
    sentences = [list(rng.integers(0, VOCAB, size=n)) for n in (55, 60, 70, 80)]
    with mock.patch.object(model, "_usable_cpus", return_value=1):
        want = [curve_states(params, table, ids, 3).tobytes()
                for ids in sentences]
    got = {}

    def score(i):
        got[i] = curve_states(params, table, sentences[i], 3).tobytes()

    callers = [threading.Thread(target=score, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.object(model, "_usable_cpus", return_value=2):
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert [got.get(i) for i in range(4)] == want


def random_h100_model(seed, n_classes):
    """An untrained model at the SemEval shape, h100 d50, window 3, over
    20 words and the specials."""
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(20)]
    vocab = Vocabulary([PAD_TOKEN, UNK_TOKEN, *MARKERS, *words])
    table = EmbeddingTable(rng.uniform(-0.1, 0.1, size=(vocab.size, 50)))
    table.matrix[PAD_ID] = 0.0
    cfg = TrainConfig(hidden_size=100, embed_dim=50, window=3)
    return TrainedModel(init_params(150, 100, n_classes, rng), table, vocab,
                        [f"rel-{i:02d}" for i in range(n_classes)], cfg,
                        LossConfig()), words


# a fortieth of the active profile's budget for each lookahead, 2 examples
# by default and 25 under --hypothesis-profile=fuzz, besides the fixed ones
@pytest.mark.parametrize("lookahead", [False, True])
@settings(deadline=None, max_examples=max(1, settings().max_examples // 40))
@given(n=st.integers(40, 170), other=st.integers(40, 170),
       n_classes=st.integers(2, 19),
       reach=st.sampled_from([0.03, 0.25, 0.5, 0.75, 1.0, None]), seed=seeds)
@example(n=160, other=60, n_classes=4, reach=0.03, seed=0)
@example(n=160, other=100, n_classes=4, reach=1.0, seed=0)
@example(n=100, other=160, n_classes=4, reach=None, seed=0)
def test_extraction_and_mining_equal_on_one_and_two_cpus(lookahead, n, other,
                                                         n_classes, reach,
                                                         seed):
    """Extraction and ``--all`` mining on h100 sentences of 40-170 words,
    most of which split their block on two CPUs, give the crossing index,
    score and pattern table they give on one. The sentence's relation is
    the one whose curve reaches its highest point over the first ``reach``
    of its prefixes latest, and ``tau`` is that point, so the crossing
    falls early, late (in the worker's rows) or, with no ``reach``, never."""
    trained, words = random_h100_model(seed, n_classes)
    rng = np.random.default_rng(seed)

    def sentence(length, label):
        body = list(rng.choice(words, size=length))
        body[0:3] = ["<e1>", body[0], "</e1>"]
        body[-3:] = ["<e2>", body[-1], "</e2>"]
        return LabeledSentence(tuple(body), trained.label_set[label])

    s, t = sentence(n, 0), sentence(other, 1)
    # every relation's curve; extraction scores each prefix on its own, and
    # lookahead only widens the pattern it reports
    params = trained.params
    with mock.patch.object(model, "_usable_cpus", return_value=1):
        comb = curve_states(params, trained.table,
                            trained.vocab.encode(s.tokens), 3)
    curves = softmax(np.matmul(comb, params.out_w)[:, 0] + params.out_b).T
    if reach is None:
        tau, crossing = (curves[0].max() + 1.0) / 2, None
    else:
        peaks = curves[:, :max(1, int(reach * n))].argmax(axis=1)
        label = int(peaks.argmax())
        s = replace(s, label=trained.label_set[label])
        crossing = int(peaks[label]) + 1
        tau = float(curves[label, crossing - 1])
    got = {}
    for cpus in (1, 2):
        with mock.patch.object(model, "_usable_cpus", return_value=cpus):
            pat = interpret.extract_pattern(trained, s, s.label, tau=tau,
                                            lookahead=lookahead)
            table = interpret.mine_patterns(trained, [s, t], tau=tau,
                                            only_correct=False,
                                            lookahead=lookahead)
        got[cpus] = (pat, interpret.pattern_table_to_tsv(table))
    assert got[1] == got[2]
    pat = got[2][0]
    assert (pat and pat.crossing_index) == crossing
    if pat:
        assert pat.score == tau


@settings(deadline=None, max_examples=40)
@given(shape=st.sampled_from([(48, 32), (150, 100), (900, 300)]),
       place=st.integers(0, _ROW_BLOCK - 1), seed=seeds)
def test_projection_rows_do_not_depend_on_the_other_rows_of_their_block(
        shape, place, seed):
    """Row ``place`` of a 4-row ``_project`` block has the same bits however
    the block's other three rows are filled: random values, zeros, copies
    of the row, or huge values. The scorer projects each prefix's tail rows
    in blocks of the whole sentence's rows, not of the prefix's own."""
    rng = np.random.default_rng(seed)
    w = rng.uniform(-1.0, 1.0, size=shape)
    row = rng.uniform(-1.0, 1.0, size=shape[0])
    others = [rng.uniform(-1.0, 1.0, size=(_ROW_BLOCK, shape[0])),
              np.zeros((_ROW_BLOCK, shape[0])),
              np.tile(row, (_ROW_BLOCK, 1)),
              rng.uniform(-1e6, 1e6, size=(_ROW_BLOCK, shape[0]))]
    got = set()
    for block in others:
        block[place] = row
        got.add(_project(block, w)[place].tobytes())
    assert len(got) == 1


@settings(deadline=None)
@given(rows=st.integers(1, 6), n_classes=st.integers(2, 300),
       scale=st.sampled_from([1.0, 30.0, 1e3]), seed=seeds)
def test_softmax_of_rows_is_the_softmax_of_each_row(rows, n_classes, scale,
                                                    seed):
    """The curve pass takes one softmax over its (prefixes, classes) scores."""
    scores = np.random.default_rng(seed).normal(size=(rows, n_classes)) * scale
    probs = softmax(scores)
    assert probs.shape == scores.shape
    for row, p in zip(scores, probs):
        assert p.tobytes() == softmax(row).tobytes()


def test_prefix_curve_probs_scores_every_prefix_in_one_block(monkeypatch):
    """Past the all-tail prefixes, ``prefix_states`` drained (as a curve
    and as pattern extraction when no prefix crosses run it), its last
    yield put through the stacked output layer, is one lockstep block that
    runs every step, at any hidden size and sentence length, on a process
    that may use one CPU (on two, the h100 case would split its block)."""
    blocks = []

    def spy(params, tails, proj_bwd, chain, state):
        blocks.append([state.shape[1], 0])
        for step in lockstep(params, tails, proj_bwd, chain, state):
            blocks[-1][1] += 1
            yield step

    lockstep = model._lockstep
    monkeypatch.setattr(model, "_lockstep", spy)
    monkeypatch.setattr(model, "_usable_cpus", lambda: 1)
    rng = np.random.default_rng(0)
    ids = list(rng.integers(0, VOCAB, size=150))
    for hidden, window, n, want in ((100, 3, 150, [[149, 149]]),
                                    (2, 1, 150, [[150, 150]]),
                                    (8, 5, 3, [[1, 1]]),
                                    (8, 5, 2, [])):
        blocks.clear()
        params = init_params(window, hidden, 2, rng)
        yields = list(prefix_states(params, random_table(0, 1), ids[:n],
                                    window))
        assert len(yields) == n
        probs = softmax(np.matmul(yields[-1], params.out_w)[:, 0]
                        + params.out_b)
        assert probs.shape == (n, 2)
        assert blocks == want, (hidden, window, n)


@given(hidden=st.sampled_from([1, 2, 3, 5, 8, 32, 100]),
       rows=st.integers(1, 9), live=st.integers(0, 8),
       classes=st.integers(2, 300), seed=seeds)
def test_stacked_matmul_rows_equal_vector_dot(hidden, rows, live, classes,
                                              seed):
    """The scorer's one matmul per step, on the trailing rows it keeps, its
    forward tail steps, its stacked input projections, and the output layer
    on a stack of final combined states and on one."""
    rng = np.random.default_rng(seed)
    rec = rng.uniform(-1.0, 1.0, size=(2, hidden, hidden))
    states = rng.uniform(-1.0, 1.0, size=(2, rows, 1, hidden))
    live = min(live, rows - 1)
    stacked = np.matmul(states[:, live:], rec[:, None])
    for c in range(2):
        for j in range(live, rows):
            assert np.array_equal(stacked[c, j - live, 0],
                                  states[c, j, 0].dot(rec[c]))
    one = np.matmul(states[0], rec[1])
    for j in range(rows):
        assert np.array_equal(one[j, 0], states[0, j, 0].dot(rec[1]))
    blocks = rng.uniform(-1.0, 1.0, size=(rows * _ROW_BLOCK, 3 * hidden))
    w = rng.uniform(-1.0, 1.0, size=(2, 3 * hidden, hidden))
    both = _project(blocks, w[:, None])
    for c in range(2):
        assert np.array_equal(both[c], _project(blocks, w[c]))
    out = SimpleNamespace(out_w=rng.uniform(-1.0, 1.0, size=(hidden, classes)),
                          out_b=rng.uniform(-1.0, 1.0, size=classes))
    scores = class_scores(out, states[0])
    for j in range(rows):
        want = states[0, j, 0] @ out.out_w + out.out_b
        assert np.array_equal(scores[j], want)
        assert np.array_equal(class_scores(out, states[0, j]), want)


FORWARD_FIELDS = ("inputs", "states", "h_fwd", "h_bwd", "h_comb", "scores",
                  "probs")


def assert_forward_many_bit_equal(params, xs):
    caches = forward_many(params, xs)
    assert len(caches) == len(xs)
    for i, (x, cache) in enumerate(zip(xs, caches)):
        want = forward_pass(params, x)
        for name in FORWARD_FIELDS:
            assert getattr(cache, name).tobytes() == \
                getattr(want, name).tobytes(), (i, name)


@settings(deadline=None)
@given(hidden=st.integers(1, 100), window=st.sampled_from([1, 3, 5, 7]),
       dim=st.integers(1, 4), n_classes=st.integers(2, 4),
       scale=st.sampled_from([1.0, 30.0]), count=st.integers(1, 64),
       longest=st.integers(1, 70), equal=st.booleans(), seed=seeds)
@example(hidden=100, window=3, dim=4, n_classes=4, scale=1.0, count=64,
         longest=70, equal=False, seed=0)
# a batch of one; one step, every input one word; equal lengths, so that no
# input finishes before the last step
@example(hidden=8, window=3, dim=2, n_classes=3, scale=1.0, count=1,
         longest=9, equal=False, seed=0)
@example(hidden=8, window=3, dim=2, n_classes=3, scale=1.0, count=5,
         longest=1, equal=False, seed=0)
@example(hidden=8, window=3, dim=2, n_classes=3, scale=1.0, count=6,
         longest=12, equal=True, seed=0)
def test_forward_many_bit_equal_to_forward_pass(hidden, window, dim, n_classes,
                                                scale, count, longest, equal,
                                                seed):
    """``count`` sentences of 1 to ``longest`` words, or with ``equal`` of
    ``longest`` words each (1 to 64 sentences of 1 to 70 words), each
    input's every field against its own ``forward_pass``."""
    rng = np.random.default_rng(seed)
    params = scaled_params(window * dim, hidden, n_classes, scale, rng)
    table = random_table(seed, dim)
    shortest = longest if equal else 1
    xs = [compose_ngram_inputs(list(rng.integers(0, VOCAB, size=n)), table,
                               window)
          for n in rng.integers(shortest, longest + 1, size=count)]
    assert_forward_many_bit_equal(params, xs)


def test_forward_many_of_no_input_and_of_a_bad_one():
    params = init_params(6, 3, 2, np.random.default_rng(0))
    assert forward_many(params, []) == []
    good = np.ones((4, 6))
    for bad in (np.ones((4, 5)), np.ones((0, 6)), np.ones(6)):
        with pytest.raises(ShapeMismatch):
            forward_pass(params, bad)
        with pytest.raises(ShapeMismatch):
            forward_many(params, [good, bad])


def test_batched_callers_equal_a_forward_pass_each(trained_model,
                                                   synthetic_split,
                                                   monkeypatch):
    """Mining the correctly classified sentences, ``evaluate`` and
    ``export_hidden_states`` on the reference model, and ``train()``'s dev
    accuracy, over 70 sentences of 6 to 48 words, three batches each, give
    what they give with one ``forward_pass`` per sentence."""
    rng = np.random.default_rng(3)
    pool = synthetic_split.train + synthetic_split.test
    mixed = [replace(pool[j], tokens=pool[j].tokens + ("for",) * int(extra),
                     id=str(i))
             for i, (j, extra) in enumerate(zip(
                 rng.integers(0, len(pool), size=70),
                 rng.integers(0, 37, size=70)))]
    mixed[5] = replace(mixed[5], tokens=("<e1>", "signal", "</e1>", "<e2>",
                                         "circuit", "</e2>"))
    split = replace(synthetic_split, dev=mixed)
    cfg = TrainConfig(epochs=2, seed=3, hidden_size=8, embed_dim=4)

    batches = []

    def counted(params, xs):
        batches.append(len(xs))
        return batched(params, xs)

    def run():
        table = interpret.mine_patterns(trained_model, mixed, tau=0.5,
                                        window=3)
        hidden = interpret.export_hidden_states(trained_model, mixed)
        return (table.entries, evaluate(trained_model, mixed),
                [(label, vector.tobytes()) for label, vector in hidden],
                train(split, cfg).history)

    batched = model.forward_many
    monkeypatch.setattr(model, "forward_many", counted)
    got = run()
    # mining, export, evaluate, then each epoch
    assert batches == [32, 32, 6] * (3 + cfg.epochs)
    assert got[0] and 0 < got[1]["accuracy"] < 1

    def one_each(params, xs):
        return [forward_pass(params, x) for x in xs]

    monkeypatch.setattr(model, "forward_many", one_each)
    assert run() == got


def test_mining_shares_a_block_with_the_bytes_of_one_scorer_each(
        trained_model, synthetic_split, monkeypatch):
    """Mining 70 sentences of 6 to 48 words on the reference model, the
    correctly classified ones and all of them, with and without lookahead,
    at a tau most cross early and at one fewer cross, gives the pattern
    table of one ``extract_pattern`` per sentence through its own
    ``prefix_states``; the sentences of each batch share blocks, each
    block's shortest with at least half its longest's prefixes."""
    rng = np.random.default_rng(4)
    pool = synthetic_split.train + synthetic_split.test
    mixed = [replace(pool[j], tokens=pool[j].tokens + ("for",) * int(extra),
                     id=str(i))
             for i, (j, extra) in enumerate(zip(
                 rng.integers(0, len(pool), size=70),
                 rng.integers(0, 37, size=70)))]
    blocks = []

    def spy(*args, **kwargs):
        if kwargs.get("sizes") is not None:
            blocks.append(kwargs["sizes"])
        return lockstep(*args, **kwargs)

    def mine(only_correct, tau, lookahead):
        table = interpret.mine_patterns(trained_model, mixed, tau=tau,
                                        only_correct=only_correct,
                                        lookahead=lookahead)
        assert table.entries
        return interpret.pattern_table_to_tsv(table)

    lockstep = model._lockstep
    monkeypatch.setattr(model, "_lockstep", spy)
    runs = [(only_correct, tau, lookahead) for only_correct in (True, False)
            for tau, lookahead in ((0.5, True), (0.99, False))]
    shared = []
    for only_correct, tau, lookahead in runs:
        blocks.clear()
        shared.append(mine(only_correct, tau, lookahead))
        assert all(len(b) > 1 and 2 * b[-1] >= b[0] for b in blocks)
        if not only_correct:
            # every sentence of the three batches shares one of 8 blocks
            assert len(blocks) == 8 and sum(map(len, blocks)) == 70
    blocks.clear()
    monkeypatch.setattr(model, "_SHARED_WORK", 0)
    assert [mine(*run) for run in runs] == shared
    assert blocks == []
