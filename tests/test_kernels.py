"""Vectorised training kernels against loop references.

The references below are the original per-step implementations: BPTT with
one outer product per step and matrix, window composition and gradient
scatter with one slice per window slot, and a dense embedding update. They
live here only, as the specification the fast kernels must meet.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cbrnn.corpus import PAD_ID
from cbrnn.embeddings import (
    EmbeddingTable,
    compose_ngram_inputs,
    input_grads_to_embeddings,
)
from cbrnn.model import (
    Gradients,
    LossConfig,
    forward_pass,
    init_params,
    loss_gradients,
    ranking_loss,
    sgd_step,
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

    g = Gradients(
        in_fwd=np.zeros_like(params.in_fwd),
        in_bwd=np.zeros_like(params.in_bwd),
        rec_fwd=np.zeros_like(params.rec_fwd),
        rec_bwd=np.zeros_like(params.rec_bwd),
        rec_comb=np.zeros_like(params.rec_comb),
        out_w=np.outer(cache.h_comb[n - 1], d_scores),
        out_b=d_scores.copy(),
        d_inputs=np.zeros_like(x),
    )
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
        g.d_inputs[t] += params.in_fwd @ da

    for p in range(n):
        da = d_h_bwd[p] * (1.0 - cache.h_bwd[p] ** 2)
        g.in_bwd += np.outer(x[p], da)
        if p < n - 1:
            g.rec_bwd += np.outer(cache.h_bwd[p + 1], da)
            d_h_bwd[p + 1] += params.rec_bwd @ da
        g.d_inputs[p] += params.in_bwd @ da
    return g


def reference_sgd_embeddings(matrix, grads, emb_grads, learning_rate, clip_norm):
    arrays = [*grads.param_arrays().values(), emb_grads]
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
    fast = loss_gradients(params, cache, y_plus, LossConfig())
    ref = reference_loss_gradients(params, cache, y_plus, LossConfig())
    for name in [*ref.param_arrays(), "d_inputs"]:
        want = getattr(ref, name)
        # the sums run in another order; an entry whose terms cancel keeps
        # only an absolute error of the size of the array's larger entries
        np.testing.assert_allclose(getattr(fast, name), want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max(),
                                   err_msg=name)


@settings(deadline=None)
@given(ids=sentences, window=windows, seed=seeds,
       clip_norm=st.sampled_from([1e-3, 5.0]))
def test_sparse_sgd_step_matches_dense_update(ids, window, seed, clip_norm):
    dim, hidden = 2, 3
    rng = np.random.default_rng(seed)
    table = random_table(seed, dim)
    params = init_params(window * dim, hidden, 3, rng)
    cache = forward_pass(params, compose_ngram_inputs(ids, table, window))
    grads = loss_gradients(params, cache, 0, LossConfig())
    emb_grads = input_grads_to_embeddings(grads.d_inputs, ids, window,
                                          VOCAB, dim)
    expected = reference_sgd_embeddings(
        table.matrix, grads,
        reference_scatter(grads.d_inputs, ids, window, VOCAB, dim),
        0.1, clip_norm)
    sgd_step(params, grads, 0.1, clip_norm, table, emb_grads)
    untouched = np.setdiff1d(np.arange(VOCAB), emb_grads[0])
    assert table.matrix[untouched].tobytes() == expected[untouched].tobytes()
    np.testing.assert_allclose(table.matrix, expected, rtol=1e-12)
