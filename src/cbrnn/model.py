"""Bidirectional RNN with a combined hidden chain, ranking loss and exact BPTT.

Three recurrent parts share one decision: a forward chain over the sentence,
a backward chain over the reversed sentence, and a combined chain that adds
the two directional states after the same number of steps and carries its own
recurrent connection. The class scores come from the combined state at the
final step, through the one output layer, ``class_scores``. Training
minimizes a margin ranking loss on the raw scores.

One step loop, ``_advance``, runs the three chains of whole sentences in
lockstep, one stacked gemv a step. ``forward_pass`` runs one sentence
through it and is the training path and ``predict``'s; ``forward_many``
runs a list of sentences through it, with a sentence axis, each
sentence's results bit for bit its own ``forward_pass``'s. A sentence's
``ForwardCache`` keeps its rows of the step array and nothing else of the
chains: its ``final`` is their last combined state, the one the scores come
from, and ``loss_gradients`` runs the three chains back over the rows in
lockstep.
``classify_many`` is the one batched labeller: it
runs ``_BATCH`` sentences at a time through ``forward_many`` and takes one
row-wise softmax per batch, and every caller that labels or reads many
sentences goes through it (``evaluate``, and so ``train()``'s dev accuracy,
and in ``interpret`` mining and hidden export).

``prefix_states``, the prefix scorer, scores every word-prefix of one
sentence, its prefixes as one lockstep block (``_lockstep``) that yields as
each prefix ends: pattern extraction stops it at its crossing, a curve
drains it. Where the block's first step does ``_SPLIT_WORK`` multiply-adds
or more, ``_split`` runs it on two threads; every row keeps its bits.
``prefix_probs_many(params, table, ids, window, caches=None)`` gives one
generator per sentence of a list, each yielding a prefix's class
probabilities, the prefix scored as its own input, as it ends: the
sentence's own ``prefix_states`` through the output layer or, where its own
block would do fewer than ``_SHARED_WORK`` multiply-adds a step, a block
shared with sentences of like lengths (``_shared_block``), with a sentence
axis, one output layer a step for all of them, a ``tee`` of its steps for
each sentence, and one ``forward_pass`` for each distinct all-tail prefix;
mining scores each labelled batch through it. One function,
``_prefix_operands``, sets up a block of one sentence or many and checks
its inputs before the first yield: it projects the inputs and their tail
variants in one call.
"""

from __future__ import annotations

import os
import threading
import warnings
from collections import Counter, deque
from contextlib import closing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from itertools import accumulate, islice, tee

import numpy as np

from . import embeddings as emb_mod
from .corpus import (
    PAD_ID,
    InputError,
    Vocabulary,
    build_vocabulary,
    read_text,
    sentence_tokens,
)
from .embeddings import EmbeddingTable, compose_ngram_inputs, init_random


class ShapeMismatch(ValueError):
    pass


class SingleClass(InputError):
    pass


class EmptyTrainSet(InputError):
    pass


class EmptyEvalSet(InputError):
    pass


class ModelFormatError(InputError):
    pass


class TrainingDiverged(InputError):
    pass


class SettingInvalid(InputError):
    """A setting out of its range; ``names`` are the settings it is about."""

    def __init__(self, message, *names):
        super().__init__(message)
        self.names = names


class UnknownRelation(InputError):
    pass


@dataclass
class LossConfig:
    gamma: float = 2.0
    m_plus: float = 2.5
    m_minus: float = 0.5

    def __post_init__(self):
        # written as ``not`` a comparison, so that nan fails the checks. An
        # infinite gamma or m_plus makes every loss non-finite; m_minus =
        # -inf only switches the competitor term off
        if not 0 < self.gamma < np.inf:
            raise SettingInvalid(f"gamma must be positive and finite, got {self.gamma}",
                                 "gamma")
        if not self.m_plus > self.m_minus:
            raise SettingInvalid("m_plus must exceed m_minus", "m_plus", "m_minus")
        if self.m_plus == np.inf:
            raise SettingInvalid("m_plus must be finite, got inf", "m_plus")


@dataclass
class TrainConfig:
    learning_rate: float = 0.05
    epochs: int = 50
    seed: int = 0
    window: int = 3          # N-gram size per input position
    hidden_size: int = 64
    embed_dim: int = 50
    min_count: int = 1
    clip_norm: float = 5.0
    shuffle: bool = True

    def __post_init__(self):
        # nan fails ``not value > 0``; an infinite clip_norm never clips
        for name in ("learning_rate", "hidden_size", "embed_dim", "clip_norm"):
            if not getattr(self, name) > 0:
                raise SettingInvalid(f"{name} must be positive, got "
                                     f"{getattr(self, name)}", name)
        for name in ("epochs", "seed", "min_count"):
            if getattr(self, name) < 0:
                raise SettingInvalid(f"{name} must be non-negative, got "
                                     f"{getattr(self, name)}", name)
        if self.window < 1 or self.window % 2 == 0:
            raise SettingInvalid(f"window must be odd and positive, got {self.window}",
                                 "window")


def _weight(*dims):
    return field(metadata={"dims": dims})


def _aligned_empty(size):
    """An uninitialised float64 array of ``size`` values starting on a
    64-byte boundary, for weights. Where a weight matrix starts relative to
    a cache line moves BLAS's speed: at h100 a ``forward_pass`` ran about 8%
    slower from 16 or 48 bytes past a boundary than from one."""
    raw = np.empty(size + 7)
    start = -raw.ctypes.data % 64 // 8
    return raw[start:start + size]


@dataclass
class CBRNNParams:
    """The weight arrays; their gradients come in the same container.

    The given arrays are copied into one new contiguous float64 array
    ``buffer``, starting on a 64-byte boundary, and the fields become views
    into it in field order, so that an update of every weight is one
    operation on it. ``views`` holds the same views as a tuple in field
    order, built once, for loops over every array.
    """
    in_fwd: np.ndarray = _weight("input", "hidden")
    in_bwd: np.ndarray = _weight("input", "hidden")
    rec_fwd: np.ndarray = _weight("hidden", "hidden")
    rec_bwd: np.ndarray = _weight("hidden", "hidden")
    rec_comb: np.ndarray = _weight("hidden", "hidden")
    out_w: np.ndarray = _weight("hidden", "classes")
    out_b: np.ndarray = _weight("classes")

    def __post_init__(self):
        arrays = {name: np.asarray(a) for name, a in self.arrays().items()}
        self.buffer = np.concatenate(
            [a.ravel() for a in arrays.values()],
            out=_aligned_empty(sum(a.size for a in arrays.values())))
        start = 0
        for name, a in arrays.items():
            setattr(self, name, self.buffer[start:start + a.size].reshape(a.shape))
            start += a.size
        self.views = tuple(getattr(self, name) for name in arrays)

    @staticmethod
    def shapes(input_dim, hidden_size, n_classes):
        """Shape of every array, in field order; input_dim is window*dim."""
        size = {"input": input_dim, "hidden": hidden_size, "classes": n_classes}
        return {f.name: tuple(size[d] for d in f.metadata["dims"])
                for f in fields(CBRNNParams)}

    @property
    def hidden_size(self):
        return self.rec_fwd.shape[0]

    @property
    def n_classes(self):
        return self.out_b.shape[0]

    def arrays(self):
        return {name: getattr(self, name) for name in _NAMES}

    def empty_like(self):
        """A container of the same shapes, its values not set: for
        gradients."""
        return CBRNNParams(**{name: np.empty(a.shape)
                              for name, a in self.arrays().items()})

    def copy(self):
        return CBRNNParams(**self.arrays())

    def _stack(self, first, count=2):
        """The array ``first`` and the ``count - 1`` next ones in field
        order, which have its shape, as one (count, ...) view of the
        buffer."""
        array = getattr(self, first)
        start = (array.ctypes.data - self.buffer.ctypes.data) // array.itemsize
        return self.buffer[start:start + count * array.size].reshape(
            (count,) + array.shape)

    @cached_property
    def in_pair(self):
        """``in_fwd`` and ``in_bwd`` stacked: a (2, input, hidden) view."""
        return self._stack("in_fwd")

    @cached_property
    def rec_all(self):
        """``rec_fwd``, ``rec_bwd`` and ``rec_comb`` stacked: a (3, hidden,
        hidden) view."""
        return self._stack("rec_fwd", 3)


# the weight arrays' names, in field order
_NAMES = tuple(f.name for f in fields(CBRNNParams))


def init_params(input_dim, hidden_size, n_classes, rng):
    """Uniform[-0.1, 0.1] weights drawn in field order, zero output bias."""
    shapes = CBRNNParams.shapes(input_dim, hidden_size, n_classes)
    del shapes["out_b"]
    return CBRNNParams(
        **{name: rng.uniform(-0.1, 0.1, size=shape)
           for name, shape in shapes.items()},
        out_b=np.zeros(n_classes),
    )


def class_scores(params, states):
    """The output layer: the class scores of final combined states stacked
    as (..., 1, hidden), shape (..., classes).

    Each state goes through ``out_w`` as its own gemv, the product
    ``h @ out_w`` takes for one state ``h``, so a row's scores do not depend
    on the other rows of the stack. The same states as the rows of one gemm,
    ``states[..., 0, :] @ out_w``, round differently."""
    return np.matmul(states, params.out_w)[..., 0, :] + params.out_b


def softmax(scores):
    """The softmax of ``scores``, or of each row of a 2-D array: a row's
    bits are those of the row on its own."""
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


class ForwardCache:
    """What ``forward_pass`` computed for one input.

    ``steps``, (n + 1, 3, 1, hidden), are the rows ``_advance`` leaves:
    row t holds the forward state after t+1 words, the backward state after
    t+1 steps and the combined state after t. Row n's forward and backward
    slots hold the last step's states, which nothing reads. ``final`` is
    the final combined state, ``steps[-1, 2, 0]``, a view.

    ``probs``, the softmax of ``scores``, is computed on first read and
    kept: scoring reads only ``scores``. (``functools.cached_property``
    would take a lock on that read.)
    """
    __slots__ = ("inputs", "steps", "scores", "_probs")

    def __init__(self, inputs, steps, scores):
        self.inputs = inputs      # (n, window*dim)
        self.steps = steps
        self.scores = scores      # (n_classes,)
        self._probs = None

    @property
    def final(self):
        return self.steps[-1, 2, 0]

    @property
    def probs(self):
        if self._probs is None:
            self._probs = softmax(self.scores)
        return self._probs


# rows per block of the input projections, see _checked_input
_ROW_BLOCK = 4


def _checked_input(params, x):
    """Return ``(x, padded)``: the input as floats, and its rows in a fresh
    array zero-padded to whole blocks of ``_ROW_BLOCK`` rows, the operand of
    ``_project``.

    BLAS rounds a row of a matrix product by the path it takes, and the
    path depends on the shape of the product. ``_project`` therefore runs
    one gemm per block of ``_ROW_BLOCK`` rows, anchored at row 0: the product
    of row r depends only on row r and on r mod ``_ROW_BLOCK``, not on the
    input's length, so a prefix of a sentence projects each of its rows as
    the whole sentence does. Nor does it depend on the values of the other
    rows in its block: a row projected in a block of some other input, at
    its own place mod ``_ROW_BLOCK``, gets the bits its own input gives it.
    The prefix scorer projects each prefix's tail rows that way, and
    ``tests/test_kernels.py`` checks both properties at the shapes the
    benchmark runs and at 900×300 (also with one BLAS thread in CI). A row
    moved to another place in a block may round differently.
    """
    x = _as_input(params, x)
    padded = np.zeros((_blocked(len(x)), x.shape[1]))
    padded[:len(x)] = x
    return padded[:len(x)], padded


def _as_input(params, x):
    """``x`` as floats, or ``ShapeMismatch`` if it is not an input of
    ``params``."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ShapeMismatch("input must be a non-empty (n, window*dim) array")
    if x.shape[1] != params.in_fwd.shape[0]:
        raise ShapeMismatch(
            f"input dim {x.shape[1]} != weight dim {params.in_fwd.shape[0]}"
        )
    return x


def _blocked(rows):
    """``rows`` rounded up to whole blocks of ``_ROW_BLOCK`` rows."""
    return -(-rows // _ROW_BLOCK) * _ROW_BLOCK


def _project(padded, w, out=None):
    """``padded @ w``, one gemm per block of ``_ROW_BLOCK`` rows; ``w`` is an
    (input, h) matrix or a stack of them, shape (s, 1, input, h). ``out``,
    when given, is ``np.matmul``'s: (blocks, 4, h) or (s, blocks, 4, h)."""
    out = np.matmul(padded.reshape(-1, _ROW_BLOCK, padded.shape[1]), w, out=out)
    return out.reshape(out.shape[:-3] + (len(padded), w.shape[-1]))


def _recur(rows, rec, out):
    """``out[t] = tanh(rows[t] + out[t-1] @ rec)`` for each row of ``out``,
    from a zero state before the first row: the prefix scorer's forward
    chains."""
    prev = np.zeros(rec.shape[0])
    # ``v.dot(m)`` is the same BLAS call as ``v @ m`` with less overhead,
    # and iterating over rows costs less than indexing them
    for row, state in zip(rows, out):
        prev = np.tanh(row + prev.dot(rec), out=state)


def _advance(steps, rec, out):
    """Advance the three chains from row 0 of ``steps`` to its last row.
    Row t, (3, ..., 1, hidden), holds step t's inputs and then its states:
    the forward state after t+1 words, the backward state after t+1 steps
    and the combined state after t; row 0 holds its states on entry.
    ``rec`` is ``params.rec_all``, with an axis for the sentences where
    ``steps`` has one, and ``out``, shaped as a row, takes each step's
    product.

    A step is one stacked ``np.matmul``, one gemv per chain and sentence as
    ``v.dot(rec)`` is, added to the step's inputs; one ``tanh``; and the
    forward + backward sum, written into the next row's combined input, so
    that chain runs one step behind. Every step runs all three chains: the
    last one's forward and backward states are not read."""
    for prev, now in zip(steps[:-1], steps[1:]):
        # forward_pass's order: (forward + backward) + carried
        np.add(prev[0], prev[1], now[2])
        now += np.matmul(prev, rec, out)
        np.tanh(now, now)


def forward_pass(params, x):
    """Run the three recurrences; the combined state at step t adds the
    forward state after t steps and the backward state after t steps.

    The input projections run in blocks of ``_ROW_BLOCK`` rows anchored at
    row 0 (see ``_checked_input``): a row's product depends on the row and
    its place in its block, not on the input's length or the block's other
    rows.

    The three chains run in lockstep through ``_advance``, the loop
    ``forward_many`` runs for many sentences. The first step is the ``tanh``
    of the first inputs: the product with the zero state is +0.0, and
    adding it to a projection, never -0.0, changes no bit."""
    x, padded = _checked_input(params, x)
    n, hidden = x.shape[0], params.hidden_size
    proj_fwd, proj_bwd = _project(padded, params.in_pair[:, None])
    # one row past the steps takes each step's product. The backward chain
    # reads the input's rows n-1 down to 0; the padded rows after them are
    # not the input's. Allocated as zeros: the combined chain's zero state,
    # and the inputs of row n's unread forward and backward slots
    steps = np.zeros((n + 2, 3, 1, hidden))
    steps[:n, 0, 0] = proj_fwd[:n]
    steps[:n, 1, 0] = proj_bwd[n - 1::-1]
    first = steps[0, :2]
    np.tanh(first, first)
    _advance(steps[:-1], params.rec_all, steps[-1])
    return ForwardCache(x, steps[:-1], class_scores(params, steps[n, 2]))


# inputs per ``forward_many`` call where many sentences are classified, a
# bound on a batch's memory. Against one ``forward_pass`` each, one BLAS
# thread: 128 sentences of 8-12 words at h32 d16 ran 3.0x faster in batches
# of 32 (2.0x in batches of 8, 3.5x in one of 128), 100 of 10-45 words at
# h100 d50 1.4x (1.2x in batches of 8, 1.5x in one of 100). A batch of one
# is slower: 0.71x at h32 n10, 0.88x at h100 n25
_BATCH = 32


def forward_many(params, xs):
    """``forward_pass`` of each input of the list ``xs``: one
    ``ForwardCache`` per input, in order, each field bit for bit the one
    ``forward_pass(params, x)`` gives.

    The inputs are sorted once, longest first. Each is zero-padded to whole
    blocks of ``_ROW_BLOCK`` rows and all of them are projected in one
    ``_project`` call, so that each row keeps its place in its block (see
    ``_checked_input``). Their steps are ``forward_pass``'s with a sentence
    axis, and ``_advance`` runs them once for each run of steps with the
    same inputs still running. Each cache's ``steps`` is its input's
    column of the batch's step array.
    """
    xs = [_as_input(params, x) for x in xs]
    if not xs:
        return []
    order = sorted(range(len(xs)), key=lambda i: len(xs[i]), reverse=True)
    xs = [xs[i] for i in order]
    lengths = [len(x) for x in xs]
    width, hidden, count, longest = (xs[0].shape[1], params.hidden_size,
                                     len(xs), lengths[0])
    # input j's rows start block-aligned at row starts[j] of ``padded``
    starts = [0, *accumulate(_blocked(n) for n in lengths)]
    n_padded = starts.pop()

    # one allocation for the batch's arrays, the products included: at h100
    # the pages of separate ones went back to the system when they were
    # freed, and faulting them in again on the next call cost a third of
    # its time
    sizes = [n_padded * width, 2 * n_padded * hidden,
             (longest + 2) * 3 * count * hidden]
    ends = list(accumulate(sizes))
    work = np.empty(ends[-1])
    padded, proj, steps = (work[end - size:end]
                           for end, size in zip(ends, sizes))
    padded = padded.reshape(n_padded, width)
    padded.fill(0.0)
    for x, start in zip(xs, starts):
        padded[start:start + len(x)] = x
    # the forward projections, then the backward ones
    proj = _project(padded, params.in_pair[:, None],
                    proj.reshape(2, -1, _ROW_BLOCK, hidden))
    # forward_pass's steps, the last row again taking the products
    steps = steps.reshape(longest + 2, 3, count, 1, hidden)
    # as in forward_pass; the step after an input's last reads zeros
    for j, (start, n) in enumerate(zip(starts, lengths)):
        steps[:n, 0, j, 0] = proj[0, start:start + n]
        steps[:n, 1, j, 0] = proj[1, start:start + n][::-1]
    steps[lengths, :2, range(count)] = 0.0
    steps[0, 2] = 0.0
    first = steps[0, :2]
    np.tanh(first, first)
    # the m inputs still running advance from step ``begin`` to the last
    # step of the shortest of them
    rec, begin, m = params.rec_all[:, None], 0, count
    for end, k in sorted(Counter(lengths).items()):
        _advance(steps[begin:end + 1, :, :m], rec, steps[-1, :, :m])
        begin, m = end, m - k

    scores = class_scores(params, steps[lengths, 2, range(count)])
    caches = [None] * count
    for j, (start, n) in enumerate(zip(starts, lengths)):
        caches[order[j]] = ForwardCache(padded[start:start + n],
                                        steps[:n + 1, :, j], scores[j])
    return caches


def _prefix_operands(params, table, ids, caches, window, half):
    """``_lockstep``'s shared operands ``(tails, proj_bwd, chain)`` for the
    sentences ``ids``, each with its cache from ``caches`` or None, with a
    sentence axis after the row axis. Each input is composed or read from
    its cache, and checked. A forward chain, row t the state after t words,
    is read from the cache, or is ``_recur`` over the sentence's rows as far
    as its prefixes leave it.

    One ``_project`` call projects the inputs, each zero-padded from the
    start of its own blocks of ``_ROW_BLOCK`` rows, in slot 0, and their
    tail variants in slots 1 + i. Tail row i of the prefix of k words is
    row ``k - half + i`` of variant i, the input with the window slots from
    ``2 * half - i`` on, which read past word k, set to the padding row; it
    is ``tails[:, i, k - half - 1 + i]``. So every row keeps its place in
    its block, and its product is the one its own input gives it (see
    ``_checked_input``).
    """
    inputs = [_as_input(params, compose_ngram_inputs(s, table, window)
                        if c is None else c.inputs) for s, c in zip(ids, caches)]
    count, hidden = len(inputs), params.hidden_size
    padded = np.zeros((1 + half, count, _blocked(max(map(len, inputs))),
                       inputs[0].shape[1]))
    for x, own in zip(inputs, padded.swapaxes(0, 1)):
        own[:, :len(x)] = x
    slots = padded.reshape(*padded.shape[:3], window, table.dim)
    for i in range(half):
        slots[1 + i, :, :, 2 * half - i:] = table.matrix[PAD_ID]
    proj = _project(padded.reshape(-1, padded.shape[3]), params.in_pair[:, None])
    proj = proj.reshape(2, *padded.shape[:3], hidden)
    chain = np.zeros((padded.shape[2] + 1, count, hidden))
    for s, (x, cache) in enumerate(zip(inputs, caches)):
        if cache is None:
            rows = max(len(x) - half, 0)
            _recur(proj[0, 0, s, :rows], params.rec_fwd, chain[1:rows + 1, s])
        else:
            chain[1:len(x) + 1, s] = cache.steps[:len(x), 0, 0]
    return (proj[:, 1:, :, 1:, None].swapaxes(2, 3),
            proj[1, 0, :, :, None].swapaxes(0, 1), chain)


def _all_tail(params, table, ids, window, half, known=None):
    """The ``ForwardCache`` of each all-tail prefix of ``ids``, of at most
    ``half`` words, shortest first: one ``forward_pass`` each, run as the
    prefix is read. With the dict ``known``, a prefix whose ids are a key
    reads that key's cache, and one that is not yet runs and fills it: a
    prefix's cache depends on its ids alone."""
    known = {} if known is None else known
    for k in range(1, min(half, len(ids)) + 1):
        key = tuple(ids[:k])
        if key not in known:
            known[key] = forward_pass(
                params, compose_ngram_inputs(ids[:k], table, window))
        yield known[key]


def prefix_states(params, table, ids, window, lookahead=False, cache=None):
    """Score the prefixes of k = 1, 2, ..., n words of the sentence ``ids``,
    shortest first. After prefix k ends, yield the combined states, one
    (n, 1, hidden) array, the same each time, whose row k - 1 is then
    ``forward_pass(params, x).final`` bit for bit for the prefix's
    input ``x = compose_ngram_inputs(ids[:k], table, window)``; with
    ``lookahead``, for ``x = full[:k]`` of the whole sentence's input
    ``full``, whose last windows read on past word k. A finished row is not
    written again. Pattern extraction stops at its crossing; a curve drains
    the generator and reads its last yield. A bad sentence or cache raises
    before the first yield.

    A prefix's input is ``full[:k]`` but for its tail: its last
    ``window // 2`` rows, whose windows reach past word k and read the
    padding row there. The whole sentence is composed once, and it and the
    tails of all prefixes take one projection (``_prefix_operands`` of one
    sentence). One forward chain over the sentence serves every
    prefix: a prefix's forward chain leaves it only at its tail. ``cache``,
    when given, is ``forward_pass(params, full)``'s (or ``forward_many``'s),
    whose input and forward chain the scorer then reads. A prefix of at
    most ``window // 2`` words is all tail: it shares no row with the
    sentence and is one ``forward_pass`` call. The backward and combined
    chains depend on where the prefix ends, so every other prefix keeps its
    own, and all of them advance in lockstep as one block (``_lockstep``):
    a caller that stops after prefix k leaves the steps past word k unrun.

    When the block's first step does ``_SPLIT_WORK`` or more multiply-adds
    and the process may use two CPUs, ``_split`` runs it on two threads.
    """
    half = 0 if lookahead else window // 2
    tails, proj_bwd, chain = _prefix_operands(params, table, [ids], [cache],
                                              window, half)
    n = len(ids)
    state = np.zeros((2, n, 1, params.hidden_size))
    comb = state[1]
    for k, cache in enumerate(_all_tail(params, table, ids, window, half)):
        comb[k, 0] = cache.final
        yield comb
    if n <= half:
        return
    shared = tails[:, :, :, 0], proj_bwd[:, 0], chain[:, 0]
    # row j of the block's state is prefix half + 1 + j's
    state = state[:, half:]
    if (n - half) * params.hidden_size ** 2 < _SPLIT_WORK or _usable_cpus() < 2:
        steps = _lockstep(params, *shared, state)
    else:
        steps = _split(params, shared, state)
    with closing(steps):
        for _ in steps:
            yield comb


def _split(params, shared, state):
    """``_lockstep`` of the prefix block ``state`` on two threads, one yield
    as each prefix ends. Rows ``m = floor(rows / sqrt(2))`` on, which run
    the most steps, run on a worker thread and the rest on the caller's, so
    the two do about the same work; numpy lets go of the GIL inside each
    step's gemv. The caller's part done, the worker is joined, and one yield
    follows per worker row. Closing the generator stops the worker within
    one step and joins it. A row reads only the shared operands and writes
    only its own state, so it keeps its bits."""
    m, stop = int(state.shape[1] / 2 ** 0.5), threading.Event()
    with ThreadPoolExecutor(1) as pool:
        longer = pool.submit(deque, _lockstep(params, *shared, state[:, m:],
                                              m, stop), maxlen=0)
        try:
            yield from _lockstep(params, *shared, state[:, :m])
            longer.result()
        finally:
            # set only once the worker is done, unless the caller stopped
            # early or raised; leaving the with joins the worker
            stop.set()
    for _ in range(m, state.shape[1]):
        yield


# the bound on the work of a step of a sentence's own prefix block,
# prefixes x hidden^2 multiply-adds, below which the sentence shares a
# block with others (see prefix_probs_many): 48 prefixes at h32, 12 at
# h64, 4 at h100. Past it a step is gemv-bound, and padding each sentence's
# rows to its block's longest loses. Shared against one prefix_states each,
# every prefix read and put through the output layer, caches handed in,
# window 3, one BLAS thread, 2-core VM, medians of 9 alternations: h32 d16
# 8-12 words 1.15x for 2 sentences, 2.17x for 10 (1.88x stopped after 5
# prefixes), 2.67x for 32; h32 5-48 words 1.36x for 10, 1.60x for 32; h64
# 5-12 words 1.71x, h100 d50 5-10 words 1.08x, h16 d8 5-150 words 1.21x
# for 10. With every sentence sharing: h64 12-65 words 0.97x and h100
# 12-40 words 0.91x for 10, h32 5-97 words 1.22x and h100 5-15 words
# 1.23x for 32. In one block per batch, not cut at half the longest's
# prefixes: h16 5-150 words 0.85x for 10, h32 5-48 words 1.29x for 32
_SHARED_WORK = 50_000


def prefix_probs_many(params, table, ids, window, caches=None):
    """One generator per sentence of the list ``ids``, in order, with its
    cache from the list ``caches`` when given. After prefix k ends, it
    yields that prefix's class probabilities, bit for bit
    ``softmax(class_scores(params, comb[k - 1]))`` of the sentence's
    ``prefix_states(params, table, ids[i], window)`` yield ``comb``: each
    prefix is scored as its own input, its last windows padded.

    The sentences longer than their all-tail prefixes whose own block
    would do fewer than ``_SHARED_WORK`` multiply-adds a step share lockstep
    blocks (``_shared_block``), longest first, each block's shortest with at
    least half the prefixes of its longest; a block scores each distinct
    all-tail prefix once, for every sentence that begins with it. Every
    other sentence, and one alone in its block, reads its own
    ``prefix_states`` (``_own_probs``), on two threads where that splits
    its block.
    """
    caches = caches or [None] * len(ids)
    half = window // 2
    scorers = [_own_probs(params, table, s, window, cache)
               for s, cache in zip(ids, caches)]
    shared = sorted((i for i, s in enumerate(ids) if 0 < (len(s) - half)
                     * params.hidden_size ** 2 < _SHARED_WORK),
                    key=lambda i: len(ids[i]), reverse=True)
    # a block pads each sentence's prefixes to its longest's: the first
    # sentence with fewer than half as many starts the next block
    groups = []
    for i in shared:
        if not groups or 2 * (len(ids[i]) - half) < len(ids[groups[-1][0]]) - half:
            groups.append([])
        groups[-1].append(i)
    for group in groups:
        if len(group) > 1:
            for i, probs in zip(group, _shared_block(
                    params, table, [ids[i] for i in group],
                    [caches[i] for i in group], window)):
                scorers[i] = probs
    return scorers


def _own_probs(params, table, ids, window, cache):
    """Prefix k's probabilities from row k - 1 of each yield of
    ``prefix_states``; closing this closes the scorer."""
    with closing(prefix_states(params, table, ids, window,
                               cache=cache)) as states:
        for k, comb in enumerate(states):
            yield softmax(class_scores(params, comb[k]))


def _shared_block(params, table, ids, caches, window):
    """``prefix_probs_many``'s generators for sentences, longest first,
    whose prefixes run as one lockstep block with a sentence axis
    (``_lockstep`` with ``sizes``).

    Prefix j past the all-tail ones has ``half + 1 + j`` words in every
    sentence, so it ends at the same step in each, and the sentence axis
    shrinks as the shorter sentences run out. The operands are set up here
    (``_prefix_operands``), so a bad input raises before any yield. Each
    sentence reads the block's steps through its own ``tee`` of one step
    generator, so the block never runs past the furthest prefix any sentence
    has read. The output layer (``class_scores``) of the row a step ends
    runs once for the whole block, padding included, with one row-wise
    softmax. The all-tail prefixes, a sentence's first ``half`` words, run
    one ``forward_pass`` for each distinct one in the block (``_all_tail``
    with the block's dict), when the first sentence that begins with those
    ids reads it; every sentence that begins with them yields that
    prefix's one probability row.
    """
    longest, count, half = len(ids[0]), len(ids), window // 2
    state = np.zeros((2, longest, count, 1, params.hidden_size))
    steps = _lockstep(params, *_prefix_operands(params, table, ids, caches,
                                                window, half),
                      state[:, half:], sizes=[len(s) - half for s in ids])

    def outputs():
        for row, _ in enumerate(steps, start=half):
            yield softmax(class_scores(params, state[1, row]))

    # the block's all-tail prefixes' caches, by their ids (see _all_tail)
    known = {}

    def sentence(s, slot, made):
        for cache in _all_tail(params, table, s, window, half, known):
            yield cache.probs
        for _ in range(len(s) - half):
            # once a step has raised, the tee ends: next turns that into an
            # error here, where a for loop would end the sentence early
            yield next(made)[slot]

    return [sentence(s, slot, made)
            for slot, (s, made) in enumerate(zip(ids, tee(outputs(), count)))]


# the least first-step gemv work, prefixes x hidden^2 multiply-adds, from
# which a block runs on two threads (see prefix_states). Two threads against
# one, window 3, one BLAS thread, 2-core VM, medians of 11 alternations in
# one process: h100 d50 0.65x at 20 words, 0.92x at 40, 1.02x at 50, 1.12x
# at 60, 1.34x at 80, 1.53x at 100, 1.67x at 160 (1.18x at 60 and 1.37x at
# 100 under two BLAS threads); h64 0.88x at 80 words, 1.05x at 120; h150
# 1.07x at 23 words; h32 0.68x at 100 words, 0.82x at 160
_SPLIT_WORK = 500_000


def _usable_cpus():
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _lockstep(params, tails, proj_bwd, chain, state, first=0, stop=None,
              sizes=None):
    """Run the prefixes of ``depth + 1 + first``, ``depth + 2 + first``,
    ... words in lockstep, ``depth = tails.shape[1]``, with their tails'
    projections ``tails`` (see ``_prefix_operands``), the backward input
    projections ``proj_bwd``, (P, 1, hidden), and the shared forward chain
    ``chain``, (P + 1, hidden), whose row t is the state after t words;
    ``first`` is the first prefix row of the whole block this part runs.
    ``state``, (2, rows, 1, hidden) and zero on entry, holds each of its
    prefixes' backward and combined state in its row. After each step that
    ends one of them, the prefix of ``depth + 1 + first + j`` words, yield:
    row j of ``state[1]`` is then that prefix's final combined state,
    ``forward_pass(params, x).final`` bit for bit; a finished row is
    not written again. ``stop``, when given, is a ``threading.Event`` read
    before each step: once it is set, the part returns.

    The prefix blocks of many sentences run as one with ``sizes``, each
    sentence's count of prefixes, longest first: every operand then has a
    sentence axis right after its row axis. Prefix j of every sentence
    ends at step ``depth + j``; the rows past a shorter sentence's are
    padding, and the sentence leaves the block once its rows are done.

    Every operation is the one ``forward_pass`` applies to the same values.
    The stacked ``np.matmul`` of 1×h states runs one gemv per row, as
    ``v.dot(rec)`` does; adds and ``tanh`` are elementwise. So a row's bits
    do not depend on which other rows run with it, and the block can be
    run in parts, or with other sentences' rows.
    """
    depth, rows, m = tails.shape[1], state.shape[1], len(sizes) if sizes else 0
    # step ``ends + j`` ends this part's row j
    last, ends = first + rows, depth + first
    # prefix j's tail holds its rows j + 1 ... j + depth; its forward chain
    # leaves the shared one after row j, and forward[i][j - first] is its
    # state after its tail row i
    forward, prev = [], chain[1 + first:1 + last, ..., None, :]
    for i in range(depth):
        prev = np.tanh(tails[0, i, first + i:last + i]
                       + np.matmul(prev, params.rec_fwd))
        forward.append(prev)

    # backward and combined state of every prefix after t steps; the
    # prefixes shorter than t+1 words are done, and the next one ends here
    done, live = 0, state
    bwd_state, comb_state = live
    rec = params.rec_all[1:, None] if m == 0 else params.rec_all[1:, None, None]
    for t, shared in enumerate(chain[1:1 + ends + rows]):
        if stop is not None and stop.is_set():
            return
        if t > ends:
            done += 1
            if m and sizes[m - 1] <= done:
                # the sentences whose rows are all done leave the block
                while sizes[m - 1] <= done:
                    m -= 1
                state, proj_bwd = state[:, :, :m], proj_bwd[:, :m]
                forward = [part[:, :m] for part in forward]
            live = state[:, done:]
            bwd_state, comb_state = live
        if m:
            shared = shared[:m, None]
        carried_bwd, carried_comb = np.matmul(live, rec)
        # prefix j reads its row depth + j - t, a tail row for t < depth
        if t < depth:
            i = depth - 1 - t
            bwd_in = tails[1, i, first + i:last + i]
        else:
            row = ends + done - t
            bwd_in = proj_bwd[row:row + rows - done]
        np.add(bwd_in, carried_bwd, bwd_state)
        np.tanh(bwd_state, bwd_state)
        # forward_pass's order: (forward + backward) + carried; the sum of
        # two is the same either way round
        np.add(bwd_state, shared, comb_state)
        # the prefixes whose step t reads tail row i of their forward chain
        for i in range(depth):
            j = t - 1 - i - first
            if done <= j < rows:
                np.add(forward[i][j], bwd_state[j - done], comb_state[j - done])
        comb_state += carried_comb
        np.tanh(comb_state, comb_state)
        if t >= ends:
            yield


def ranking_loss(scores, y_plus, cfg):
    """Margin ranking loss on raw scores; returns (loss, best competitor)."""
    scores = np.asarray(scores, dtype=float)
    if scores.size < 2:
        raise SingleClass("need at least two classes")
    masked = scores.copy()
    masked[y_plus] = -np.inf
    c_minus = int(masked.argmax())
    # both terms from one logaddexp, summed as Python floats
    plus, minus = np.logaddexp(0.0, _margins(scores, y_plus, c_minus, cfg)).tolist()
    return plus + minus, c_minus


def _margins(scores, y_plus, c_minus, cfg):
    """The loss's two arguments as Python floats, which round as numpy's
    float64 scalars do and cost less."""
    return (cfg.gamma * (cfg.m_plus - float(scores[y_plus])),
            cfg.gamma * (cfg.m_minus + float(scores[c_minus])))


def _sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def loss_gradients(params, cache, y_plus, cfg, out=None):
    """Ranking loss and its exact gradients: returns ``(loss, grads,
    d_inputs)``, with the weight gradients in a ``CBRNNParams`` and
    ``d_inputs`` the gradient w.r.t. the composed input vectors.

    ``out``, a container of ``params``' shapes such as
    ``params.empty_like()``, receives the weight gradients and is returned
    as ``grads``; every value in it is overwritten. Without it a new one is
    allocated. The loss comes from ``ranking_loss``, and the score gradient
    from the same two margins, each through one scalar sigmoid.

    Only the recurrences through the hidden states run step by step: one
    loop back over the rows of ``cache.steps`` runs the three chains in
    lockstep, as ``_advance`` runs them forwards, and records each step's
    pre-activation gradients ``dA`` in a row of the same layout. The
    combined chain's gradient starts at its last state, ``out_w @
    d_scores``, and runs one step ahead. A step is one stacked
    ``np.matmul``, one gemv per chain as ``rec.dot(d)`` is, one add and one
    multiply, over views of each row's combined-chain column and of ``d``'s
    forward and backward part made once before the loop. The top two steps
    are written out, so that the forward and backward chains take the
    combined chain's first gradient with no product of zero added, and
    signed zeros keep their signs. Each weight gradient is one matrix
    product over ``dA`` and the states laid out per chain, as the three
    loops' operands were: at hidden 1 numpy sends the products through its
    dot and gemv path, which OpenBLAS rounds differently for a strided
    operand.
    """
    x, steps = cache.inputs, cache.steps
    n, hidden = x.shape[0], params.hidden_size
    grads = params.empty_like() if out is None else out

    loss, c_minus = ranking_loss(cache.scores, y_plus, cfg)
    z_plus, z_minus = _margins(cache.scores, y_plus, c_minus, cfg)
    # the score gradient is the output bias's: zeroed, then its two entries
    # set (y_plus != c_minus); ``0.0 - v`` is +0.0 where v is 0.0, as a
    # subtraction from the zeroed entry is
    d_scores = grads.out_b
    d_scores.fill(0.0)
    d_scores[y_plus] = 0.0 - cfg.gamma * _sigmoid(z_plus)
    d_scores[c_minus] = cfg.gamma * _sigmoid(z_minus)

    # dA's rows take each chain's gradient as a column, which np.matmul
    # runs as gemv. ``d``, the gradient reaching a row's states, is not a row
    # of dA: numpy's overlap check would then copy the product's operand
    deriv = (1.0 - steps ** 2).reshape(n + 1, 3, hidden, 1)
    dA = np.empty(deriv.shape)
    d = np.empty((3, hidden, 1))
    rec = params.rec_all
    # the top two steps: of row n only the combined state is read, and row
    # n - 1's forward and backward states take its dA as it is
    np.multiply((params.out_w @ d_scores)[:, None], deriv[n, 2], dA[n, 2])
    np.matmul(rec[2], dA[n, 2], d[2])
    d[:2] = dA[n, 2]
    np.multiply(d, deriv[n - 1], dA[n - 1])
    d_pair = d[:2]
    for above, above_comb, deriv_row, row in zip(
            dA[1:n][::-1], dA[1:n, 2][::-1], deriv[:n - 1][::-1], dA[:n - 1][::-1]):
        np.matmul(rec, above, d)
        np.add(d_pair, above_comb, d_pair)
        np.multiply(d, deriv_row, row)

    # per chain, in the row order of ``steps``
    dA = dA[..., 0].transpose(1, 0, 2).copy()
    states = steps[:, :, 0].transpose(1, 0, 2).copy()
    dA_fwd, dA_bwd, dA_comb = dA[0, :n], dA[1, n - 1::-1], dA[2, 1:]
    fwd, bwd, comb = states[0, :n], states[1, n - 1::-1], states[2, 1:]
    np.matmul(x.T, dA_fwd, out=grads.in_fwd)
    np.matmul(x.T, dA_bwd, out=grads.in_bwd)
    np.matmul(fwd[:-1].T, dA_fwd[1:], out=grads.rec_fwd)
    np.matmul(bwd[1:].T, dA_bwd[:-1], out=grads.rec_bwd)
    np.matmul(comb[:-1].T, dA_comb[1:], out=grads.rec_comb)
    np.multiply(comb[n - 1, :, None], d_scores, out=grads.out_w)
    return loss, grads, dA_fwd @ params.in_fwd.T + dA_bwd @ params.in_bwd.T


def gradient_check(params, x, y_plus, cfg, eps=1e-5):
    """Compare the gradients of ``loss_gradients`` against central finite
    differences over every weight coordinate and every input coordinate."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    _, grads, d_inputs = loss_gradients(params, forward_pass(params, x), y_plus, cfg)

    def loss_of(p, inputs):
        cache = forward_pass(p, inputs)
        return ranking_loss(cache.scores, y_plus, cfg)[0]

    max_err = 0.0

    def check(array, grad):
        nonlocal max_err
        flat = array.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            lp = loss_of(params, x)
            flat[i] = orig - eps
            lm = loss_of(params, x)
            flat[i] = orig
            numeric = (lp - lm) / (2.0 * eps)
            a = gflat[i]
            err = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
            max_err = max(max_err, err)

    for array, grad in zip(params.arrays().values(), grads.arrays().values()):
        check(array, grad)
    check(x, d_inputs)
    return max_err


def global_grad_norm(grads, emb_grads=None):
    """Euclidean norm over every weight gradient and, when given, the
    embedding rows ``(row_ids, row_grads)`` an example touched; one ``vdot``
    per array, in field order, over the container's ``views``, and the
    rows' last."""
    arrays = grads.views if emb_grads is None else (*grads.views, emb_grads[1])
    return np.sqrt(sum(float(np.vdot(a, a)) for a in arrays))


def sgd_step(params, grads, learning_rate, clip_norm,
             table=None, emb_grads=None):
    """Clip by global norm, then take one gradient step in place, leaving
    the gradients as they are; only the embedding rows listed in
    ``emb_grads`` move. Returns the global norm before clipping."""
    norm = global_grad_norm(grads, emb_grads)
    scale = 1.0 if norm <= clip_norm else clip_norm / norm
    step = learning_rate * scale
    params.buffer -= step * grads.buffer
    if table is not None and emb_grads is not None:
        row_ids, row_grads = emb_grads
        table.matrix[row_ids] -= step * row_grads
    return norm


@dataclass
class TrainedModel:
    params: CBRNNParams
    table: EmbeddingTable
    vocab: Vocabulary
    label_set: list
    train_cfg: TrainConfig
    loss_cfg: LossConfig
    history: list = field(default_factory=list)  # (epoch, train_loss, dev_acc)


def _input_of(model, sentence):
    """The composed input of ``sentence``, its tokens taken through
    ``corpus.sentence_tokens``."""
    return compose_ngram_inputs(model.vocab.encode(sentence_tokens(sentence)),
                                model.table, model.train_cfg.window)


def batches(items):
    """``items`` in lists of ``_BATCH``, the last one shorter: the batches
    in which ``classify_many`` labels sentences."""
    items = iter(items)
    while batch := list(islice(items, _BATCH)):
        yield batch


def classify_many(model, sentences):
    """The label ``predict`` gives each of ``sentences``, with the
    ``ForwardCache`` behind it, in order: ``forward_many`` over ``_BATCH``
    sentences at a time, and one row-wise softmax over each batch's scores,
    whose rows are the bits of each cache's own ``probs``."""
    for chunk in batches(_input_of(model, s) for s in sentences):
        caches = forward_many(model.params, chunk)
        rows = softmax(np.stack([cache.scores for cache in caches]))
        for cache, probs in zip(caches, rows):
            yield model.label_set[int(probs.argmax())], cache


def predict(model, sentence):
    probs = forward_pass(model.params, _input_of(model, sentence)).probs
    return model.label_set[int(probs.argmax())], probs


def train(split, train_cfg, loss_cfg=None, pretrained=None):
    """Per-example SGD with a seeded shuffle; keeps the snapshot with the
    best dev accuracy (ties go to the later epoch). ``pretrained`` is the
    path of a text vectors file that seeds the embedding table."""
    if not split.train:
        raise EmptyTrainSet("training split is empty")
    loss_cfg = loss_cfg or LossConfig()
    vocab = build_vocabulary(split.train, min_count=train_cfg.min_count)
    sizes = ("hidden_size", "embed_dim", "window")
    rng = np.random.default_rng(train_cfg.seed)
    try:
        table = init_random(vocab, train_cfg.embed_dim, train_cfg.seed)
        params = init_params(train_cfg.window * table.dim, train_cfg.hidden_size,
                             len(split.label_set), rng)
    except (ValueError, MemoryError):
        # numpy refuses a shape past its index range, the system the memory
        raise SettingInvalid(", ".join(f"{n} {getattr(train_cfg, n)}" for n in sizes)
                             + ": too many weights to allocate", *sizes) from None
    if pretrained:
        table = emb_mod.load_pretrained_text(pretrained, vocab, train_cfg.embed_dim,
                                             fallback_seed=train_cfg.seed)

    label_index = {lab: i for i, lab in enumerate(split.label_set)}
    encoded = [(emb_mod.SentenceWindows(vocab.encode(s.tokens), train_cfg.window),
                label_index[s.label]) for s in split.train]

    current = TrainedModel(
        params=params, table=table, vocab=vocab,
        label_set=list(split.label_set),
        train_cfg=train_cfg, loss_cfg=loss_cfg,
    )

    def snapshot():
        return replace(current, params=params.copy(),
                       table=EmbeddingTable(table.matrix.copy()))

    best, best_acc, history = snapshot(), -1.0, []
    grads = params.empty_like()  # every step's weight gradients

    for epoch in range(1, train_cfg.epochs + 1):
        order = rng.permutation(len(encoded)) if train_cfg.shuffle else range(len(encoded))
        total_loss = 0.0
        # a diverging run overflows on its way to the non-finite values
        # checked below, which report it
        with np.errstate(over="ignore", invalid="ignore"):
            for i in order:
                windows, y = encoded[i]
                x = compose_ngram_inputs(windows, table, train_cfg.window)
                cache = forward_pass(params, x)
                loss, grads, d_inputs = loss_gradients(params, cache, y,
                                                       loss_cfg, out=grads)
                total_loss += loss
                emb_grads = emb_mod.input_grads_to_embeddings(
                    d_inputs, windows, train_cfg.window, vocab.size, table.dim
                )
                sgd_step(params, grads, train_cfg.learning_rate,
                         train_cfg.clip_norm, table, emb_grads)
        mean_loss = total_loss / len(encoded)
        if not (np.isfinite(mean_loss) and np.isfinite(table.matrix).all()
                and np.isfinite(params.buffer).all()):
            raise TrainingDiverged(
                f"epoch {epoch}: training diverged to a non-finite loss or "
                f"weight at learning_rate {train_cfg.learning_rate}")
        dev_acc = evaluate(current, split.dev or split.train)["accuracy"]
        history.append((epoch, mean_loss, dev_acc))
        if dev_acc >= best_acc:
            best, best_acc = snapshot(), dev_acc
    best.history = history
    return best


def evaluate(model, sentences):
    if not sentences:
        raise EmptyEvalSet("no sentences to evaluate")
    golds = Counter(s.label for s in sentences)
    present = [lab for lab in model.label_set if golds[lab]]
    if not present:
        raise UnknownRelation(f"none of the labels {sorted(golds)} is in "
                              f"the model's label set")
    # per label: the sentences it is right on, and those it is given to
    hits, guesses = Counter(), Counter()
    for sentence, (label, _) in zip(sentences, classify_many(model, sentences)):
        hits[label] += label == sentence.label
        guesses[label] += 1
    accuracy = sum(hits.values()) / len(sentences)

    per_class_f1 = {}
    for lab in model.label_set:
        precision = hits[lab] / guesses[lab] if guesses[lab] else 0.0
        recall = hits[lab] / golds[lab] if golds[lab] else 0.0
        f1 = (2 * precision * recall / (precision + recall)
              if precision + recall else 0.0)
        per_class_f1[lab] = f1
    macro_f1 = sum(per_class_f1[lab] for lab in present) / len(present)
    return {
        "accuracy": accuracy,
        "per_class_f1": per_class_f1,
        "macro_f1": macro_f1,
    }


# ---------------------------------------------------------------------------
# model file format: self-describing text, 17 significant digits, LF endings


def _fmt(v):
    return f"{v:.17g}"


# how a config field of each type is written and read back; a field's type
# is the type of its default
_CODECS = {
    bool: (lambda v: str(int(v)), lambda s: bool(int(s))),
    int: (str, int),
    float: (_fmt, float),
}


def _config_line(keyword, cfg):
    return " ".join([keyword] + [
        f"{f.name}={_CODECS[type(f.default)][0](getattr(cfg, f.name))}"
        for f in fields(cfg)
    ])


def _array_sections(train_cfg, n_labels, n_vocab):
    """``(section, head, shape)`` of every array the file holds, in file
    order: the embeddings, then the weights in field order. The embeddings
    head's last count is always 1, so that model files keep their format."""
    dim = train_cfg.embed_dim
    sections = [("embeddings", f"embeddings {n_vocab} {dim} 1", (n_vocab, dim))]
    for name, shape in CBRNNParams.shapes(train_cfg.window * dim, train_cfg.hidden_size,
                                          n_labels).items():
        section = f"{'matrix' if len(shape) == 2 else 'vector'} {name}"
        sections.append((section, " ".join([section, *map(str, shape)]), shape))
    return sections


def _format_rows(array):
    """One line per row of a 2-D array, each value as ``_fmt`` writes it:
    ``%.17g`` of a Python float gives the same characters as its f-string."""
    row_fmt = " ".join(["%.17g"] * array.shape[1])
    return [row_fmt % tuple(row) for row in array.tolist()]


def save_model(model, path):
    """Write ``model`` as text, one line per label, vocabulary token and array
    row; a label or token holding ``\\n`` or ``\\r``, which would split its
    line, raises ``ModelFormatError`` before the file is opened."""
    items = [*model.label_set, *model.vocab.id_to_token]
    joined = "".join(items)  # one scan for all, not one test per token
    if "\n" in joined or "\r" in joined:
        item = next(t for t in items if "\n" in t or "\r" in t)
        where = "labels: label" if item in model.label_set else "vocab: token"
        raise ModelFormatError(f"{path}: {where} {item!r} holds a line break")
    lines = [
        "cbrnn-model 1",
        _config_line("train", model.train_cfg),
        _config_line("loss", model.loss_cfg),
        f"labels {len(model.label_set)}",
        *model.label_set,
        f"vocab {model.vocab.size}",
        *model.vocab.id_to_token,
    ]
    sections = _array_sections(model.train_cfg, len(model.label_set), model.vocab.size)
    arrays = [model.table.matrix, *model.params.arrays().values()]
    for (_, head, _), array in zip(sections, arrays):
        lines.append(head)
        lines.extend(_format_rows(np.atleast_2d(array)))
    lines.append("end")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_config(line, keyword, cls):
    """Build ``cls`` from the line ``_config_line`` writes for it."""
    parts = line.split()
    pairs = [part.partition("=") for part in parts[1:]]
    names = [f.name for f in fields(cls)]
    if parts[:1] != [keyword] or [name for name, _, _ in pairs] != names:
        raise ModelFormatError(f"{keyword}: expected the keys {' '.join(names)}"
                               f" in this order, found {line!r}")
    try:
        return cls(**{f.name: _CODECS[type(f.default)][1](raw)
                      for f, (_, _, raw) in zip(fields(cls), pairs)})
    except ValueError as exc:
        raise ModelFormatError(f"{keyword}: {exc}") from None


def _parse_rows(block, n, width):
    """The ``n`` lines of ``block`` as an ``(n, width)`` array in one C-level
    parse, or None where a row-by-row ``float()`` read may disagree: a line
    missing, blank or of another width, or a token numpy does not parse
    (``float()`` also takes ``1_0`` and non-ASCII digits)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a block of blank lines
        try:
            array = np.loadtxt(block, dtype=float, comments=None, ndmin=2)
        except ValueError:
            return None
    return array if array.shape == (n, width) else None


def load_model(path):
    """Read a model file; any deviation from what ``save_model`` writes for
    the file's own train, labels and vocab lines raises ``ModelFormatError``
    naming ``path:line`` and the section, a line after ``end`` too. Lines
    are split at ``\\n`` alone, where ``save_model`` joins them, so a label
    may hold ``\\f``, ``\\x85`` or U+2028. A file with ``\\r\\n`` or ``\\r``
    line ends loads too: ``read_text`` makes them ``\\n`` before the split."""
    lines = read_text(path).split("\n")
    if lines[-1] == "":
        lines.pop()  # the final line break
    pos = 1  # the 1-based number of the line read last: the one an error names

    def take(section):
        nonlocal pos
        pos += 1
        if pos > len(lines):
            raise ModelFormatError(f"{section}: unexpected end of file")
        return lines[pos - 1]

    def listed(keyword):
        """The lines of the list under the head ``keyword <count>``."""
        nonlocal pos
        line = take(keyword)
        parts = line.split()
        if len(parts) != 2 or parts[0] != keyword or not parts[1].isdecimal():
            raise ModelFormatError(f"{keyword}: expected {keyword!r} and a count, "
                                   f"found {line!r}")
        start, pos = pos, pos + int(parts[1])
        if pos > len(lines):
            pos = len(lines) + 1  # the line past the last, as take() names it
            raise ModelFormatError(f"{keyword}: unexpected end of file")
        return lines[start:pos]

    def rows(section, n, width):
        nonlocal pos
        start = pos
        array = _parse_rows(lines[start:start + n], n, width)
        if array is None:
            # find the row the parse failed on, or read what only float() reads
            out = []
            for i in range(1, n + 1):
                values = take(section).split()
                if len(values) != width:
                    raise ModelFormatError(f"{section}: row {i} has {len(values)} "
                                           f"values, expected {width}")
                try:
                    out.append([float(v) for v in values])
                except ValueError:
                    raise ModelFormatError(f"{section}: row {i} is not numeric") from None
            array = np.array(out, dtype=float).reshape(n, width)
        finite = np.isfinite(array).all(axis=1)
        if not finite.all():
            pos = start + 1 + int(np.argmin(finite))
            raise ModelFormatError(f"{section}: non-finite value")
        pos = start + n
        return array

    def read():
        nonlocal pos
        if not lines or lines[0] != "cbrnn-model 1":
            raise ModelFormatError("not a cbrnn model file")
        train_cfg = _read_config(take("train"), "train", TrainConfig)
        loss_cfg = _read_config(take("loss"), "loss", LossConfig)
        label_set = listed("labels")
        seen = set()
        for i, label in enumerate(label_set):
            if not label or label in seen:
                pos += 1 - len(label_set) + i
                raise ModelFormatError(f"labels: label {label!r} repeated" if label
                                       else "labels: empty label")
            seen.add(label)
        id_to_token = listed("vocab")
        vocab = Vocabulary(id_to_token)
        if len(vocab.token_to_id) != vocab.size:
            token = next(t for i, t in enumerate(id_to_token) if vocab.token_to_id[t] != i)
            pos += 1 - vocab.size + vocab.token_to_id[token]  # its last occurrence
            raise ModelFormatError(f"vocab: token {token!r} repeated")

        arrays = []
        for section, head, shape in _array_sections(train_cfg, len(label_set), vocab.size):
            line = take(section)
            if line != head:
                raise ModelFormatError(f"{section}: expected {head!r}, found {line!r}")
            start = pos
            n_lines = shape[0] if len(shape) == 2 else 1
            arrays.append(rows(section, n_lines, shape[-1]).reshape(shape))
            if section == "embeddings" and vocab.size and np.any(arrays[0][PAD_ID]):
                # N-gram windows read this row where they leave the sentence
                pos = start + 1 + PAD_ID
                raise ModelFormatError("embeddings: padding row must be zero")
        matrix, *weights = arrays
        line = take("end")
        if line != "end":
            raise ModelFormatError(f"end: unexpected section {line!r}")
        if pos < len(lines):
            line = take("end")
            raise ModelFormatError(f"end: unexpected line after the end {line!r}")
        return TrainedModel(
            params=CBRNNParams(*weights), table=EmbeddingTable(matrix), vocab=vocab,
            label_set=label_set, train_cfg=train_cfg, loss_cfg=loss_cfg,
        )

    try:
        return read()
    except ModelFormatError as exc:
        exc.args = (f"{path}:{pos}: {exc}",)
        raise
