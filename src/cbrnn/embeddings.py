"""Word vectors and sliding N-gram input composition with boundary padding."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import PAD_ID, InputError


class DimensionMismatch(InputError):
    def __init__(self, expected, found):
        super().__init__(f"expected dimension {expected}, found {found}")
        self.expected = expected
        self.found = found


class MalformedLine(InputError):
    def __init__(self, lineno, message="malformed line"):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class EvenWindow(InputError):
    pass


@dataclass
class EmbeddingTable:
    matrix: np.ndarray  # (|V|, dim) float64, row 0 is the zero padding row
    trainable: bool = True

    @property
    def dim(self):
        return self.matrix.shape[1]


def init_random(vocab, dim, seed):
    """Uniform[-0.1, 0.1] entries from a seeded generator, padding row zeroed."""
    rng = np.random.default_rng(seed)
    matrix = rng.uniform(-0.1, 0.1, size=(vocab.size, dim))
    matrix[PAD_ID] = 0.0
    return EmbeddingTable(matrix=matrix)


def load_pretrained_text(path, vocab, dim, fallback_seed=0):
    """Load ``word v1 ... vd`` text vectors; vocabulary tokens missing from
    the file keep their seeded random rows."""
    table = init_random(vocab, dim, fallback_seed)
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    start = 0
    if lines:
        head = lines[0].split()
        if len(head) == 2 and all(p.lstrip("-").isdigit() for p in head):
            if int(head[1]) != dim:
                raise DimensionMismatch(dim, int(head[1]))
            start = 1
    for lineno, line in enumerate(lines[start:], start=start + 1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) < 2:
            raise MalformedLine(lineno, "expected word and vector")
        word, values = parts[0], parts[1:]
        if len(values) != dim:
            raise DimensionMismatch(dim, len(values))
        try:
            vector = np.array([float(v) for v in values])
        except ValueError:
            raise MalformedLine(lineno, "non-numeric vector entry") from None
        idx = vocab.token_to_id.get(word)
        if idx is not None and idx != PAD_ID:
            table.matrix[idx] = vector
    table.matrix[PAD_ID] = 0.0
    return table


def _window_ids(ids, window):
    """Row k holds the ids at positions k-half .. k+half, with PAD_ID where
    the window leaves the sentence."""
    n = len(ids)
    half = window // 2
    padded = np.full(n + 2 * half, PAD_ID, dtype=np.intp)
    padded[half:half + n] = ids
    return padded[np.arange(n)[:, None] + np.arange(window)]


def compose_ngram_inputs(ids, table, window):
    """Concatenate `window` consecutive embedding rows per position, with
    zero vectors where the window leaves the sentence (the padding row)."""
    if window < 1 or window % 2 == 0:
        raise EvenWindow(f"window size must be odd and positive, got {window}")
    if not len(ids):
        raise ValueError("empty id sequence")
    return table.matrix[_window_ids(ids, window)].reshape(len(ids), -1)


def input_grads_to_embeddings(d_inputs, ids, window, vocab_size, dim):
    """Scatter gradients w.r.t. composed windows back onto embedding rows.

    Returns ``(row_ids, row_grads)``: the sorted ids of the rows the
    sentence touches and their summed gradients. The padding row is never
    among them: it receives no updates.
    """
    win_ids = _window_ids(ids, window).reshape(-1)
    slots = win_ids != PAD_ID
    win_ids = win_ids[slots]
    touched = np.zeros(vocab_size, dtype=bool)
    touched[win_ids] = True
    row_ids = np.flatnonzero(touched)
    # one flat bincount adds each slot's vector into its row in slot order,
    # the order a loop over windows would use
    cells = np.searchsorted(row_ids, win_ids)[:, None] * dim + np.arange(dim)
    row_grads = np.bincount(
        cells.reshape(-1), weights=d_inputs.reshape(-1, dim)[slots].reshape(-1),
        minlength=len(row_ids) * dim,
    )
    # an empty bincount comes back as integers
    return row_ids, row_grads.reshape(-1, dim).astype(float, copy=False)
