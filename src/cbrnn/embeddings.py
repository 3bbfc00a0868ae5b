"""Word vectors and sliding N-gram input composition with boundary padding."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import PAD_ID, InputError, read_text


class DimensionMismatch(InputError):
    def __init__(self, path, lineno, expected, found):
        super().__init__(f"{path}:{lineno}: expected dimension {expected}, "
                         f"found {found}")
        self.expected = expected
        self.found = found


class MalformedLine(InputError):
    def __init__(self, path, lineno, message):
        super().__init__(f"{path}:{lineno}: {message}")
        self.lineno = lineno


class EvenWindow(InputError):
    pass


@dataclass
class EmbeddingTable:
    matrix: np.ndarray  # (|V|, dim) float64, row 0 is the zero padding row

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
    the file keep their seeded random rows. Every row must be finite, also
    one for a word outside the vocabulary. Errors name ``path:line``; an
    optional ``count dim`` header, two runs of ASCII digits, is line 1."""
    table = init_random(vocab, dim, fallback_seed)
    lines = read_text(path).split("\n")
    start = 0
    if lines:
        head = lines[0].split()
        if len(head) == 2 and all(p.isascii() and p.isdigit() for p in head):
            if int(head[1]) != dim:
                raise DimensionMismatch(path, 1, dim, int(head[1]))
            start = 1
    for lineno, line in enumerate(lines[start:], start=start + 1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) < 2:
            raise MalformedLine(path, lineno, "expected word and vector")
        word, values = parts[0], parts[1:]
        if len(values) != dim:
            raise DimensionMismatch(path, lineno, dim, len(values))
        try:
            vector = np.array([float(v) for v in values])
        except ValueError:
            raise MalformedLine(path, lineno, "non-numeric vector entry") from None
        if not np.isfinite(vector).all():
            raise MalformedLine(path, lineno, "non-finite vector entry")
        idx = vocab.token_to_id.get(word)
        if idx is not None and idx != PAD_ID:
            table.matrix[idx] = vector
    table.matrix[PAD_ID] = 0.0
    return table


def _padded_ids(ids, window):
    """``ids`` with ``window // 2`` PAD_ID on each side, the positions every
    window of the sentence reads."""
    if window < 1 or window % 2 == 0:
        raise EvenWindow(f"window size must be odd and positive, got {window}")
    n = len(ids)
    if not n:
        raise ValueError("empty id sequence")
    half = window // 2
    padded = np.full(n + 2 * half, PAD_ID, dtype=np.intp)
    padded[half:half + n] = ids
    return padded


def _windows(rows, window):
    """The N-gram window layout: a view of the C-contiguous (m, width)
    array ``rows`` whose row k is its rows k .. k + window - 1 end to end,
    (m - window + 1, window * width), each row read by every window that
    holds it."""
    return np.ndarray((len(rows) - window + 1, window * rows.shape[1]),
                      rows.dtype, rows, strides=(rows.strides[0], rows.itemsize))


class SentenceWindows:
    """A sentence's N-gram windows, worked out once for composing its inputs
    and scattering their gradients back, and kept across training's epochs:
    O(n * window) ints, no vectors.

    ``padded`` is the sentence's ids with ``window // 2`` PAD_ID on each
    side; ``slots`` the flat numbers of the (n, window) slots that read a
    row other than the padding row; ``rows`` the sorted ids those slots
    read; ``positions`` the place of each such slot's id in ``rows``.
    """

    def __init__(self, ids, window):
        self.window = window
        self.padded = _padded_ids(ids, window)
        flat = _windows(self.padded[:, None], window).reshape(-1)
        self.slots = np.flatnonzero(flat != PAD_ID)
        self.rows, self.positions = np.unique(flat[self.slots], return_inverse=True)

    def __len__(self):
        return len(self.padded) - self.window + 1


def _prebuilt(ids, window):
    """``ids`` when it is a ``SentenceWindows`` of ``window``, else None."""
    if not isinstance(ids, SentenceWindows):
        return None
    if ids.window != window:
        raise ValueError(f"windows built for size {ids.window}, not {window}")
    return ids


def compose_ngram_inputs(ids, table, window):
    """Concatenate `window` consecutive embedding rows per position, with
    zero vectors where the window leaves the sentence (the padding row).
    ``ids`` is the sentence's ids or its ``SentenceWindows``.

    One ``take`` reads the row of each padded position once, and one copy
    of their windows (``_windows``) lays the rows out, into a fresh
    C-contiguous array."""
    windows = _prebuilt(ids, window)
    padded = _padded_ids(ids, window) if windows is None else windows.padded
    return _windows(table.matrix.take(padded, axis=0), window).copy()


def input_grads_to_embeddings(d_inputs, ids, window, vocab_size, dim):
    """Scatter gradients w.r.t. composed windows back onto embedding rows.

    ``ids`` is the sentence's ids or its ``SentenceWindows``; the table has
    ``vocab_size`` rows of ``dim`` values. Returns ``(row_ids, row_grads)``:
    the sorted ids of the rows the sentence touches and their summed
    gradients. The padding row is never among them: it receives no updates.
    """
    windows = _prebuilt(ids, window)
    if windows is None:
        windows = SentenceWindows(ids, window)
    row_ids = windows.rows
    if len(row_ids) and not 0 <= row_ids[0] <= row_ids[-1] < vocab_size:
        raise IndexError(f"row ids outside the table's {vocab_size} rows")
    # one flat bincount adds each slot's vector into its row in slot order,
    # the order a loop over windows would use. The cell index is built per
    # call: kept across epochs, n * window * dim ints a sentence, it gained
    # nothing end to end
    cells = windows.positions[:, None] * dim + np.arange(dim)
    row_grads = np.bincount(
        cells.reshape(-1),
        weights=d_inputs.reshape(-1, dim).take(windows.slots, axis=0).reshape(-1),
        minlength=len(row_ids) * dim,
    )
    # an empty bincount comes back as integers
    return row_ids, row_grads.reshape(-1, dim).astype(float, copy=False)
