import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cbrnn.corpus import parse_marked_sentence, build_vocabulary
from cbrnn.embeddings import (
    DimensionMismatch,
    EvenWindow,
    MalformedLine,
    SentenceWindows,
    compose_ngram_inputs,
    init_random,
    input_grads_to_embeddings,
    load_pretrained_text,
)


@pytest.fixture
def vocab():
    s = parse_marked_sentence("X\t<e1> cause </e1> of <e2> b </e2>")
    return build_vocabulary([s])


def test_init_deterministic(vocab):
    a = init_random(vocab, 5, seed=3)
    b = init_random(vocab, 5, seed=3)
    assert np.array_equal(a.matrix, b.matrix)
    assert not np.array_equal(a.matrix, init_random(vocab, 5, seed=4).matrix)


def test_init_shape_and_padding_row(vocab):
    t = init_random(vocab, 50, seed=0)
    assert t.matrix.shape == (vocab.size, 50)
    assert np.all(t.matrix[0] == 0.0)
    assert np.all(np.abs(t.matrix) <= 0.1)


def test_load_pretrained_copies_file_rows(tmp_path, vocab):
    vec = " ".join(str(0.01 * i) for i in range(5))
    path = tmp_path / "vecs.txt"
    path.write_text(f"cause {vec}\n")
    t = load_pretrained_text(path, vocab, 5, fallback_seed=1)
    idx = vocab.token_to_id["cause"]
    assert np.allclose(t.matrix[idx], [0.0, 0.01, 0.02, 0.03, 0.04])


def test_load_pretrained_header_dimension_mismatch(tmp_path, vocab):
    path = tmp_path / "vecs.txt"
    path.write_text("2 50\n")
    with pytest.raises(DimensionMismatch, match=r"vecs.txt:1: expected "
                       r"dimension 60, found 50"):
        load_pretrained_text(path, vocab, 60)


def test_load_pretrained_row_dimension_mismatch(tmp_path, vocab):
    path = tmp_path / "vecs.txt"
    path.write_text("cause 0.1 0.2\n")
    with pytest.raises(DimensionMismatch, match=r"vecs.txt:1: expected "
                       r"dimension 5, found 2"):
        load_pretrained_text(path, vocab, 5)


def test_load_pretrained_malformed_line(tmp_path, vocab):
    path = tmp_path / "vecs.txt"
    path.write_text("cause 0.1 oops 0.3 0.4 0.5\n")
    with pytest.raises(MalformedLine, match="vecs.txt:1: non-numeric") as exc:
        load_pretrained_text(path, vocab, 5)
    assert exc.value.lineno == 1


@pytest.mark.parametrize("word", ["cause", "unseen"])
@pytest.mark.parametrize("value", ["nan", "-inf", "1e999"])
def test_load_pretrained_rejects_non_finite_entries(tmp_path, vocab, word, value):
    """Also in the row of a word outside the vocabulary, which is not used."""
    path = tmp_path / "vecs.txt"
    path.write_text(f"cause 0.1 0.2 0.3 0.4 0.5\n{word} 0.1 {value} 0.3 0.4 0.5\n")
    with pytest.raises(MalformedLine, match="vecs.txt:2: non-finite") as exc:
        load_pretrained_text(path, vocab, 5)
    assert exc.value.lineno == 2


def test_load_pretrained_form_feed_separates_fields(tmp_path, vocab):
    """``str.split`` reads ``\\f`` as whitespace, so ``b\\f0.3 0.4`` is a
    record, not a line break."""
    path = tmp_path / "vec.txt"
    path.write_text("cause 0.1 0.2\nb\f0.3 0.4\n")
    t = load_pretrained_text(path, vocab, 2)
    assert t.matrix[vocab.token_to_id["b"]].tolist() == [0.3, 0.4]


@pytest.mark.parametrize("text, error, message", [
    ("cause 0.1 0.2\nb 0.3 0.4\x85\nof 0.5 0.6\noops\n", MalformedLine,
     "vec.txt:4: expected word and vector"),
    ("b 0.3 0.4\x1e c 0.5 0.6\n", DimensionMismatch,
     "vec.txt:1: expected dimension 2, found 5"),
])
def test_load_pretrained_lines_end_at_line_ends_only(tmp_path, vocab, text,
                                                     error, message):
    """``\\x85`` and ``\\x1e``, at which ``str.splitlines`` also breaks, sit
    inside their line: they neither shift line numbers nor start a record."""
    path = tmp_path / "vec.txt"
    path.write_text(text)
    with pytest.raises(error, match=message):
        load_pretrained_text(path, vocab, 2)


def test_load_pretrained_missing_tokens_reproducible(tmp_path, vocab):
    path = tmp_path / "vecs.txt"
    path.write_text("cause 0.1 0.2 0.3 0.4 0.5\n")
    a = load_pretrained_text(path, vocab, 5, fallback_seed=9)
    b = load_pretrained_text(path, vocab, 5, fallback_seed=9)
    assert np.array_equal(a.matrix, b.matrix)
    # markers are absent from the file and get seeded random rows
    m_idx = vocab.token_to_id["<e1>"]
    assert np.any(a.matrix[m_idx] != 0.0)


def test_compose_unigram_is_identity(vocab):
    t = init_random(vocab, 4, seed=0)
    ids = [2, 6, 3]
    x = compose_ngram_inputs(ids, t, 1)
    assert np.array_equal(x, t.matrix[ids])


def test_compose_trigram_windows(vocab):
    t = init_random(vocab, 4, seed=0)
    ids = [2, 6, 3]
    x = compose_ngram_inputs(ids, t, 3)
    e = t.matrix
    zero = np.zeros(4)
    assert np.array_equal(x[0], np.concatenate([zero, e[2], e[6]]))
    assert np.array_equal(x[1], np.concatenate([e[2], e[6], e[3]]))
    assert np.array_equal(x[2], np.concatenate([e[6], e[3], zero]))


def test_compose_even_window_rejected(vocab):
    t = init_random(vocab, 4, seed=0)
    with pytest.raises(EvenWindow):
        compose_ngram_inputs([2, 3], t, 2)


@given(
    n=st.integers(min_value=1, max_value=40),
    window=st.sampled_from([1, 3, 5, 7]),
    seed=st.integers(min_value=0, max_value=10),
)
def test_boundary_windows_are_zero_padded(n, window, seed):
    """Composed from ids, from the sentence's ``SentenceWindows`` and by a
    loop over windows, the input has the same bytes, in a fresh C-contiguous
    array; an even window and an empty sentence are refused."""
    s = parse_marked_sentence("X\t<e1> a </e1> <e2> b </e2>")
    v = build_vocabulary([s])
    t = init_random(v, 3, seed=seed)
    rng = np.random.default_rng(seed)
    ids = list(rng.integers(2, v.size, size=n))
    x = compose_ngram_inputs(ids, t, window)
    half = window // 2
    d = 3
    assert x.shape == (n, window * d)
    for j in range(min(half, n)):
        missing = half - j  # positions before the sentence at row j
        assert np.all(x[j, :missing * d] == 0.0)
        assert np.all(x[n - 1 - j, (window - missing) * d:] == 0.0)
    assert x.flags.c_contiguous and not np.shares_memory(x, t.matrix)
    loop = np.zeros((n, window * d))
    for k in range(n):
        for slot, pos in enumerate(range(k - half, k + half + 1)):
            if 0 <= pos < n:
                loop[k, slot * d:(slot + 1) * d] = t.matrix[ids[pos]]
    assert x.tobytes() == loop.tobytes()
    windows = compose_ngram_inputs(SentenceWindows(ids, window), t, window)
    assert windows.tobytes() == x.tobytes()
    for bad in (lambda: compose_ngram_inputs(ids, t, window + 1),
                lambda: SentenceWindows(ids, window + 1)):
        with pytest.raises(EvenWindow):
            bad()
    with pytest.raises(ValueError, match="empty id sequence"):
        compose_ngram_inputs([], t, window)


@given(
    n=st.integers(min_value=2, max_value=8),
    k=st.integers(min_value=1, max_value=8),
)
def test_prefix_windows_match_only_before_boundary(n, k):
    """Recomposed prefix windows equal the full-sequence windows only for
    positions that do not see past the prefix end."""
    if k > n:
        k = n
    s = parse_marked_sentence("X\t<e1> a </e1> <e2> b </e2>")
    v = build_vocabulary([s])
    t = init_random(v, 3, seed=0)
    rng = np.random.default_rng(n * 31 + k)
    ids = list(rng.integers(2, v.size, size=n))
    window = 3
    half = window // 2
    full = compose_ngram_inputs(ids, t, window)
    prefix = compose_ngram_inputs(ids[:k], t, window)
    for j in range(k - half):
        assert np.array_equal(prefix[j], full[j])
    if k < n:
        # the final window of the prefix sees padding, not the next word
        assert not np.array_equal(prefix[k - 1], full[k - 1])


def test_scatter_grads_skip_padding_row(vocab):
    t = init_random(vocab, 4, seed=0)
    ids = [0, 2, 3]
    x = compose_ngram_inputs(ids, t, 3)
    d_inputs = np.ones_like(x)
    row_ids, row_grads = input_grads_to_embeddings(d_inputs, ids, 3, vocab.size, 4)
    assert 0 not in row_ids
    # row 2 appears in windows 0, 1, 2 -> accumulates three times
    assert np.allclose(row_grads[list(row_ids).index(2)], 3.0)
