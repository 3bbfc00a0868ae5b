import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cbrnn import SyntheticConfig, generate_synthetic
from cbrnn import model as model_mod
from cbrnn.corpus import LabeledSentence, Vocabulary
from cbrnn.embeddings import EmbeddingTable
from cbrnn.model import (
    CBRNNParams,
    EmptyEvalSet,
    EmptyTrainSet,
    LossConfig,
    ModelFormatError,
    SettingInvalid,
    ShapeMismatch,
    SingleClass,
    TrainConfig,
    evaluate,
    forward_pass,
    global_grad_norm,
    gradient_check,
    init_params,
    load_model,
    loss_gradients,
    predict,
    ranking_loss,
    save_model,
    sgd_step,
    softmax,
    TrainedModel,
    _format_rows,
    train,
)


def small_params(input_dim=6, hidden=3, n_classes=3, seed=0):
    return init_params(input_dim, hidden, n_classes, np.random.default_rng(seed))


def zero_grads(params):
    return CBRNNParams(**{k: np.zeros_like(v) for k, v in params.arrays().items()})


# ---------------------------------------------------------------------------
# forward pass


def test_zero_weights_give_uniform_probs():
    p = small_params()
    for a in p.arrays().values():
        a[...] = 0.0
    cache = forward_pass(p, np.ones((4, 6)))
    assert np.all(cache.h_comb == 0.0)
    assert np.allclose(cache.probs, 1.0 / 3.0)


def test_single_step_has_no_combined_recurrence():
    p = small_params()
    x = np.random.default_rng(1).normal(size=(1, 6))
    cache = forward_pass(p, x)
    expected = np.tanh(cache.h_fwd[0] + cache.h_bwd[0])
    assert np.array_equal(cache.h_comb[0], expected)


def test_forward_matches_scalar_recurrence():
    """Hand-evaluated two-step recurrence with hidden size 2 and scalar
    unigram inputs, written with plain Python floats."""
    hidden = 2
    p = CBRNNParams(
        in_fwd=np.array([[0.3, -0.2]]),
        in_bwd=np.array([[0.1, 0.4]]),
        rec_fwd=np.array([[0.5, -0.1], [0.2, 0.3]]),
        rec_bwd=np.array([[-0.3, 0.2], [0.1, -0.4]]),
        rec_comb=np.array([[0.25, 0.15], [-0.05, 0.35]]),
        out_w=np.array([[1.0, -1.0], [0.5, 0.25]]),
        out_b=np.array([0.1, -0.2]),
    )
    x = np.array([[0.7], [-0.4]])

    def th(v):
        return math.tanh(v)

    f1 = [th(0.7 * 0.3), th(0.7 * -0.2)]
    f2 = [
        th(-0.4 * 0.3 + f1[0] * 0.5 + f1[1] * 0.2),
        th(-0.4 * -0.2 + f1[0] * -0.1 + f1[1] * 0.3),
    ]
    b2 = [th(-0.4 * 0.1), th(-0.4 * 0.4)]
    b1 = [
        th(0.7 * 0.1 + b2[0] * -0.3 + b2[1] * 0.1),
        th(0.7 * 0.4 + b2[0] * 0.2 + b2[1] * -0.4),
    ]
    # combined step 1 pairs one forward step with one backward step (word 2)
    c1 = [th(f1[0] + b2[0]), th(f1[1] + b2[1])]
    c2 = [
        th(f2[0] + b1[0] + c1[0] * 0.25 + c1[1] * -0.05),
        th(f2[1] + b1[1] + c1[0] * 0.15 + c1[1] * 0.35),
    ]
    scores = [
        c2[0] * 1.0 + c2[1] * 0.5 + 0.1,
        c2[0] * -1.0 + c2[1] * 0.25 - 0.2,
    ]
    cache = forward_pass(p, x)
    assert np.allclose(cache.h_comb[1], c2, atol=1e-12, rtol=0)
    assert np.allclose(cache.scores, scores, atol=1e-12, rtol=0)


def test_forward_shape_mismatch():
    p = small_params()
    with pytest.raises(ShapeMismatch):
        forward_pass(p, np.ones((3, 5)))
    with pytest.raises(ShapeMismatch):
        forward_pass(p, np.ones((0, 6)))


def test_forward_ignores_input_memory_layout():
    """Equal values give bit-equal outputs whatever the memory layout; the
    input projections are matrix products, whose rounding can depend on it."""
    p = init_params(150, 100, 19, np.random.default_rng(0))
    x = np.random.default_rng(1).uniform(-0.1, 0.1, size=(40, 150))
    a = forward_pass(p, x)
    b = forward_pass(p, np.asfortranarray(x))
    for name in ("h_fwd", "h_bwd", "h_comb", "scores", "probs"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_probs_computed_on_first_read_and_kept():
    p = small_params()
    cache = forward_pass(p, np.random.default_rng(2).normal(size=(4, 6)))
    probs = cache.probs
    assert probs.tobytes() == softmax(cache.scores).tobytes()
    assert cache.probs is probs


def test_reversal_symmetry_with_swapped_directions():
    """Reversing the input and swapping forward/backward weights leaves the
    scores unchanged when the combined recurrence is zero."""
    rng = np.random.default_rng(3)
    p = init_params(4, 5, 3, rng)
    p.rec_comb[...] = 0.0
    x = rng.normal(size=(6, 4))
    swapped = CBRNNParams(
        in_fwd=p.in_bwd, in_bwd=p.in_fwd,
        rec_fwd=p.rec_bwd, rec_bwd=p.rec_fwd,
        rec_comb=p.rec_comb, out_w=p.out_w, out_b=p.out_b,
    )
    a = forward_pass(p, x).scores
    b = forward_pass(swapped, x[::-1].copy()).scores
    assert np.array_equal(a, b)


@given(st.lists(st.floats(min_value=-30, max_value=30), min_size=2, max_size=6))
def test_softmax_normalized(raw):
    scores = np.array(raw)
    probs = softmax(scores)
    assert abs(probs.sum() - 1.0) < 1e-9
    assert np.all(probs >= 0.0) and np.all(probs <= 1.0)


@given(
    st.lists(st.floats(min_value=-30, max_value=30), min_size=2, max_size=6),
    st.floats(min_value=-50, max_value=50),
)
def test_softmax_shift_invariant(raw, shift):
    scores = np.array(raw)
    assert np.allclose(softmax(scores), softmax(scores + shift), atol=1e-12)


# ---------------------------------------------------------------------------
# ranking loss


def test_ranking_loss_at_margins():
    scores = np.array([2.5, -0.5, -0.5])
    loss, c_minus = ranking_loss(scores, 0, LossConfig())
    assert abs(loss - 2.0 * math.log(2.0)) < 1e-12
    assert c_minus == 1  # tie broken toward the lowest index


def test_ranking_loss_defaults():
    cfg = LossConfig()
    assert cfg.gamma == 2.0 and cfg.m_plus == 2.5 and cfg.m_minus == 0.5


def test_ranking_loss_single_class():
    with pytest.raises(SingleClass):
        ranking_loss(np.array([1.0]), 0, LossConfig())


def test_ranking_loss_matches_high_precision_oracle():
    import mpmath

    mpmath.mp.dps = 50
    rng = np.random.default_rng(5)
    cfg = LossConfig()
    for _ in range(50):
        scores = rng.normal(scale=3.0, size=5)
        y = int(rng.integers(0, 5))
        loss, c_minus = ranking_loss(scores, y, cfg)
        others = [(s, i) for i, s in enumerate(scores) if i != y]
        best = max(others, key=lambda t: (t[0], -t[1]))
        assert c_minus == best[1]
        expected = mpmath.log(1 + mpmath.exp(cfg.gamma * (cfg.m_plus - scores[y]))) \
            + mpmath.log(1 + mpmath.exp(cfg.gamma * (cfg.m_minus + scores[c_minus])))
        assert abs(loss - float(expected)) < 1e-12


@given(st.floats(min_value=-5, max_value=5), st.floats(min_value=0.1, max_value=4))
def test_ranking_loss_positive_and_decreasing_in_target(base, delta):
    cfg = LossConfig()
    scores = np.array([base, 0.3, -0.7])
    lo, _ = ranking_loss(scores, 0, cfg)
    scores_hi = scores.copy()
    scores_hi[0] += delta
    hi, _ = ranking_loss(scores_hi, 0, cfg)
    assert lo > 0.0
    assert hi < lo


def test_ranking_loss_no_overflow():
    loss, _ = ranking_loss(np.array([-500.0, 500.0]), 0, LossConfig())
    assert np.isfinite(loss)


# ---------------------------------------------------------------------------
# gradients


def test_score_gradients_at_margins():
    p = small_params(hidden=2, n_classes=3)
    for a in p.arrays().values():
        a[...] = 0.0
    p.out_b[:] = [2.5, -0.5, -0.5]
    cache = forward_pass(p, np.zeros((2, 6)))
    _, g, _ = loss_gradients(p, cache, 0, LossConfig())
    # sigmoid(0) = 1/2, so the score gradient magnitude is gamma/2 = 1
    assert np.allclose(g.out_b, [-1.0, 1.0, 0.0])


def test_zero_inputs_zero_input_weight_gradients():
    p = small_params()
    for a in p.arrays().values():
        a[...] = 0.0
    cache = forward_pass(p, np.zeros((3, 6)))
    _, g, _ = loss_gradients(p, cache, 0, LossConfig())
    assert np.all(g.in_fwd == 0.0)
    assert np.all(g.in_bwd == 0.0)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(42)
    p = init_params(6, 3, 3, rng)  # window 3, dim 2
    x = rng.uniform(-0.5, 0.5, size=(4, 6))
    err = gradient_check(p, x, 1, LossConfig(), eps=1e-5)
    assert err < 1e-4


def test_gradient_check_flags_broken_gradients(monkeypatch):
    rng = np.random.default_rng(0)
    p = init_params(4, 2, 2, rng)
    x = rng.normal(size=(3, 4))
    cache = forward_pass(p, x)
    loss, g, d_inputs = loss_gradients(p, cache, 0, LossConfig())
    zeroed = (loss, zero_grads(g), np.zeros_like(d_inputs))
    monkeypatch.setattr(model_mod, "loss_gradients", lambda *args, **kwargs: zeroed)
    err = gradient_check(p, x, 0, LossConfig())
    assert abs(err - 1.0) < 0.05


def test_gradient_check_requires_positive_eps():
    p = small_params()
    with pytest.raises(ValueError):
        gradient_check(p, np.ones((2, 6)), 0, LossConfig(), eps=0.0)


# ---------------------------------------------------------------------------
# sgd


def test_sgd_zero_gradients_keep_params():
    p = small_params()
    before = {k: v.copy() for k, v in p.arrays().items()}
    g = zero_grads(p)
    sgd_step(p, g, 0.1, 5.0)
    for k, v in p.arrays().items():
        assert np.array_equal(v, before[k])


def test_sgd_scalar_arithmetic():
    p = small_params()
    p.out_b[:] = 0.0
    p.out_b[0] = 1.0
    g = zero_grads(p)
    g.out_b[0] = 0.5
    sgd_step(p, g, 0.1, 100.0)
    assert abs(p.out_b[0] - 0.95) < 1e-15


@pytest.mark.parametrize("clip_norm", [1e-3, 1e3])
def test_sgd_returns_pre_clip_norm_and_keeps_gradients(clip_norm):
    rng = np.random.default_rng(3)
    p = small_params()
    g = zero_grads(p)
    g.buffer[...] = rng.normal(size=g.buffer.shape)
    table = EmbeddingTable(rng.uniform(-0.1, 0.1, size=(5, 2)))
    emb_grads = (np.array([1, 3]), rng.normal(size=(2, 2)))
    before = [a.copy() for a in (*g.arrays().values(), *emb_grads)]
    norm = sgd_step(p, g, 0.1, clip_norm, table, emb_grads)
    assert norm == global_grad_norm(g, emb_grads)
    for was, now in zip(before, (*g.arrays().values(), *emb_grads)):
        assert was.tobytes() == now.tobytes()


def test_sgd_clips_global_norm():
    p = small_params()
    before = p.out_b.copy()
    g = zero_grads(p)
    g.out_b[:] = 100.0
    sgd_step(p, g, 1.0, 1.0)
    moved = np.linalg.norm(p.out_b - before)
    assert abs(moved - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# training / evaluation


def quick_cfg(**kw):
    base = dict(epochs=2, seed=3, window=3, hidden_size=6, embed_dim=4)
    base.update(kw)
    return TrainConfig(**base)


@pytest.mark.parametrize("cls, name", [
    (TrainConfig, "learning_rate"), (TrainConfig, "clip_norm"),
    (LossConfig, "gamma"), (LossConfig, "m_plus"), (LossConfig, "m_minus"),
])
def test_settings_reject_nan(cls, name):
    with pytest.raises(SettingInvalid) as exc:
        cls(**{name: math.nan})
    assert name in exc.value.names


@pytest.mark.parametrize("name", ["gamma", "m_plus"])
def test_loss_settings_reject_infinity(name):
    with pytest.raises(SettingInvalid) as exc:
        LossConfig(**{name: math.inf})
    assert exc.value.names == (name,)


def test_infinite_clip_norm_means_no_clipping():
    assert TrainConfig(clip_norm=math.inf).clip_norm == math.inf


def test_train_empty_raises(synthetic_split):
    empty = type(synthetic_split)(
        train=[], dev=[], test=[], label_set=synthetic_split.label_set
    )
    with pytest.raises(EmptyTrainSet):
        train(empty, quick_cfg())


def test_train_zero_epochs_returns_init(synthetic_split):
    m = train(synthetic_split, quick_cfg(epochs=0))
    rng = np.random.default_rng(3)
    expected = init_params(3 * 4, 6, 4, rng)
    for k, v in m.params.arrays().items():
        assert np.array_equal(v, expected.arrays()[k])
    assert m.history == []


def test_train_computes_softmax_only_for_dev_accuracy(synthetic_split, monkeypatch):
    """A training step reads the scores, never the probabilities; each
    epoch's dev pass takes one row-wise softmax per batch of dev
    sentences."""
    calls = []

    def counted(scores):
        calls.append(None)
        return softmax(scores)

    monkeypatch.setattr(model_mod, "softmax", counted)
    cfg = quick_cfg()
    train(synthetic_split, cfg)
    assert synthetic_split.dev
    assert len(calls) == cfg.epochs * math.ceil(len(synthetic_split.dev) / 32)


def test_train_deterministic(synthetic_split, tmp_path):
    a = train(synthetic_split, quick_cfg())
    b = train(synthetic_split, quick_cfg())
    pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
    save_model(a, pa)
    save_model(b, pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_predict_zero_weight_bias_model(synthetic_split):
    m = train(synthetic_split, quick_cfg(epochs=0))
    for a in m.params.arrays().values():
        a[...] = 0.0
    m.params.out_b[0] = 1.0
    for s in synthetic_split.test[:5]:
        label, probs = predict(m, s)
        assert label == m.label_set[0]
        assert label == m.label_set[int(np.argmax(probs))]


def test_predict_validates_markers(synthetic_split):
    m = train(synthetic_split, quick_cfg(epochs=0))
    with pytest.raises(Exception):
        predict(m, ("just", "words"))


def test_evaluate_hand_confusion():
    class Stub:
        label_set = ["a", "b", "c"]

    outputs = iter(["a", "a", "b", "b", "a"])

    import cbrnn.model as model_mod

    sentences = [
        LabeledSentence(("<e1>", "x", "</e1>", "<e2>", "y", "</e2>"), lab, str(i))
        for i, lab in enumerate(["a", "b", "b", "b", "c"])
    ]
    original = model_mod.classify_many
    model_mod.classify_many = lambda m, ss: ((next(outputs), None) for _ in ss)
    try:
        metrics = model_mod.evaluate(Stub(), sentences)
    finally:
        model_mod.classify_many = original
    # gold a,b,b,b,c ; pred a,a,b,b,a
    assert metrics["accuracy"] == pytest.approx(3 / 5)
    assert metrics["per_class_f1"]["a"] == pytest.approx(0.5)
    assert metrics["per_class_f1"]["b"] == pytest.approx(0.8)
    assert metrics["per_class_f1"]["c"] == 0.0
    assert metrics["macro_f1"] == pytest.approx((0.5 + 0.8 + 0.0) / 3)


def test_evaluate_empty():
    class Stub:
        label_set = ["a"]

    with pytest.raises(EmptyEvalSet):
        evaluate(Stub(), [])


def test_evaluate_perfect(trained_model, synthetic_split):
    metrics = evaluate(trained_model, synthetic_split.dev)
    assert metrics["accuracy"] == 1.0
    assert metrics["macro_f1"] == 1.0


# ---------------------------------------------------------------------------
# model file round trip


def test_model_save_load_round_trip(synthetic_split, tmp_path):
    m = train(synthetic_split, quick_cfg())
    p1 = tmp_path / "m1.txt"
    p2 = tmp_path / "m2.txt"
    save_model(m, p1)
    loaded = load_model(p1)
    save_model(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    for k, v in m.params.arrays().items():
        assert np.array_equal(v, loaded.params.arrays()[k])
    assert loaded.label_set == m.label_set
    assert loaded.vocab.id_to_token == m.vocab.id_to_token
    assert np.array_equal(loaded.table.matrix, m.table.matrix)
    assert loaded.train_cfg == m.train_cfg
    assert loaded.loss_cfg == m.loss_cfg


def test_no_competitor_margin_trains_and_round_trips(synthetic_split, tmp_path):
    """``m_minus = -inf`` switches the competitor term off: it trains to a
    finite loss, and the model file keeps it."""
    m = train(synthetic_split, quick_cfg(), LossConfig(m_minus=-math.inf))
    assert all(np.isfinite(loss) for _, loss, _ in m.history)
    p1, p2 = tmp_path / "m1.txt", tmp_path / "m2.txt"
    save_model(m, p1)
    loaded = load_model(p1)
    save_model(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert loaded.loss_cfg.m_minus == -math.inf


def random_model(vocab_size, dim, hidden, n_classes, seed=0):
    """An untrained model of the given size with normal weights."""
    rng = np.random.default_rng(seed)
    tokens = ["__PAD__", "__UNK__"] + [f"w{i}" for i in range(vocab_size - 2)]
    matrix = rng.standard_normal((vocab_size, dim)) * 0.1
    matrix[0] = 0.0
    cfg = TrainConfig(hidden_size=hidden, embed_dim=dim)
    return TrainedModel(
        params=init_params(cfg.window * dim, hidden, n_classes, rng),
        table=EmbeddingTable(matrix), label_set=[f"r{i}" for i in range(n_classes)],
        vocab=Vocabulary(tokens),
        train_cfg=cfg, loss_cfg=LossConfig(),
    )


def reference_format_row(row):
    """The per-value formatter model files were written with before whole rows
    were formatted at once."""
    return " ".join(f"{v:.17g}" for v in row)


def reference_rows(lines, head, section, n, width):
    """The row-by-row loader model files were read with before whole sections
    were parsed at once. ``head`` is the 1-based line of the section head.
    Returns the array, or the 1-based line and the message of the error."""
    out = []
    for i in range(1, n + 1):
        if head + i > len(lines):
            return None, head + i, f"{section}: unexpected end of file"
        values = lines[head + i - 1].split()
        if len(values) != width:
            return (None, head + i,
                    f"{section}: row {i} has {len(values)} values, expected {width}")
        try:
            out.append([float(v) for v in values])
        except ValueError:
            return None, head + i, f"{section}: row {i} is not numeric"
    array = np.array(out, dtype=float).reshape(n, width)
    finite = np.isfinite(array).all(axis=1)
    if not finite.all():
        return None, head + 1 + int(np.argmin(finite)), f"{section}: non-finite value"
    return array, None, None


finite_doubles = st.floats(allow_nan=False, allow_infinity=False)


@settings(deadline=None)
@given(st.lists(st.lists(finite_doubles, min_size=1, max_size=6), min_size=1,
                max_size=4).filter(lambda rows: len({len(r) for r in rows}) == 1))
@example([[-0.0, 0.0, 5e-324, -2.2250738585072014e-308]])
@example([[1.7e308, -1.7e308, 1.7976931348623157e308, 0.1]])
def test_format_rows_match_per_value_reference(rows):
    array = np.array(rows, dtype=float)
    assert _format_rows(array) == [reference_format_row(row) for row in array]


# what a hand edit can leave in a weight section; 1_0 and the full-width digit
# are read only by float(), not by numpy's parser
BAD_TOKENS = ["nan", "1e999", "1_0", "0x10", "#", "-inf", "\uff11", "-0"]
SECTION_EDITS = ["token", "drop", "add", "tab", "blank", "cut"]


@pytest.fixture(scope="module")
def small_model_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("small") / "model.txt"
    save_model(random_model(8, 2, 5, 3), path)
    return path


@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_load_matches_row_reference_on_edited_section(small_model_file, data):
    """Edit one row of the last matrix section; the loader must give the
    reference's array bit for bit, or its message on its line."""
    lines = small_model_file.read_text(encoding="utf-8").splitlines()
    head = max(i for i, line in enumerate(lines) if line.startswith("matrix")) + 1
    _, name, n, width = lines[head - 1].split()
    n, width = int(n), int(width)
    row = data.draw(st.integers(0, n - 1)) + head  # 0-based index of the row
    values = lines[row].split()
    at = data.draw(st.integers(0, width - 1))
    edit = data.draw(st.sampled_from(SECTION_EDITS))
    if edit == "token":
        values[at] = data.draw(st.sampled_from(BAD_TOKENS))
        lines[row] = " ".join(values)
    elif edit == "drop":
        lines[row] = " ".join(values[:at] + values[at + 1:])
    elif edit == "add":
        lines[row] = " ".join(values + [data.draw(st.sampled_from(BAD_TOKENS + ["0.5"]))])
    elif edit == "tab":
        lines[row] = "\t".join(values)
    elif edit == "blank":
        lines[row] = ""
    edited = "\n".join(lines) + "\n"
    if edit == "cut":
        offset = sum(len(line) + 1 for line in lines[:row])
        edited = edited[:offset + data.draw(st.integers(0, len(lines[row])))]
    path = small_model_file.with_name("edited.txt")
    path.write_text(edited, encoding="utf-8")

    expected, line, message = reference_rows(edited.splitlines(), head,
                                             f"matrix {name}", n, width)
    if edit == "cut" and expected is not None:
        # the cut row still reads, so the file ends where the next head was
        after = " ".join(lines[head + n].split()[:2])
        expected, line, message = None, row + 2, f"{after}: unexpected end of file"
    if expected is None:
        with pytest.raises(ModelFormatError) as exc:
            load_model(path)
        assert str(exc.value) == f"{path}:{line}: {message}"
    else:
        loaded = load_model(path).params.arrays()[name]
        assert loaded.tobytes() == expected.reshape(loaded.shape).tobytes()


def test_semeval_sized_round_trip_byte_identical(tmp_path):
    model = random_model(4300, 50, 100, 19)
    p1, p2 = tmp_path / "m1.txt", tmp_path / "m2.txt"
    save_model(model, p1)
    save_model(load_model(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()
