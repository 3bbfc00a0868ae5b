"""Bidirectional RNN with a combined hidden chain, ranking loss and exact BPTT.

Three recurrent parts share one decision: a forward chain over the sentence,
a backward chain over the reversed sentence, and a combined chain that adds
the two directional states after the same number of steps and carries its own
recurrent connection. The class scores come from the combined state at the
final step. Training minimizes a margin ranking loss on the raw scores.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import embeddings as emb_mod
from .corpus import (
    PAD_ID,
    InputError,
    LabeledSentence,
    Vocabulary,
    build_vocabulary,
    validate_markers,
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


class UnknownRelation(InputError):
    pass


@dataclass
class LossConfig:
    gamma: float = 2.0
    m_plus: float = 2.5
    m_minus: float = 0.5

    def __post_init__(self):
        if self.gamma <= 0:
            raise InputError(f"gamma must be positive, got {self.gamma}")
        if self.m_plus <= self.m_minus:
            raise InputError("m_plus must exceed m_minus")


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
        for name in ("learning_rate", "hidden_size", "embed_dim", "clip_norm"):
            if getattr(self, name) <= 0:
                raise InputError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("epochs", "seed"):
            if getattr(self, name) < 0:
                raise InputError(f"{name} must be non-negative, got {getattr(self, name)}")
        if self.window < 1 or self.window % 2 == 0:
            raise InputError(f"window must be odd and positive, got {self.window}")


def _weight(*dims):
    return field(metadata={"dims": dims})


@dataclass
class CBRNNParams:
    """The weight arrays; their gradients come in the same container."""
    in_fwd: np.ndarray = _weight("input", "hidden")
    in_bwd: np.ndarray = _weight("input", "hidden")
    rec_fwd: np.ndarray = _weight("hidden", "hidden")
    rec_bwd: np.ndarray = _weight("hidden", "hidden")
    rec_comb: np.ndarray = _weight("hidden", "hidden")
    out_w: np.ndarray = _weight("hidden", "classes")
    out_b: np.ndarray = _weight("classes")

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
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def copy(self):
        return CBRNNParams(**{k: v.copy() for k, v in self.arrays().items()})


def init_params(input_dim, hidden_size, n_classes, rng):
    """Uniform[-0.1, 0.1] weights drawn in field order, zero output bias."""
    shapes = CBRNNParams.shapes(input_dim, hidden_size, n_classes)
    del shapes["out_b"]
    return CBRNNParams(
        **{name: rng.uniform(-0.1, 0.1, size=shape)
           for name, shape in shapes.items()},
        out_b=np.zeros(n_classes),
    )


def softmax(scores):
    shifted = scores - np.max(scores)
    e = np.exp(shifted)
    return e / e.sum()


@dataclass
class ForwardCache:
    inputs: np.ndarray   # (n, window*dim)
    h_fwd: np.ndarray    # (n, hidden); position t holds the forward state after t+1 words
    h_bwd: np.ndarray    # (n, hidden); position p holds the suffix state for words p..n
    h_comb: np.ndarray   # (n, hidden)
    scores: np.ndarray   # (n_classes,)
    probs: np.ndarray    # (n_classes,)


def forward_pass(params, x):
    """Run the three recurrences; the combined state at step t adds the
    forward state after t steps and the backward state after t steps."""
    # one memory layout for every caller: the input projections below are
    # matrix products, whose rounding can depend on the layout
    x = np.ascontiguousarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ShapeMismatch("input must be a non-empty (n, window*dim) array")
    if x.shape[1] != params.in_fwd.shape[0]:
        raise ShapeMismatch(
            f"input dim {x.shape[1]} != weight dim {params.in_fwd.shape[0]}"
        )
    n = x.shape[0]
    hidden = params.hidden_size
    h_fwd = np.empty((n, hidden))
    h_bwd = np.empty((n, hidden))
    h_comb = np.empty((n, hidden))

    in_fwd = x @ params.in_fwd
    prev = np.zeros(hidden)
    # ``v.dot(m)`` is the same BLAS call as ``v @ m`` with less overhead
    for t in range(n):
        prev = np.tanh(in_fwd[t] + prev.dot(params.rec_fwd), out=h_fwd[t])

    in_bwd = x @ params.in_bwd
    nxt = np.zeros(hidden)
    for p in range(n - 1, -1, -1):
        nxt = np.tanh(in_bwd[p] + nxt.dot(params.rec_bwd), out=h_bwd[p])

    # after t+1 steps the backward chain has consumed words n..n-t, whose
    # state sits at position n-1-t
    in_comb = h_fwd + h_bwd[::-1]
    prev = np.zeros(hidden)
    for t in range(n):
        prev = np.tanh(in_comb[t] + prev.dot(params.rec_comb), out=h_comb[t])

    scores = h_comb[n - 1] @ params.out_w + params.out_b
    return ForwardCache(
        inputs=x, h_fwd=h_fwd, h_bwd=h_bwd, h_comb=h_comb,
        scores=scores, probs=softmax(scores),
    )


def ranking_loss(scores, y_plus, cfg):
    """Margin ranking loss on raw scores; returns (loss, best competitor)."""
    scores = np.asarray(scores, dtype=float)
    if scores.size < 2:
        raise SingleClass("need at least two classes")
    masked = scores.copy()
    masked[y_plus] = -np.inf
    c_minus = int(np.argmax(masked))
    z_plus = cfg.gamma * (cfg.m_plus - scores[y_plus])
    z_minus = cfg.gamma * (cfg.m_minus + scores[c_minus])
    loss = float(np.logaddexp(0.0, z_plus) + np.logaddexp(0.0, z_minus))
    return loss, c_minus


def _sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def _bptt(rec, h, d_ext):
    """Backpropagate through ``h[s] = tanh(... + h[s-1] @ rec)`` from the
    last step to the first; ``d_ext[s]`` is the gradient reaching ``h[s]``
    from outside the chain. Returns the pre-activation gradient of every
    step, one row each."""
    deriv = 1.0 - h ** 2
    dA = np.empty(h.shape)
    d = d_ext[-1]
    for s in range(len(h) - 1, -1, -1):
        da = np.multiply(d, deriv[s], out=dA[s])
        if s:
            d = d_ext[s - 1] + rec.dot(da)
    return dA


def loss_gradients(params, cache, y_plus, cfg):
    """Ranking loss and its exact gradients: returns ``(loss, grads,
    d_inputs)``, with the weight gradients in a ``CBRNNParams`` and
    ``d_inputs`` the gradient w.r.t. the composed input vectors.

    Only the recurrences through the hidden states run step by step; they
    record each chain's pre-activation gradients ``dA`` (one row per step),
    from which every weight gradient is one matrix product.
    """
    x = cache.inputs
    n = x.shape[0]

    loss, c_minus = ranking_loss(cache.scores, y_plus, cfg)
    d_scores = np.zeros(params.n_classes)
    d_scores[y_plus] -= cfg.gamma * _sigmoid(
        cfg.gamma * (cfg.m_plus - cache.scores[y_plus])
    )
    d_scores[c_minus] += cfg.gamma * _sigmoid(
        cfg.gamma * (cfg.m_minus + cache.scores[c_minus])
    )

    d_top = np.zeros((n, params.hidden_size))
    d_top[n - 1] = params.out_w @ d_scores
    dA_comb = _bptt(params.rec_comb, cache.h_comb, d_top)
    # combined step t reads forward position t and backward position n-1-t,
    # which is step t of the backward chain
    dA_fwd = _bptt(params.rec_fwd, cache.h_fwd, dA_comb)
    dA_bwd = _bptt(params.rec_bwd, cache.h_bwd[::-1], dA_comb)[::-1]

    grads = CBRNNParams(
        in_fwd=x.T @ dA_fwd,
        in_bwd=x.T @ dA_bwd,
        rec_fwd=cache.h_fwd[:-1].T @ dA_fwd[1:],
        rec_bwd=cache.h_bwd[1:].T @ dA_bwd[:-1],
        rec_comb=cache.h_comb[:-1].T @ dA_comb[1:],
        out_w=np.outer(cache.h_comb[n - 1], d_scores),
        out_b=d_scores.copy(),
    )
    return loss, grads, dA_fwd @ params.in_fwd.T + dA_bwd @ params.in_bwd.T


def gradient_check(params, x, y_plus, cfg, eps=1e-5, analytic=None):
    """Compare analytic gradients ``(grads, d_inputs)``, by default those of
    ``loss_gradients``, against central finite differences over every weight
    coordinate and every input coordinate."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    if analytic is None:
        _, grads, d_inputs = loss_gradients(params, forward_pass(params, x),
                                            y_plus, cfg)
    else:
        grads, d_inputs = analytic

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
    embedding rows ``(row_ids, row_grads)`` an example touched."""
    arrays = list(grads.arrays().values())
    if emb_grads is not None:
        arrays.append(emb_grads[1])
    return np.sqrt(sum(float(np.vdot(a, a)) for a in arrays))


def sgd_step(params, grads, learning_rate, clip_norm,
             table=None, emb_grads=None):
    """Clip by global norm, then take one gradient step in place; only the
    embedding rows listed in ``emb_grads`` move."""
    norm = global_grad_norm(grads, emb_grads)
    scale = 1.0 if norm <= clip_norm else clip_norm / norm
    step = learning_rate * scale
    for array, grad in zip(params.arrays().values(), grads.arrays().values()):
        array -= step * grad
    if table is not None and emb_grads is not None and table.trainable:
        row_ids, row_grads = emb_grads
        table.matrix[row_ids] -= step * row_grads
    return params


@dataclass
class TrainedModel:
    params: CBRNNParams
    table: EmbeddingTable
    vocab: Vocabulary
    label_set: list
    train_cfg: TrainConfig
    loss_cfg: LossConfig
    history: list = field(default_factory=list)  # (epoch, train_loss, dev_acc)


def model_inputs(model, tokens):
    ids = [model.vocab.id_of(t) for t in tokens]
    return compose_ngram_inputs(ids, model.table, model.train_cfg.window)


def predict(model, sentence):
    tokens = sentence.tokens if isinstance(sentence, LabeledSentence) else tuple(sentence)
    validate_markers(tokens)
    cache = forward_pass(model.params, model_inputs(model, tokens))
    idx = int(np.argmax(cache.probs))
    return model.label_set[idx], cache.probs


def _accuracy(model, sentences):
    correct = sum(1 for s in sentences if predict(model, s)[0] == s.label)
    return correct / len(sentences)


def train(split, train_cfg, loss_cfg=None, pretrained=None):
    """Per-example SGD with a seeded shuffle; keeps the snapshot with the
    best dev accuracy (ties go to the later epoch). ``pretrained`` is the
    path of a text vectors file that seeds the embedding table."""
    if not split.train:
        raise EmptyTrainSet("training split is empty")
    loss_cfg = loss_cfg or LossConfig()
    vocab = build_vocabulary(split.train, min_count=train_cfg.min_count)
    if pretrained:
        table = emb_mod.load_pretrained_text(pretrained, vocab, train_cfg.embed_dim,
                                             fallback_seed=train_cfg.seed)
    else:
        table = init_random(vocab, train_cfg.embed_dim, train_cfg.seed)
    rng = np.random.default_rng(train_cfg.seed)
    input_dim = train_cfg.window * table.dim
    params = init_params(input_dim, train_cfg.hidden_size, len(split.label_set), rng)

    label_index = {lab: i for i, lab in enumerate(split.label_set)}
    encoded = [
        ([vocab.id_of(t) for t in s.tokens], label_index[s.label])
        for s in split.train
    ]
    dev = split.dev if split.dev else split.train

    current = TrainedModel(
        params=params, table=table, vocab=vocab,
        label_set=list(split.label_set),
        train_cfg=train_cfg, loss_cfg=loss_cfg,
    )

    def snapshot():
        return replace(current, params=params.copy(),
                       table=EmbeddingTable(table.matrix.copy(), table.trainable))

    best, best_acc, history = snapshot(), -1.0, []

    for epoch in range(1, train_cfg.epochs + 1):
        order = rng.permutation(len(encoded)) if train_cfg.shuffle else range(len(encoded))
        total_loss = 0.0
        for i in order:
            ids, y = encoded[i]
            x = compose_ngram_inputs(ids, table, train_cfg.window)
            cache = forward_pass(params, x)
            loss, grads, d_inputs = loss_gradients(params, cache, y, loss_cfg)
            total_loss += loss
            emb_grads = None
            if table.trainable:
                emb_grads = emb_mod.input_grads_to_embeddings(
                    d_inputs, ids, train_cfg.window, vocab.size, table.dim
                )
            sgd_step(params, grads, train_cfg.learning_rate,
                     train_cfg.clip_norm, table, emb_grads)
        mean_loss = total_loss / len(encoded)
        if not (np.isfinite(mean_loss) and np.isfinite(table.matrix).all()
                and all(np.isfinite(a).all() for a in params.arrays().values())):
            raise TrainingDiverged(
                f"epoch {epoch}: training diverged to a non-finite loss or "
                f"weight at learning_rate {train_cfg.learning_rate}")
        dev_acc = _accuracy(current, dev)
        history.append((epoch, mean_loss, dev_acc))
        if dev_acc >= best_acc:
            best, best_acc = snapshot(), dev_acc
    best.history = history
    return best


def evaluate(model, sentences):
    if not sentences:
        raise EmptyEvalSet("no sentences to evaluate")
    gold = [s.label for s in sentences]
    present = [lab for lab in model.label_set if lab in set(gold)]
    if not present:
        raise UnknownRelation(f"none of the labels {sorted(set(gold))} is in "
                              f"the model's label set")
    pred = [predict(model, s)[0] for s in sentences]
    accuracy = sum(g == p for g, p in zip(gold, pred)) / len(gold)

    per_class_f1 = {}
    for lab in model.label_set:
        tp = sum(1 for g, p in zip(gold, pred) if g == lab and p == lab)
        fp = sum(1 for g, p in zip(gold, pred) if g != lab and p == lab)
        fn = sum(1 for g, p in zip(gold, pred) if g == lab and p != lab)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
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


def _fmt_row(row):
    return " ".join(_fmt(v) for v in row)


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


def _weight_head(name, shape):
    kind = "matrix" if len(shape) == 2 else "vector"
    return " ".join([kind, name, *map(str, shape)])


def save_model(model, path):
    lines = [
        "cbrnn-model 1",
        _config_line("train", model.train_cfg),
        _config_line("loss", model.loss_cfg),
        f"labels {len(model.label_set)}",
        *model.label_set,
        f"vocab {model.vocab.size}",
        *model.vocab.id_to_token,
    ]
    m = model.table.matrix
    lines.append(f"embeddings {m.shape[0]} {m.shape[1]} {int(model.table.trainable)}")
    lines.extend(_fmt_row(row) for row in m)
    for name, array in model.params.arrays().items():
        lines.append(_weight_head(name, array.shape))
        lines.extend(_fmt_row(row) for row in np.atleast_2d(array))
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


def load_model(path):
    """Read a model file; any deviation from what ``save_model`` writes for
    the file's own train, labels and vocab lines raises ``ModelFormatError``
    naming the section."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "cbrnn-model 1":
        raise ModelFormatError("not a cbrnn model file")
    pos = 1

    def take(section):
        nonlocal pos
        if pos == len(lines):
            raise ModelFormatError(f"{section}: unexpected end of file")
        pos += 1
        return lines[pos - 1]

    def counts(keyword, n):
        line = take(keyword)
        parts = line.split()
        if (len(parts) != n + 1 or parts[0] != keyword
                or not all(p.isdigit() for p in parts[1:])):
            raise ModelFormatError(f"{keyword}: expected {keyword!r} and {n} "
                                   f"count(s), found {line!r}")
        return [int(p) for p in parts[1:]]

    def rows(section, n, width):
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
        if not np.all(np.isfinite(array)):
            raise ModelFormatError(f"{section}: non-finite value")
        return array

    train_cfg = _read_config(take("train"), "train", TrainConfig)
    loss_cfg = _read_config(take("loss"), "loss", LossConfig)
    label_set = [take("labels") for _ in range(counts("labels", 1)[0])]
    id_to_token = [take("vocab") for _ in range(counts("vocab", 1)[0])]
    vocab = Vocabulary({t: i for i, t in enumerate(id_to_token)}, id_to_token)
    if len(vocab.token_to_id) != vocab.size:
        token = next(t for i, t in enumerate(id_to_token) if vocab.token_to_id[t] != i)
        raise ModelFormatError(f"vocab: token {token!r} repeated")

    n_rows, dim, trainable = counts("embeddings", 3)
    if (n_rows, dim) != (vocab.size, train_cfg.embed_dim):
        raise ModelFormatError(
            f"embeddings: {n_rows}x{dim} does not match vocab {vocab.size} "
            f"and embed_dim {train_cfg.embed_dim}")
    matrix = rows("embeddings", n_rows, dim)
    if n_rows and np.any(matrix[PAD_ID]):
        # N-gram windows read this row where they leave the sentence
        raise ModelFormatError("embeddings: padding row must be zero")
    table = EmbeddingTable(matrix=matrix, trainable=bool(trainable))

    shapes = CBRNNParams.shapes(train_cfg.window * train_cfg.embed_dim,
                                train_cfg.hidden_size, len(label_set))
    arrays = {}
    for name, shape in shapes.items():
        head = _weight_head(name, shape)
        section = " ".join(head.split()[:2])
        line = take(section)
        if line != head:
            raise ModelFormatError(f"{section}: expected {head!r}, found {line!r}")
        n_lines = shape[0] if len(shape) == 2 else 1
        arrays[name] = rows(section, n_lines, shape[-1]).reshape(shape)
    line = take("end")
    if line != "end":
        raise ModelFormatError(f"end: unexpected section {line!r}")
    return TrainedModel(
        params=CBRNNParams(**arrays), table=table, vocab=vocab,
        label_set=label_set, train_cfg=train_cfg, loss_cfg=loss_cfg,
    )
