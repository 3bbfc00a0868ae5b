"""Bidirectional RNN with a combined hidden chain, ranking loss and exact BPTT.

Three recurrent parts share one decision: a forward chain over the sentence,
a backward chain over the reversed sentence, and a combined chain that adds
the two directional states after the same number of steps and carries its own
recurrent connection. The class scores come from the combined state at the
final step. Training minimizes a margin ranking loss on the raw scores.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from . import embeddings as emb_mod
from .corpus import (
    PAD_ID,
    LabeledSentence,
    Vocabulary,
    build_vocabulary,
    validate_markers,
)
from .embeddings import EmbeddingTable, compose_ngram_inputs, init_random


class ShapeMismatch(ValueError):
    pass


class SingleClass(ValueError):
    pass


class EmptyTrainSet(ValueError):
    pass


class EmptyEvalSet(ValueError):
    pass


class ModelFormatError(ValueError):
    pass


@dataclass
class LossConfig:
    gamma: float = 2.0
    m_plus: float = 2.5
    m_minus: float = 0.5

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.m_plus <= self.m_minus:
            raise ValueError("m_plus must exceed m_minus")


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
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if self.clip_norm <= 0:
            raise ValueError("clip_norm must be positive")


@dataclass
class CBRNNParams:
    in_fwd: np.ndarray    # (window*dim, hidden)
    in_bwd: np.ndarray    # (window*dim, hidden)
    rec_fwd: np.ndarray   # (hidden, hidden)
    rec_bwd: np.ndarray   # (hidden, hidden)
    rec_comb: np.ndarray  # (hidden, hidden)
    out_w: np.ndarray     # (hidden, n_classes)
    out_b: np.ndarray     # (n_classes,)

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
    def u(shape):
        return rng.uniform(-0.1, 0.1, size=shape)

    return CBRNNParams(
        in_fwd=u((input_dim, hidden_size)),
        in_bwd=u((input_dim, hidden_size)),
        rec_fwd=u((hidden_size, hidden_size)),
        rec_bwd=u((hidden_size, hidden_size)),
        rec_comb=u((hidden_size, hidden_size)),
        out_w=u((hidden_size, n_classes)),
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


@dataclass
class Gradients:
    in_fwd: np.ndarray
    in_bwd: np.ndarray
    rec_fwd: np.ndarray
    rec_bwd: np.ndarray
    rec_comb: np.ndarray
    out_w: np.ndarray
    out_b: np.ndarray
    d_inputs: np.ndarray

    def param_arrays(self):
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name != "d_inputs"
        }


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
    """Exact gradients of the ranking loss w.r.t. every weight matrix and
    the composed input vectors.

    Only the recurrences through the hidden states run step by step; they
    record each chain's pre-activation gradients ``dA`` (one row per step),
    from which every weight gradient is one matrix product.
    """
    x = cache.inputs
    n = x.shape[0]

    _, c_minus = ranking_loss(cache.scores, y_plus, cfg)
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

    return Gradients(
        in_fwd=x.T @ dA_fwd,
        in_bwd=x.T @ dA_bwd,
        rec_fwd=cache.h_fwd[:-1].T @ dA_fwd[1:],
        rec_bwd=cache.h_bwd[1:].T @ dA_bwd[:-1],
        rec_comb=cache.h_comb[:-1].T @ dA_comb[1:],
        out_w=np.outer(cache.h_comb[n - 1], d_scores),
        out_b=d_scores.copy(),
        d_inputs=dA_fwd @ params.in_fwd.T + dA_bwd @ params.in_bwd.T,
    )


def gradient_check(params, x, y_plus, cfg, eps=1e-5, analytic=None):
    """Compare analytic gradients against central finite differences over
    every weight coordinate and every input coordinate."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    if analytic is None:
        cache = forward_pass(params, x)
        analytic = loss_gradients(params, cache, y_plus, cfg)

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

    for name, array in params.arrays().items():
        check(array, analytic.param_arrays()[name])
    check(x, analytic.d_inputs)
    return max_err


def global_grad_norm(grads, emb_grads=None):
    """Euclidean norm over every weight gradient and, when given, the
    embedding rows ``(row_ids, row_grads)`` an example touched."""
    arrays = list(grads.param_arrays().values())
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
    grad_arrays = grads.param_arrays()
    for name, array in params.arrays().items():
        array -= step * grad_arrays[name]
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
    best dev accuracy (ties go to the later epoch)."""
    if not split.train:
        raise EmptyTrainSet("training split is empty")
    loss_cfg = loss_cfg or LossConfig()
    vocab = build_vocabulary(split.train, min_count=train_cfg.min_count)
    table = pretrained or init_random(vocab, train_cfg.embed_dim, train_cfg.seed)
    rng = np.random.default_rng(train_cfg.seed)
    input_dim = train_cfg.window * table.dim
    params = init_params(input_dim, train_cfg.hidden_size, len(split.label_set), rng)

    label_index = {lab: i for i, lab in enumerate(split.label_set)}
    encoded = [
        ([vocab.id_of(t) for t in s.tokens], label_index[s.label])
        for s in split.train
    ]
    dev = split.dev if split.dev else split.train

    best = TrainedModel(
        params=params.copy(),
        table=EmbeddingTable(table.matrix.copy(), table.trainable),
        vocab=vocab, label_set=list(split.label_set),
        train_cfg=train_cfg, loss_cfg=loss_cfg, history=[],
    )
    best_acc = -1.0
    history = []
    current = TrainedModel(
        params=params, table=table, vocab=vocab,
        label_set=list(split.label_set),
        train_cfg=train_cfg, loss_cfg=loss_cfg,
    )

    for epoch in range(1, train_cfg.epochs + 1):
        order = rng.permutation(len(encoded)) if train_cfg.shuffle else range(len(encoded))
        total_loss = 0.0
        for i in order:
            ids, y = encoded[i]
            x = compose_ngram_inputs(ids, table, train_cfg.window)
            cache = forward_pass(params, x)
            loss, _ = ranking_loss(cache.scores, y, loss_cfg)
            total_loss += loss
            grads = loss_gradients(params, cache, y, loss_cfg)
            emb_grads = None
            if table.trainable:
                emb_grads = emb_mod.input_grads_to_embeddings(
                    grads.d_inputs, ids, train_cfg.window, vocab.size, table.dim
                )
            sgd_step(params, grads, train_cfg.learning_rate,
                     train_cfg.clip_norm, table, emb_grads)
        dev_acc = _accuracy(current, dev)
        history.append((epoch, total_loss / len(encoded), dev_acc))
        if dev_acc >= best_acc:
            best_acc = dev_acc
            best = TrainedModel(
                params=params.copy(),
                table=EmbeddingTable(table.matrix.copy(), table.trainable),
                vocab=vocab, label_set=list(split.label_set),
                train_cfg=train_cfg, loss_cfg=loss_cfg,
            )
    best.history = history
    return best


def evaluate(model, sentences):
    if not sentences:
        raise EmptyEvalSet("no sentences to evaluate")
    gold = [s.label for s in sentences]
    pred = [predict(model, s)[0] for s in sentences]
    accuracy = sum(g == p for g, p in zip(gold, pred)) / len(gold)

    per_class_f1 = {}
    present = [lab for lab in model.label_set if lab in set(gold)]
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


def save_model(model, path):
    cfg = model.train_cfg
    lcfg = model.loss_cfg
    lines = ["cbrnn-model 1"]
    lines.append(
        "train "
        f"learning_rate={_fmt(cfg.learning_rate)} epochs={cfg.epochs} "
        f"seed={cfg.seed} window={cfg.window} hidden_size={cfg.hidden_size} "
        f"embed_dim={cfg.embed_dim} min_count={cfg.min_count} "
        f"clip_norm={_fmt(cfg.clip_norm)} shuffle={int(cfg.shuffle)}"
    )
    lines.append(
        f"loss gamma={_fmt(lcfg.gamma)} m_plus={_fmt(lcfg.m_plus)} "
        f"m_minus={_fmt(lcfg.m_minus)}"
    )
    lines.append(f"labels {len(model.label_set)}")
    lines.extend(model.label_set)
    lines.append(f"vocab {model.vocab.size}")
    lines.extend(model.vocab.id_to_token)
    m = model.table.matrix
    lines.append(f"embeddings {m.shape[0]} {m.shape[1]} {int(model.table.trainable)}")
    lines.extend(_fmt_row(row) for row in m)
    for name, array in model.params.arrays().items():
        if array.ndim == 2:
            lines.append(f"matrix {name} {array.shape[0]} {array.shape[1]}")
            lines.extend(_fmt_row(row) for row in array)
        else:
            lines.append(f"vector {name} {array.shape[0]}")
            lines.append(_fmt_row(array))
    lines.append("end")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_kv(parts):
    return dict(p.split("=", 1) for p in parts)


def _finite(section, array):
    if not np.all(np.isfinite(array)):
        raise ModelFormatError(f"{section}: non-finite value")
    return array


def load_model(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "cbrnn-model 1":
        raise ModelFormatError("not a cbrnn model file")
    pos = 1

    def take():
        nonlocal pos
        line = lines[pos]
        pos += 1
        return line

    head = take().split()
    if head[0] != "train":
        raise ModelFormatError("expected train line")
    kv = _parse_kv(head[1:])
    train_cfg = TrainConfig(
        learning_rate=float(kv["learning_rate"]), epochs=int(kv["epochs"]),
        seed=int(kv["seed"]), window=int(kv["window"]),
        hidden_size=int(kv["hidden_size"]), embed_dim=int(kv["embed_dim"]),
        min_count=int(kv["min_count"]), clip_norm=float(kv["clip_norm"]),
        shuffle=bool(int(kv["shuffle"])),
    )
    head = take().split()
    if head[0] != "loss":
        raise ModelFormatError("expected loss line")
    kv = _parse_kv(head[1:])
    loss_cfg = LossConfig(
        gamma=float(kv["gamma"]), m_plus=float(kv["m_plus"]),
        m_minus=float(kv["m_minus"]),
    )

    head = take().split()
    if head[0] != "labels":
        raise ModelFormatError("expected labels section")
    label_set = [take() for _ in range(int(head[1]))]

    head = take().split()
    if head[0] != "vocab":
        raise ModelFormatError("expected vocab section")
    id_to_token = [take() for _ in range(int(head[1]))]
    vocab = Vocabulary(
        token_to_id={t: i for i, t in enumerate(id_to_token)},
        id_to_token=id_to_token,
    )

    head = take().split()
    if head[0] != "embeddings":
        raise ModelFormatError("expected embeddings section")
    rows, dim, trainable = int(head[1]), int(head[2]), bool(int(head[3]))
    matrix = _finite("embeddings", np.array(
        [[float(v) for v in take().split()] for _ in range(rows)]
    ).reshape(rows, dim))
    if rows and np.any(matrix[PAD_ID]):
        # N-gram windows read this row where they leave the sentence
        raise ModelFormatError("embeddings: padding row must be zero")
    table = EmbeddingTable(matrix=matrix, trainable=trainable)

    arrays = {}
    while True:
        head = take().split()
        if head[0] == "end":
            break
        if head[0] == "matrix":
            name, r, c = head[1], int(head[2]), int(head[3])
            arrays[name] = _finite(f"matrix {name}", np.array(
                [[float(v) for v in take().split()] for _ in range(r)]
            ).reshape(r, c))
        elif head[0] == "vector":
            name, r = head[1], int(head[2])
            arrays[name] = _finite(f"vector {name}", np.array(
                [float(v) for v in take().split()]
            ))
        else:
            raise ModelFormatError(f"unexpected section {head[0]}")
    params = CBRNNParams(**arrays)
    return TrainedModel(
        params=params, table=table, vocab=vocab, label_set=label_set,
        train_cfg=train_cfg, loss_cfg=loss_cfg,
    )
