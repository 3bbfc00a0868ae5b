"""The three workloads and the pipeline they share.

Every workload runs the same user-visible pipeline through the library's
public functions, with different shapes and weights:

    set-up (corpus generation or load, vocabulary) x SETUP_REPS
    train() -> predict -> prefix curves -> pattern mining -> save/load
    then all of these again, balanced by time, until time is up

See README.md for why each workload exists and which layer should move
which metric.
"""

from __future__ import annotations

import dataclasses
import gc
import math
import os
import statistics
from dataclasses import dataclass

import numpy as np

import cbrnn.corpus as corpus_mod
import cbrnn.interpret as interpret_mod
import cbrnn.model as model_mod

from . import semeval_corpus
from .clock import KERNELS, RefClock
from .probes import Patcher, Tracer, install_calibration

SETUP_REPS = 15
WINDOW = 3
LEARNING_RATE = 0.05
TRACED_PASSES = 2  # fixed work in the traced phase, so counts repeat
MIN_ACCURACY = 0.95  # desk quality floors, see README.md
MIN_RECOVERY = 0.5

END_TO_END = (
    ("setup_s", "s"),
    ("train_tokens_per_s", "tokens/s"),
    ("predict_sentences_per_s", "sentences/s"),
    ("curve_ms_p50", "ms"),
    ("curve_ms_p90", "ms"),
    ("patterns_sentences_per_s", "sentences/s"),
    ("save_s", "s"),
    ("load_s", "s"),
)

# per-layer metrics: "<layer row>.<field>" for each row of the traced
# summary (probes.Tracer.summary) and field listed here
LAYER_FIELDS = {
    "model.loss_gradients": ("self_s", "calls", "tokens"),
    "model.forward_pass": ("self_s", "tokens"),
    "model.forward_pass.train": ("self_s", "tokens"),
    "model.forward_pass.predict": ("self_s", "tokens"),
    "model.forward_pass.prefix_curve": ("self_s", "tokens"),
    "model.forward_pass.extract_pattern": ("self_s", "tokens"),
    "model.ranking_loss": ("self_s",),
    "model.sgd_step": ("self_s", "calls", "clipped_share"),
    "embeddings.input_grads_to_embeddings": ("self_s", "bytes"),
    "embeddings.compose_ngram_inputs": ("self_s", "rows"),
    "interpret.prefix_curve": ("self_s", "forward_tokens"),
    "interpret.extract_pattern": ("self_s", "found_share"),
    "interpret.mine_patterns": ("self_s",),
    "model.predict": ("self_s",),
    "model.train": ("self_s",),
    "model.save_model": ("self_s", "file_bytes"),
    "model.load_model": ("self_s", "file_bytes"),
    "corpus.build_vocabulary": ("self_s",),
    "corpus.load_corpus_file": ("self_s",),
}
FIELD_UNITS = {
    "self_s": "s", "calls": "count", "tokens": "count", "rows": "count",
    "forward_tokens": "count", "bytes": "bytes", "file_bytes": "bytes",
    "clipped_share": "ratio", "found_share": "ratio",
}
PER_LAYER = {f"{row}.{field}": (row, field, FIELD_UNITS[field])
             for row, fields in LAYER_FIELDS.items() for field in fields}
# tracing overhead: traced minus untraced value of each end-to-end metric
OVERHEAD_PREFIX = "trace_overhead."

# layers every workload must exercise in its traced phase
EXPECTED_LAYERS = tuple(sorted(LAYER_FIELDS))


@dataclass(frozen=True)
class Spec:
    name: str
    hidden: int
    dim: int
    epochs: int
    ref_iters: int            # compute kernel: recurrence steps per sub-block
    # the model learns the task (desk): mine only correctly classified
    # sentences, as the CLI does by default, and judge the quality floors.
    # Otherwise the briefly trained model is near chance: mine every
    # sentence (--all) and only report quality.
    quality_gate: bool
    predict_chunk: int        # sentences per timed predict unit
    mine_chunk: int           # sentences per timed mine_patterns unit
    # sizes
    n_train: int = 0
    n_dev: int = 0
    n_test: int = 0
    synthetic: tuple = ()     # (relations, sentences per relation) for desk
    long_lengths: tuple = ()  # lisa-long: lengths of the interpreted sentences
    curve_stride: int = 1     # curves and mining over every k-th test sentence
    curve_mix: tuple = ()     # or curves over (length, count) picks from the split
    targets: object = None    # corpus shape the generator must meet


DESK = Spec(
    name="desk", hidden=32, dim=16, epochs=30, synthetic=(4, 50),
    # generate_synthetic's expected length mix (1:3:4:3:1 over 8-12 tokens),
    # fixed so that a seed's draw of lengths does not move the percentiles
    curve_mix=((8, 3), (9, 9), (10, 12), (11, 9), (12, 3)),
    ref_iters=300,
    quality_gate=True, predict_chunk=10, mine_chunk=10,
)
SEMEVAL = Spec(
    name="semeval", hidden=100, dim=50, epochs=1,
    n_train=500, n_dev=50, n_test=100, curve_stride=5,
    targets=semeval_corpus.SEMEVAL_TARGETS,
    ref_iters=200,
    quality_gate=False, predict_chunk=10, mine_chunk=5,
)
LISA_LONG = Spec(
    name="lisa-long", hidden=100, dim=50, epochs=1,
    n_train=200, n_dev=20, n_test=20,
    long_lengths=(40, 60, 80, 100, 120, 140, 160),
    ref_iters=200,
    quality_gate=False, predict_chunk=7, mine_chunk=1,
)
WORKLOADS = {s.name: s for s in (DESK, SEMEVAL, LISA_LONG)}


def small(spec):
    """A tiny variant of a workload for the benchmark's own tests."""
    return dataclasses.replace(
        spec, hidden=6, dim=4, epochs=2 if spec.quality_gate else 1,
        n_train=min(spec.n_train, 40), n_dev=min(spec.n_dev, 6),
        n_test=min(spec.n_test, 8), curve_stride=min(spec.curve_stride, 3),
        synthetic=(3, 20) if spec.synthetic else (),
        curve_mix=tuple((n, 1) for n, _ in spec.curve_mix),
        long_lengths=spec.long_lengths[:2], targets=None, quality_gate=False,
        ref_iters=20,
    )


class Checks:
    """Output checks: every attempt counts, failures are kept by name."""

    def __init__(self):
        self.attempted = 0
        self.failed = {}

    def check(self, name, ok):
        self.attempted += 1
        if not ok:
            self.failed[name] = self.failed.get(name, 0) + 1
        return ok

    @property
    def n_failed(self):
        return sum(self.failed.values())


# the reference kernel whose speed rescales each kind of operation, picked
# by which one tracks it best across runs (set-up, object creation in pure
# Python, follows the compute kernel more closely than the text one)
KERNEL_OF = {
    "setup": "compute", "train": "compute", "predict": "compute",
    "curve": "compute", "patterns": "compute", "save": "text", "load": "text",
}
# allocation-heavy kinds: collect first, so that the collector does not
# bill them for garbage left by earlier work
COLLECT_BEFORE = frozenset({"setup", "save", "load"})


class Ops:
    """Measured operations on the clock's work time."""

    def __init__(self, clock):
        self.clock = clock
        self.rows = []   # (kind, unit index, work, w_start, w_end)

    def run(self, kind, uid, work, fn, *args, **kwargs):
        if kind in COLLECT_BEFORE:
            gc.collect()
        self.clock.maybe_calibrate()
        w0 = self.clock.work_now()
        result = fn(*args, **kwargs)
        self.rows.append((kind, uid, work, w0, self.clock.work_now()))
        return result


def end_to_end(ops):
    """The end-to-end metrics of one phase, rescaled and raw.

    Each unit (a predict chunk, one curve, a mining chunk, ...) may run many
    times; its time is the median of its runs. Throughputs are the work of
    all units over the sum of their median times, curve percentiles are
    taken over the curve set's median times, so a run that ends halfway
    through a pass does not tilt the length mix.
    """
    virt = {k: ops.clock.virtualizer(k) for k in KERNELS}
    runs = {}
    for kind, uid, work, w0, w1 in ops.rows:
        v = virt[KERNEL_OF[kind]]
        runs.setdefault(kind, {}).setdefault(uid, (work, [], []))
        runs[kind][uid][1].append(v(w1) - v(w0))
        runs[kind][uid][2].append(w1 - w0)

    out = {"samples": {k: sum(len(u[1]) for u in units.values())
                       for k, units in runs.items()}}
    for col, key in ((1, "value"), (2, "raw")):
        med = {kind: {uid: (u[0], statistics.median(u[col])) for uid, u in units.items()}
               for kind, units in runs.items()}

        def rate(kind):
            units = med[kind].values()
            return sum(w for w, _ in units) / sum(t for _, t in units)

        def pct(kind, q):
            times = [t for _, t in med[kind].values()]
            return 1e3 * float(np.percentile(np.asarray(times), q))

        out[key] = {
            "setup_s": med["setup"][0][1],
            "train_tokens_per_s": rate("train"),
            "predict_sentences_per_s": rate("predict"),
            "curve_ms_p50": pct("curve", 50),
            "curve_ms_p90": pct("curve", 90),
            "patterns_sentences_per_s": rate("patterns"),
            "save_s": med["save"][0][1],
            "load_s": med["load"][0][1],
        }
    return out


@dataclass
class Inputs:
    """Benchmark-made inputs on disk plus what the checks need to know."""
    files: dict
    trigger_phrases: dict
    shape: dict


def make_inputs(spec, seed, workdir):
    """Generate the workload's corpus from the seed and write it to files."""
    files = {}
    shape = {}
    if spec.synthetic:
        split = corpus_mod.generate_synthetic(
            corpus_mod.SyntheticConfig(*spec.synthetic, seed=seed))
        parts = {"test": split.test}
        triggers = split.trigger_phrases
    else:
        split = semeval_corpus.generate_semeval_like(
            seed, spec.n_train, spec.n_dev, spec.n_test)
        parts = {"train": split.train, "dev": split.dev, "test": split.test}
        if spec.long_lengths:
            parts["long"] = semeval_corpus.long_sentences(seed + 1, spec.long_lengths)
        triggers = split.trigger_phrases
        shape["train_length_histogram"] = semeval_corpus.length_histogram(split.train)
        if spec.long_lengths:
            shape["long_lengths"] = list(spec.long_lengths)
    for part, sentences in parts.items():
        path = os.path.join(workdir, f"{part}.tsv")
        corpus_mod.save_corpus_file(sentences, path)
        files[part] = path
    return Inputs(files=files, trigger_phrases=triggers, shape=shape)


def set_up(spec, seed, inputs):
    """What a user pays before any model work: corpus generation or load,
    and the vocabulary."""
    if spec.synthetic:
        split = corpus_mod.generate_synthetic(
            corpus_mod.SyntheticConfig(*spec.synthetic, seed=seed))
        split.test = corpus_mod.load_corpus_file(inputs.files["test"])
        long = []
    else:
        train = corpus_mod.load_corpus_file(inputs.files["train"])
        dev = corpus_mod.load_corpus_file(inputs.files["dev"])
        test = corpus_mod.load_corpus_file(inputs.files["test"])
        long = (corpus_mod.load_corpus_file(inputs.files["long"])
                if "long" in inputs.files else [])
        split = corpus_mod.CorpusSplit(
            train=train, dev=dev, test=test,
            label_set=list(semeval_corpus.LABELS),
            trigger_phrases=inputs.trigger_phrases)
    vocab = corpus_mod.build_vocabulary(split.train)
    return split, long, vocab


def _sets(spec, split, long):
    """(predict set, curve set, mining set) of the workload."""
    if spec.long_lengths:
        return long, long, long
    if spec.curve_mix:
        pool = split.train + split.dev + split.test
        curves = [s for length, count in spec.curve_mix
                  for s in [s for s in pool if len(s.tokens) == length][:count]]
        return split.test, curves, split.test
    curves = split.test[spec.curve_stride // 2::spec.curve_stride]
    return split.test, curves, curves


def _chunks(items, size):
    return [items[i:i + size] for i in range(0, len(items), size)]


def _finite_model(model):
    arrays = [model.table.matrix, *model.params.arrays().values()]
    losses = [loss for _, loss, _ in model.history]
    return (all(np.isfinite(a).all() for a in arrays)
            and all(math.isfinite(v) for v in losses))


class Pipeline:
    """One workload's operations on one clock; collects checks and outputs.

    The work is a list of units: ``train()``, predict chunks, one prefix
    curve per sentence, mining chunks and a save/load round trip. The first
    pass runs every unit once and keeps its outputs (later units use the
    first trained model); later runs of a unit must reproduce them.
    """

    def __init__(self, spec, seed, inputs, split, long, clock, checks, workdir):
        self.spec, self.seed, self.inputs = spec, seed, inputs
        self.split = split
        self.checks = checks
        self.workdir = workdir
        self.ops = Ops(clock)
        predict_set, self.curve_set, mine_set = _sets(spec, split, long)
        self.predict_chunks = _chunks(predict_set, spec.predict_chunk)
        self.mine_chunks = _chunks(mine_set, spec.mine_chunk)
        self.model = None        # the first trained model
        self.first = {}          # unit -> its first output
        self.probs = {}          # sentence id -> predict probabilities
        self.tally = {"sentences": 0, "correct": 0, "mined": 0, "recovered": 0}
        self.curve_csv = {}
        self.model_bytes = None
        self.quality = {}

    def units(self):
        return ([("train", 0)]
                + [("predict", i) for i in range(len(self.predict_chunks))]
                + [("curve", i) for i in range(len(self.curve_set))]
                + [("patterns", i) for i in range(len(self.mine_chunks))]
                + [("saveload", 0)])

    def train(self):
        spec = self.spec
        cfg = model_mod.TrainConfig(
            learning_rate=LEARNING_RATE, epochs=spec.epochs, seed=self.seed,
            window=WINDOW, hidden_size=spec.hidden, embed_dim=spec.dim)
        tokens = spec.epochs * sum(len(s.tokens) for s in self.split.train)
        model = self.ops.run("train", 0, tokens, model_mod.train, self.split, cfg)
        self.checks.check("training_finite", _finite_model(model))
        state = (model.history, model.table.matrix.tobytes(),
                 *(a.tobytes() for a in model.params.arrays().values()))
        if self._repeatable(("train", 0), state, "training_repeats"):
            self.model = model

    def _repeatable(self, unit, output, check_name):
        if unit in self.first:
            self.checks.check(check_name, self.first[unit] == output)
            return False
        self.first[unit] = output
        return True

    def do(self, kind, idx):
        ops, checks, spec, model = self.ops, self.checks, self.spec, self.model
        if kind == "train":
            self.train()
        elif kind == "predict":
            chunk = self.predict_chunks[idx]
            out = ops.run("predict", idx, len(chunk),
                          lambda c: [model_mod.predict(model, s) for s in c], chunk)
            labels = [label for label, _ in out]
            if self._repeatable((kind, idx), labels, "predict_repeats"):
                for s, (label, p) in zip(chunk, out):
                    self.probs[s.id] = p
                    self.tally["sentences"] += 1
                    self.tally["correct"] += label == s.label
        elif kind == "curve":
            s = self.curve_set[idx]
            curve = ops.run("curve", idx, 1, interpret_mod.prefix_curve,
                            model, s, s.label)
            ridx = model.label_set.index(s.label)
            if s.id not in self.probs:
                self.probs[s.id] = model_mod.predict(model, s)[1]
            checks.check("curve_endpoint_equals_predict",
                         curve.points[-1].prob_target == float(self.probs[s.id][ridx]))
            csv = interpret_mod.curve_to_csv(curve)
            if self._repeatable((kind, idx), csv, "curve_repeats"):
                self.curve_csv[s.id] = csv
        elif kind == "patterns":
            chunk = self.mine_chunks[idx]
            table = ops.run("patterns", idx, len(chunk), interpret_mod.mine_patterns,
                            model, chunk, tau=0.5, window=WINDOW,
                            only_correct=spec.quality_gate)
            tsv = interpret_mod.pattern_table_to_tsv(table)
            if self._repeatable((kind, idx), tsv, "patterns_repeat"):
                for e in table.entries:
                    self.tally["mined"] += e.support
                    if set(e.ngram) & set(self.inputs.trigger_phrases[e.relation]):
                        self.tally["recovered"] += e.support
        else:
            path = os.path.join(self.workdir, "model.txt")
            ops.run("save", 0, 1, model_mod.save_model, model, path)
            with open(path, "rb") as fh:
                saved = fh.read()
            loaded = ops.run("load", 0, 1, model_mod.load_model, path)
            if self._repeatable((kind, idx), saved, "model_file_repeats"):
                self.model_bytes = saved
                resaved = os.path.join(self.workdir, "model-resaved.txt")
                model_mod.save_model(loaded, resaved)
                with open(resaved, "rb") as fh:
                    checks.check("save_load_save_identical", saved == fh.read())

    def _judge_quality(self):
        t = self.tally
        denom = t["correct"] if self.spec.quality_gate else t["mined"]
        self.quality = {
            "test_accuracy": t["correct"] / t["sentences"],
            "trigger_recovery": t["recovered"] / denom if denom else 0.0,
        }
        if self.spec.quality_gate:
            self.checks.check(f"test_accuracy_at_least_{MIN_ACCURACY}",
                              self.quality["test_accuracy"] >= MIN_ACCURACY)
            self.checks.check(f"trigger_recovery_at_least_{MIN_RECOVERY}",
                              self.quality["trigger_recovery"] >= MIN_RECOVERY)

    def run(self, deadline=None, passes=None):
        """Run every unit once, training first; then either ``passes - 1``
        more full passes, or units until the work-clock deadline, picking
        the kind of work with the least time spent so far."""
        units = self.units()
        for unit in units:
            self.do(*unit)
        self._judge_quality()
        if passes is not None:
            for _ in range(passes - 1):
                for unit in units:
                    self.do(*unit)
            return passes * len(units)
        by_kind = {}
        for unit in units:
            by_kind.setdefault(unit[0], []).append(unit)
        spent = dict.fromkeys(by_kind, 0.0)
        cursor = dict.fromkeys(by_kind, 0)
        done = len(units)
        clock = self.ops.clock
        while clock.work_now() < deadline:
            kind = min(spent, key=spent.get)
            t0 = clock.work_now()
            self.do(*by_kind[kind][cursor[kind]])
            spent[kind] += clock.work_now() - t0
            cursor[kind] = (cursor[kind] + 1) % len(by_kind[kind])
            done += 1
        return done


def run_workload(spec, seed, seconds, trace, workdir):
    """Run one workload; returns a result dict (see run.py for the output)."""
    checks = Checks()
    clock = _clock(spec)
    inputs = make_inputs(spec, seed, workdir)
    if spec.targets is not None:
        split0, _, vocab0 = set_up(spec, seed, inputs)
        misses = semeval_corpus.check_shape(split0.train, vocab0.size, spec.targets)
        inputs.shape["vocab_size"] = vocab0.size
        inputs.shape["shape_misses"] = misses
        checks.check("corpus_shape_on_target", not misses)

    patcher = Patcher()
    install_calibration(patcher, clock)
    try:
        clock.calibrate()
        pipe = _set_up_reps(spec, seed, inputs, clock, checks, workdir)
        units_done = pipe.run(deadline=clock.work_now() + seconds)
        clock.calibrate()
    finally:
        patcher.restore()
    result = {
        "end_to_end": end_to_end(pipe.ops),
        "units_done": units_done,
        "quality": pipe.quality,
        "corpus": inputs.shape,
        "checks": checks,
        "curve_csv": pipe.curve_csv,
        "model_bytes": pipe.model_bytes,
        "kernel_median_s": {k: statistics.median(clock.kernel_seconds(k))
                            for k in KERNELS},
    }
    if trace:
        result.update(_traced_phase(spec, seed, inputs, checks, workdir, pipe,
                                    result["end_to_end"]))
    return result


def _clock(spec):
    return RefClock(WINDOW * spec.dim, spec.hidden, spec.ref_iters)


def _set_up_reps(spec, seed, inputs, clock, checks, workdir):
    ops = Ops(clock)
    for _ in range(SETUP_REPS):
        split, long, _ = ops.run("setup", 0, 1, set_up, spec, seed, inputs)
    pipe = Pipeline(spec, seed, inputs, split, long, clock, checks, workdir)
    pipe.ops.rows.extend(ops.rows)
    return pipe


def _traced_phase(spec, seed, inputs, checks, workdir, untraced, untraced_e2e):
    """Fixed work with spans on, so counts repeat exactly; compares outputs
    with the untraced phase."""
    clock = _clock(spec)
    tracer = Tracer(clock)
    patcher = Patcher()
    tracer.install(patcher)
    try:
        clock.calibrate()
        pipe = _set_up_reps(spec, seed, inputs, clock, checks, workdir)
        pipe.run(passes=TRACED_PASSES)
        clock.calibrate()
    finally:
        patcher.restore()
    checks.check("tracing_keeps_model_bytes", pipe.model_bytes == untraced.model_bytes)
    checks.check("tracing_keeps_curves", pipe.curve_csv == untraced.curve_csv)

    virt = {k: clock.virtualizer(k) for k in KERNELS}
    layers = tracer.summary(virt)
    for row in layers.values():
        if "clipped" in row:
            row["clipped_share"] = row["clipped"] / row["calls"]
        if "found" in row:
            row["found_share"] = row["found"] / row["calls"]
    missing = [name for name in EXPECTED_LAYERS
               if not checks.check(f"layer_exercised:{name}",
                                   layers.get(name, {}).get("calls", 0) > 0)]
    traced_e2e = end_to_end(pipe.ops)
    v = virt["compute"]
    return {
        "layers": layers,
        "missing_layers": missing,
        "traced_end_to_end": traced_e2e,
        "overhead": {k: traced_e2e["value"][k] - untraced_e2e["value"][k]
                     for k, _ in END_TO_END},
        "spans": [(s[0], s[1], v(s[2]), v(s[3]), s[4]) for s in tracer.spans],
    }
