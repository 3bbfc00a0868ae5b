"""Wrappers around the library's public functions, installed from outside.

Two kinds of wrapper share one patching routine:

- calibration probes (every run): before each call, give the reference
  clock a chance to run its block, so long operations such as ``train()``
  are rescaled slice by slice rather than as one coarse interval;
- trace probes (``--trace 1``): record a span per call (name, parent, start,
  end on the clock's work time) plus per-call counts, kept in memory.

A function is often imported into several modules (``forward_pass`` lives in
``cbrnn.model`` and ``cbrnn.interpret``; ``compose_ngram_inputs`` in
``embeddings``, ``model`` and ``interpret``), and each module calls it through
its own global. Patching therefore replaces the function object in every
loaded ``cbrnn`` module that holds it, under any name.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys

import cbrnn.model

# (home module, function) for every layer the benchmark can see
LAYERS = (
    ("corpus", "load_corpus_file"),
    ("corpus", "build_vocabulary"),
    ("corpus", "generate_synthetic"),
    ("embeddings", "compose_ngram_inputs"),
    ("embeddings", "input_grads_to_embeddings"),
    ("model", "forward_pass"),
    ("model", "ranking_loss"),
    ("model", "loss_gradients"),
    ("model", "sgd_step"),
    ("model", "predict"),
    ("model", "train"),
    ("model", "save_model"),
    ("model", "load_model"),
    ("interpret", "prefix_curve"),
    ("interpret", "extract_pattern"),
    ("interpret", "mine_patterns"),
)


# layers rescaled by the text kernel (see workloads.KERNEL_OF)
TEXT_LAYERS = frozenset({"model.save_model", "model.load_model"})


class MissingLayer(RuntimeError):
    pass


def _cbrnn_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "cbrnn" or name.startswith("cbrnn."))]


class Patcher:
    """Replaces functions in every cbrnn namespace; ``restore()`` undoes it."""

    def __init__(self):
        self._undo = []

    def wrap(self, module_name, func_name, make_wrapper, strict):
        home = sys.modules.get(f"cbrnn.{module_name}")
        original = getattr(home, func_name, None) if home else None
        if not callable(original):
            if strict:
                raise MissingLayer(f"cbrnn.{module_name}.{func_name} not found")
            return 0
        wrapper = functools.wraps(original)(make_wrapper(original))
        hits = 0
        for mod in _cbrnn_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))
                    hits += 1
        return hits

    def restore(self):
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()


def install_calibration(patcher, clock):
    """Let the clock calibrate at any public call boundary."""
    def make(f):
        def wrapper(*args, **kwargs):
            clock.maybe_calibrate()
            return f(*args, **kwargs)
        return wrapper

    for module_name, func_name in LAYERS:
        patcher.wrap(module_name, func_name, make, strict=False)


class Tracer:
    """Spans of every layer call, on the clock's work time."""

    def __init__(self, clock):
        self.clock = clock
        self.spans = []      # [name, parent index, start, end, counts]
        self._stack = []

    def _counts(self, name, bound, result):
        a = bound.arguments
        if name == "model.forward_pass":
            return {"tokens": len(a["x"])}
        if name == "model.loss_gradients":
            return {"tokens": len(a["cache"].inputs)}
        if name == "model.sgd_step":
            norm = cbrnn.model.global_grad_norm(a["grads"], a.get("emb_grads"))
            return {"clipped": int(norm > a["clip_norm"])}
        if name == "embeddings.input_grads_to_embeddings":
            return {"bytes": int(a["vocab_size"]) * int(a["dim"]) * 8}
        if name == "embeddings.compose_ngram_inputs":
            return {"rows": len(a["ids"])}
        if name == "interpret.extract_pattern":
            return {"found": int(result is not None)}
        if name in ("model.save_model", "model.load_model"):
            return {"file_bytes": os.path.getsize(a["path"])}
        return {}

    def install(self, patcher):
        for module_name, func_name in LAYERS:
            name = f"{module_name}.{func_name}"

            def make(f, name=name):
                sig = inspect.signature(f)

                def wrapper(*args, **kwargs):
                    self.clock.maybe_calibrate()
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    parent = self._stack[-1] if self._stack else -1
                    idx = len(self.spans)
                    span = [name, parent, self.clock.work_now(), None, None]
                    self.spans.append(span)
                    self._stack.append(idx)
                    try:
                        result = f(*args, **kwargs)
                    finally:
                        span[3] = self.clock.work_now()
                        self._stack.pop()
                    span[4] = self._counts(name, bound, result)
                    return result
                return wrapper

            patcher.wrap(module_name, func_name, make, strict=True)

    def summary(self, virtualizers):
        """Per-layer calls, self time (rescaled seconds) and summed counts.

        ``virtualizers`` maps a kernel name to its work-to-rescaled mapping;
        each layer's times use the kernel of ``TEXT_LAYERS`` or ``compute``,
        its children's durations included. ``model.forward_pass`` is also
        split by the layer that called it.
        """
        spans = self.spans
        children = [[] for _ in spans]
        for i, s in enumerate(spans):
            if s[1] >= 0:
                children[s[1]].append(i)
        out = {}
        for i, (name, parent, start, end, counts) in enumerate(spans):
            v = virtualizers["text" if name in TEXT_LAYERS else "compute"]
            self_s = v(end) - v(start) - sum(v(spans[c][3]) - v(spans[c][2])
                                             for c in children[i])
            keys = [name]
            if name == "model.forward_pass":
                caller = spans[parent][0].split(".")[-1] if parent >= 0 else "top"
                keys.append(f"{name}.{caller}")
            for key in keys:
                row = out.setdefault(key, {"calls": 0, "self_s": 0.0})
                row["calls"] += 1
                row["self_s"] += self_s
                for c, n in counts.items():
                    # a file size is a size, not a running total
                    row[c] = max(row.get(c, 0), n) if c == "file_bytes" else row.get(c, 0) + n
            if name == "model.forward_pass" and parent >= 0 \
                    and spans[parent][0] == "interpret.prefix_curve":
                row = out["interpret.prefix_curve"]
                row["forward_tokens"] = row.get("forward_tokens", 0) + counts["tokens"]
        return out
