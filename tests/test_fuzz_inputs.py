"""Mutated input files through ``cli.main``: every run exits 0 or 2, and an
exit 2 names where the input went wrong. Exit 1 is kept for bugs.

The mutations are derandomised. The budget is a third of the active
hypothesis profile's: 33 mutations a file kind by default, 333 under
``--hypothesis-profile=fuzz`` (registered in ``tests/conftest.py``).
"""

import contextlib
import io
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbrnn import SyntheticConfig, cli, generate_synthetic
from cbrnn.corpus import save_corpus_file

FUZZ = settings(max_examples=max(1, settings().max_examples // 3),
                derandomize=True, deadline=None)

# what a hand edit or a broken copy leaves in a line: non-finite and huge
# values, and the section headers of a model file
TOKENS = ["nan", "inf", "1e999", "99999999999999999999", "labels", "vocab 3",
          "embeddings", "matrix rec_fwd 4 4", "vector out_b 2", "end"]

SIZES = ["--hidden", "4", "--dim", "4", "--seed", "3"]

# the outcome of a whole run that no single line causes: a mutated value
# that is legal alone but makes training diverge
WHOLE_RUN = ("training diverged",)


def _names_the_input(message, path):
    """The error names ``path:line``, or the file searched for a sentence
    id that no line holds, or a whole-run outcome."""
    return bool(re.search(re.escape(str(path)) + r":\d+: ", message)
                or f"not found in {path}" in message
                or any(outcome in message for outcome in WHOLE_RUN))


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    base = tmp_path_factory.mktemp("fuzz")
    split = generate_synthetic(SyntheticConfig(2, 20, seed=3))
    save_corpus_file(split.train + split.dev, base / "train.tsv")
    save_corpus_file(split.test[:6], base / "test.tsv")
    model = base / "model.txt"
    assert cli.main(["train", "--data", str(base / "train.tsv"), "--epochs", "1",
                     *SIZES, "--out", str(model)]) == 0
    words = sorted({t for s in split.train for t in s.tokens})[:12]
    (base / "vectors.txt").write_text("".join(
        f"{w} " + " ".join(f"{0.01 * (i + j) - 0.05:.3f}" for j in range(4)) + "\n"
        for i, w in enumerate(words)))
    (base / "run.cfg").write_text(
        "# quick run\nhidden=4\ndim=4\nseed=3\nlr=0.05\nngram=3\ngamma=2\n"
        "m-plus=2.5\nno_shuffle=0\nepochs=1\n")
    return {"dir": base, "relation": split.label_set[0], "model": model,
            "train": base / "train.tsv", "test": base / "test.tsv",
            "vectors": base / "vectors.txt", "config": base / "run.cfg"}


@st.composite
def mutated(draw, text):
    """``text`` with one line deleted, truncated or inserted, or one of its
    tokens replaced."""
    lines = text.split("\n")
    i = draw(st.integers(0, len(lines) - 1))
    kind = draw(st.sampled_from(["delete", "truncate", "replace", "insert"]))
    if kind == "delete":
        del lines[i]
    elif kind == "truncate":
        lines[i] = lines[i][:draw(st.integers(0, len(lines[i])))]
    elif kind == "replace":
        parts = re.split(r"([\s=]+)", lines[i])
        parts[2 * draw(st.integers(0, len(parts) // 2))] = draw(st.sampled_from(TOKENS))
        lines[i] = "".join(parts)
    else:
        lines.insert(i, draw(st.sampled_from(TOKENS + lines)))
    return "\n".join(lines)


def _run_all(inputs, name, data, commands):
    """Write a mutation of the input ``name`` and run each command on it."""
    bad = inputs["dir"] / f"bad-{inputs[name].name}"
    bad.write_text(data.draw(mutated(inputs[name].read_text())))
    for command in commands:
        argv = [arg.format(bad=bad, out=inputs["dir"] / "out.txt", **inputs)
                for arg in command]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:  # argparse reports its errors this way
                rc = exc.code
        message = err.getvalue()
        assert rc in (0, 2), message
        assert rc == 0 or _names_the_input(message, bad), message


@FUZZ
@given(data=st.data())
def test_mutated_model_file(inputs, data):
    _run_all(inputs, "model", data, [
        ["eval", "--model", "{bad}", "--data", "{test}"],
        ["patterns", "--model", "{bad}", "--data", "{test}"],
    ])


@FUZZ
@given(data=st.data())
def test_mutated_corpus_file(inputs, data):
    _run_all(inputs, "train", data, [
        ["train", "--data", "{bad}", "--epochs", "1", *SIZES, "--out", "{out}"],
        ["patterns", "--model", "{model}", "--data", "{bad}"],
        ["lisa", "--model", "{model}", "--relation", "{relation}",
         "--data", "{bad}", "--id", "3"],
    ])


@FUZZ
@given(data=st.data())
def test_mutated_vectors_file(inputs, data):
    _run_all(inputs, "vectors", data, [
        ["train", "--data", "{train}", "--embeddings", "{bad}", "--epochs", "1",
         *SIZES, "--out", "{out}"],
    ])


@FUZZ
@given(data=st.data())
def test_mutated_config_file(inputs, data):
    # --epochs keeps a huge epoch count in the file from running for ever;
    # the file's value is still read and type-checked
    _run_all(inputs, "config", data, [
        ["train", "--data", "{train}", "--config", "{bad}", "--epochs", "1",
         "--out", "{out}"],
    ])
