import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cbrnn import cli, corpus, interpret
from cbrnn import model as model_mod
from cbrnn.corpus import save_corpus_file
from cbrnn.model import evaluate, load_model

QUICK = ["--epochs", "2", "--hidden", "6", "--dim", "4", "--seed", "3"]


@pytest.fixture(scope="module")
def quick_model(tmp_path_factory, synthetic_split):
    base = tmp_path_factory.mktemp("cli")
    data = base / "train.tsv"
    save_corpus_file(synthetic_split.train + synthetic_split.dev, data)
    test = base / "test.tsv"
    save_corpus_file(synthetic_split.test, test)
    model_path = base / "model.txt"
    rc = cli.main(["train", "--data", str(data), "--out", str(model_path), *QUICK])
    assert rc == 0
    return {"model": model_path, "data": data, "test": test}


def test_train_deterministic_files(tmp_path, quick_model):
    out1 = tmp_path / "m1.txt"
    out2 = tmp_path / "m2.txt"
    args = ["train", "--data", str(quick_model["data"]), *QUICK]
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_train_writes_metrics_log(tmp_path, quick_model):
    out = tmp_path / "m.txt"
    metrics = tmp_path / "metrics.tsv"
    rc = cli.main(["train", "--data", str(quick_model["data"]),
                   "--out", str(out), "--metrics", str(metrics), *QUICK])
    assert rc == 0
    lines = metrics.read_text().strip().split("\n")
    assert len(lines) == 2
    epoch, loss, acc = lines[0].split("\t")
    assert epoch == "1"
    float(loss), float(acc)


def test_train_synthetic_flag(tmp_path, capsys):
    out = tmp_path / "m.txt"
    rc = cli.main(["train", "--synthetic", "3x20", "--out", str(out), *QUICK])
    assert rc == 0
    captured = capsys.readouterr()
    assert "test_accuracy:" in captured.out
    assert out.exists()


@pytest.mark.parametrize("epochs", [2, 50])  # 50 is the flag's default
def test_train_config_file_merged_under_flags(tmp_path, quick_model, epochs):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epochs=1\nhidden=6\ndim=4\nseed=3\n")
    out1 = tmp_path / "m1.txt"
    rc = cli.main(["train", "--data", str(quick_model["data"]),
                   "--out", str(out1), "--config", str(cfg),
                   "--epochs", str(epochs)])  # explicit flag wins
    assert rc == 0
    m = load_model(out1)
    assert m.train_cfg.epochs == epochs
    assert m.train_cfg.hidden_size == 6


@pytest.mark.parametrize("line, setting, value", [
    ("lr=0.125", "learning_rate", 0.125),
    ("ngram = 5", "window", 5),
    ("no_shuffle=yes", "shuffle", False),
    ("no-shuffle=0", "shuffle", True),
])
def test_train_config_keys_are_flag_names(tmp_path, quick_model, line, setting,
                                          value):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"# one setting\n{line}\n")
    out = tmp_path / "m.txt"
    rc = cli.main(["train", "--data", str(quick_model["data"]), "--out", str(out),
                   "--config", str(cfg), *QUICK, "--epochs", "0"])
    assert rc == 0
    assert getattr(load_model(out).train_cfg, setting) == value


def test_train_embeddings_seed_the_table(tmp_path, quick_model):
    vectors = tmp_path / "vectors.txt"
    vectors.write_text("2 4\nsignal 1 2 3 4\nnot-in-vocab 5 6 7 8\n")
    out = tmp_path / "m.txt"
    rc = cli.main(["train", "--data", str(quick_model["data"]),
                   "--out", str(out), "--embeddings", str(vectors),
                   *QUICK, "--epochs", "0"])
    assert rc == 0
    m = load_model(out)
    assert m.train_cfg.embed_dim == m.table.dim == 4
    assert list(m.table.matrix[m.vocab.token_to_id["signal"]]) == [1, 2, 3, 4]


@pytest.mark.parametrize("value, message", [
    ("1x50", "--synthetic: need at least 2 relations"),
    ("4x99999999999999999999", "--synthetic: at most 482560 sentences per relation"),
], ids=["one-relation", "huge-sentence-count"])
def test_train_synthetic_out_of_range_builds_nothing(tmp_path, monkeypatch, capsys,
                                                      value, message):
    def spy(*args, **kwargs):
        pytest.fail("a synthetic sentence was built")

    monkeypatch.setattr(corpus, "LabeledSentence", spy)
    rc = cli.main(["train", "--synthetic", value, "--out", str(tmp_path / "m.txt")])
    assert rc == 2
    assert message in capsys.readouterr().err


def test_train_requires_data_or_synthetic(tmp_path, capsys):
    rc = cli.main(["train", "--out", str(tmp_path / "m.txt")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_train_missing_file_exit_2(tmp_path, capsys):
    rc = cli.main(["train", "--data", str(tmp_path / "nope.tsv"),
                   "--out", str(tmp_path / "m.txt")])
    assert rc == 2


def test_lisa_matches_library(quick_model, synthetic_split, capsys):
    s = synthetic_split.test[0]
    rc = cli.main(["lisa", "--model", str(quick_model["model"]),
                   "--sentence", " ".join(s.tokens), "--relation", s.label])
    assert rc == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert len(lines) == len(s.tokens) + 1
    model = load_model(quick_model["model"])
    assert out == interpret.curve_to_csv(interpret.prefix_curve(model, s, s.label))


def test_lisa_unknown_relation_exit_2(quick_model, synthetic_split, capsys):
    s = synthetic_split.test[0]
    rc = cli.main(["lisa", "--model", str(quick_model["model"]),
                   "--sentence", " ".join(s.tokens), "--relation", "nope"])
    assert rc == 2


def test_lisa_malformed_sentence_exit_2(quick_model, capsys):
    rc = cli.main(["lisa", "--model", str(quick_model["model"]),
                   "--sentence", "no markers here", "--relation", "rel-00"])
    assert rc == 2


def test_lisa_by_id(quick_model, synthetic_split, capsys):
    s = synthetic_split.test[0]
    rc = cli.main(["lisa", "--model", str(quick_model["model"]),
                   "--data", str(quick_model["test"]),
                   "--id", "0", "--relation", s.label])
    assert rc == 0


def test_patterns_matches_library(quick_model, capsys):
    rc = cli.main(["patterns", "--model", str(quick_model["model"]),
                   "--data", str(quick_model["test"]), "--tau", "0.5"])
    assert rc == 0
    out = capsys.readouterr().out
    model = load_model(quick_model["model"])
    from cbrnn.corpus import load_corpus_file

    sentences = load_corpus_file(quick_model["test"])
    table = interpret.mine_patterns(model, sentences, tau=0.5,
                                    window=model.train_cfg.window)
    assert out == interpret.pattern_table_to_tsv(table)


def test_patterns_rejects_a_huge_ngram_before_any_work(quick_model, monkeypatch,
                                                       capsys):
    """A window wider than twice the longest sentence only adds padding; a
    20-digit one would build a tuple that wide per pattern. It exits 2
    naming the flag before any sentence is mined or any window built."""
    def never(*args, **kwargs):
        raise AssertionError("reached")

    monkeypatch.setattr(interpret, "mine_patterns", never)
    monkeypatch.setattr(interpret, "token_window", never)
    rc = cli.main(["patterns", "--model", str(quick_model["model"]),
                   "--data", str(quick_model["test"]), "--ngram", "9" * 20])
    assert rc == 2
    assert "--ngram: window size must be at most" in capsys.readouterr().err


def test_patterns_all_rejects_an_unknown_relation_before_any_work(
        tmp_path, quick_model, monkeypatch, capsys):
    """With --all each sentence is mined against its own relation: one the
    model does not know exits 2 naming its file and line, before the
    sentences ahead of it are scored."""
    def never(*args, **kwargs):
        raise AssertionError("reached")

    monkeypatch.setattr(interpret, "mine_patterns", never)
    data = tmp_path / "s.tsv"
    data.write_text(f"rel-00\t{SENTENCE}\nzzz\t{SENTENCE}\n")
    rc = cli.main(["patterns", "--model", str(quick_model["model"]),
                   "--data", str(data), "--all"])
    assert rc == 2
    assert f"{data}:2: relation 'zzz' not in label set" in capsys.readouterr().err


def test_patterns_ngram_bound_is_twice_the_longest_sentence(tmp_path, quick_model,
                                                            capsys):
    """2L - 1 words, L the longest sentence's length, is the widest window
    accepted; its patterns are the model window's, padded."""
    data = tmp_path / "s.tsv"
    data.write_text(f"rel-00\t{SENTENCE}\nrel-01\tx {SENTENCE}\n")
    base = ["patterns", "--model", str(quick_model["model"]), "--data", str(data),
            "--all"]
    assert cli.main([*base, "--ngram", "15"]) == 0
    assert all(len(line.split("\t")[1].split()) == 15
               for line in capsys.readouterr().out.splitlines())
    assert cli.main([*base, "--ngram", "17"]) == 2
    assert "--ngram: window size must be at most 15 for sentences of up to 8 " \
        "words, got 17" in capsys.readouterr().err


def test_eval_matches_library(quick_model, capsys):
    rc = cli.main(["eval", "--model", str(quick_model["model"]),
                   "--data", str(quick_model["test"])])
    assert rc == 0
    out = capsys.readouterr().out
    model = load_model(quick_model["model"])
    from cbrnn.corpus import load_corpus_file

    metrics = evaluate(model, load_corpus_file(quick_model["test"]))
    assert f"accuracy: {metrics['accuracy']:.17g}" in out
    assert f"macro_f1: {metrics['macro_f1']:.17g}" in out


def test_export_hidden_row_count(quick_model, synthetic_split, capsys):
    rc = cli.main(["export-hidden", "--model", str(quick_model["model"]),
                   "--data", str(quick_model["test"])])
    assert rc == 0
    out = capsys.readouterr().out
    assert len(out.strip().split("\n")) == len(synthetic_split.test)


def test_repeat_run_byte_identical(tmp_path, quick_model):
    out1 = tmp_path / "h1.tsv"
    out2 = tmp_path / "h2.tsv"
    for out in (out1, out2):
        rc = cli.main(["export-hidden", "--model", str(quick_model["model"]),
                       "--data", str(quick_model["test"]), "--out", str(out)])
        assert rc == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_labels_with_other_line_breaks_round_trip(tmp_path, synthetic_split,
                                                  capsys):
    """A model file's lines end at ``\\n`` alone: labels holding U+2028,
    ``\\f`` or ``\\x85``, which ``str.splitlines`` also breaks at, train,
    evaluate and load back as they were."""
    names = {"rel-00": "cause\u2028effect", "rel-01": "part\fwhole",
             "rel-02": "member\x85group"}
    sentences = [replace(s, label=names.get(s.label, s.label))
                 for s in synthetic_split.train + synthetic_split.test]
    data, out = tmp_path / "data.tsv", tmp_path / "m.txt"
    save_corpus_file(sentences, data)
    assert cli.main(["train", "--data", str(data), "--out", str(out), *QUICK]) == 0
    assert cli.main(["eval", "--model", str(out), "--data", str(data)]) == 0, \
        capsys.readouterr().err
    assert load_model(out).label_set == list(dict.fromkeys(
        s.label for s in sentences))


@pytest.mark.parametrize("section, value", [("matrix out_w", "nan"),
                                            ("embeddings", "1")])
def test_eval_rejects_bad_weights_exit_2(tmp_path, quick_model, capsys,
                                         section, value):
    """A NaN model predicts the first label for every sentence; a non-zero
    padding row changes every boundary window. Neither may evaluate."""
    lines = quick_model["model"].read_text().split("\n")
    head = next(i for i, line in enumerate(lines) if line.startswith(section))
    lines[head + 1] = " ".join(value for _ in lines[head + 1].split())
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(lines))
    rc = cli.main(["eval", "--model", str(bad), "--data", str(quick_model["test"])])
    assert rc == 2
    # the first row sits on the line after the head, 1-based head + 2
    assert f"bad.txt:{head + 2}: {section}" in capsys.readouterr().err


SENTENCE = "<e1> a </e1> b <e2> c </e2>"
TRAIN = ["train", "--synthetic", "2x20", "--hidden", "4", "--dim", "4",
         "--out", "{tmp}/m.txt"]


def _exit_code(argv):
    """argparse reports its own errors by raising SystemExit."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("files, argv, expected", [
    ({"run.cfg": "epochs=abc\n"}, [*TRAIN, "--config", "{tmp}/run.cfg"], "--epochs"),
    ({"run.cfg": "seed=3\nepochs=abc\n"},
     [*TRAIN, "--config", "{tmp}/run.cfg", "--epochs", "1"], "run.cfg:2"),
    ({"run.cfg": "seed=3\nhiden=6\n"}, [*TRAIN, "--config", "{tmp}/run.cfg"],
     "run.cfg:2"),
    ({"run.cfg": "no_shuffle=maybe\n"}, [*TRAIN, "--config", "{tmp}/run.cfg"],
     "run.cfg:1"),
    ({}, [*TRAIN, "--config", "{tmp}/nope.cfg"], "nope.cfg"),
    ({"run.cfg": "seed=3\nlr=-1\n"}, [*TRAIN, "--config", "{tmp}/run.cfg"],
     "run.cfg:2: learning_rate must be positive"),
    ({"run.cfg": "m_minus=3\nseed=3\n"}, [*TRAIN, "--config", "{tmp}/run.cfg"],
     "run.cfg:1: m_plus must exceed m_minus"),
    ({"run.cfg": "seed=3\nlr=nan\n"}, [*TRAIN, "--config", "{tmp}/run.cfg"],
     "run.cfg:2: learning_rate must be positive, got nan"),
    ({"run.cfg": "seed=3\nembeddings=1\n"}, [*TRAIN, "--config", "{tmp}/run.cfg"],
     "run.cfg:2: [Errno 2] No such file or directory: '1'"),
    ({}, [*TRAIN, "--lr", "nan"], "learning_rate must be positive, got nan"),
    ({}, [*TRAIN, "--m-plus", "nan"], "m_plus must exceed m_minus"),
    ({}, [*TRAIN, "--gamma", "inf"], "--gamma: gamma must be positive and finite, got inf"),
    ({}, [*TRAIN, "--m-plus", "inf"], "--m-plus: m_plus must be finite, got inf"),
    ({"run.cfg": "seed=3\ngamma=inf\n"}, [*TRAIN, "--config", "{tmp}/run.cfg"],
     "run.cfg:2: gamma must be positive and finite, got inf"),
    ({"run.cfg": "ngram=99999999999999999999\n"}, [*TRAIN, "--config", "{tmp}/run.cfg"],
     "run.cfg:1: hidden_size 4, embed_dim 4, window 99999999999999999999: too many"),
    ({}, [*TRAIN, "--hidden", "99999999999999999999"], "too many weights to allocate"),
    ({}, [*TRAIN, "--hidden", "0"], "hidden_size"),
    ({}, [*TRAIN, "--hidden", "-1"], "hidden_size"),
    ({}, [*TRAIN, "--dim", "0"], "embed_dim"),
    ({}, [*TRAIN, "--ngram", "-1"], "window"),
    ({}, [*TRAIN, "--seed", "-1"], "seed"),
    ({}, [*TRAIN, "--min-count", "-3"],
     "--min-count: min_count must be non-negative, got -3"),
    ({"run.cfg": "seed=3\nmin_count=-3\n"}, [*TRAIN, "--config", "{tmp}/run.cfg"],
     "run.cfg:2: min_count must be non-negative, got -3"),
    ({"one.tsv": f"r\t{SENTENCE}\nr\t{SENTENCE}\n"},
     ["train", "--data", "{tmp}/one.tsv", "--out", "{tmp}/m.txt"], "two classes"),
    ({}, ["eval", "--model", "{tmp}", "--data", "{test}"], "{tmp}"),
    ({}, ["lisa", "--model", "{model}", "--relation", "rel-00",
          "--sentence", SENTENCE, "--out", "{tmp}"], "{tmp}"),
    ({}, ["lisa", "--model", "{model}", "--relation", "rel-00"], "--sentence"),
    ({"unknown.tsv": f"zzz\t{SENTENCE}\n"},
     ["eval", "--model", "{model}", "--data", "{tmp}/unknown.tsv"], "zzz"),
    ({"bad.tsv": "rel-00\t<e1> a b <e2> c </e2>\n"},
     ["eval", "--model", "{model}", "--data", "{tmp}/bad.tsv"], "bad.tsv:1"),
    ({"latin1.tsv": b"rel-00\t\xe9t\xe9\n"},
     ["eval", "--model", "{model}", "--data", "{tmp}/latin1.tsv"],
     "latin1.tsv:1: not valid utf-8"),
    ({"vec.txt": b"a 0.1 0.2 0.3 0.4\n\xe9 0.1 0.2 0.3 0.4\n"},
     [*TRAIN, "--epochs", "1", "--embeddings", "{tmp}/vec.txt"], "vec.txt:2"),
    ({"short.vec": "a 0.1 0.2 0.3 0.4\nb 0.1 0.2 0.3\n"},
     [*TRAIN, "--epochs", "1", "--embeddings", "{tmp}/short.vec"],
     "short.vec:2: expected dimension 4, found 3"),
    ({"short.vec": "a 0.1 0.2 0.3 0.4\nb\n"},
     [*TRAIN, "--epochs", "1", "--embeddings", "{tmp}/short.vec"],
     "short.vec:2: expected word and vector"),
    ({"nan.vec": "a 0.1 0.2 0.3 0.4\n<e1> nan 1 2 3\n"},
     [*TRAIN, "--epochs", "1", "--embeddings", "{tmp}/nan.vec"],
     "nan.vec:2: non-finite vector entry"),
    ({"head.vec": "2 2\na 0.1 0.2\n"},
     [*TRAIN, "--epochs", "1", "--embeddings", "{tmp}/head.vec"],
     "head.vec:1: expected dimension 4, found 2"),
    # headers that are not ASCII integers are read as a word and its vector
    ({"head.vec": "3 \u00b2\na 0.1 0.2 0.3 0.4\n"},
     [*TRAIN, "--epochs", "1", "--embeddings", "{tmp}/head.vec"], "head.vec:1"),
    ({"head.vec": "3 --4\na 0.1 0.2 0.3 0.4\n"},
     [*TRAIN, "--epochs", "1", "--embeddings", "{tmp}/head.vec"], "head.vec:1"),
    ({}, [*TRAIN, "--epochs", "1", "--metrics", "{tmp}"], "{tmp}"),
    # no sentence is mined, so only an up-front check can reject the settings
    ({"unknown.tsv": f"zzz\t{SENTENCE}\n"},
     ["patterns", "--model", "{model}", "--data", "{tmp}/unknown.tsv",
      "--tau", "1.5"], "tau"),
    ({"unknown.tsv": f"zzz\t{SENTENCE}\n"},
     ["patterns", "--model", "{model}", "--data", "{tmp}/unknown.tsv",
      "--ngram", "2"], "window"),
    ({}, ["lisa", "--model", "{model}", "--relation", "rel-00", "--sentence", "a"],
     "--sentence: marker <e1> missing"),
    ({"empty.tsv": ""}, ["eval", "--model", "{model}", "--data", "{tmp}/empty.tsv"],
     "{tmp}/empty.tsv: no sentences to evaluate"),
    ({}, ["patterns", "--model", "{model}", "--data", "{test}", "--tau", "nan"],
     "--tau: tau must lie in (0, 1), got nan"),
    # line 3, after a blank line: the sentence id is 2
    ({"unknown.tsv": f"rel-00\t{SENTENCE}\n\nzzz\t{SENTENCE}\n"},
     ["patterns", "--model", "{model}", "--data", "{tmp}/unknown.tsv", "--all"],
     "{tmp}/unknown.tsv:3: relation 'zzz' not in label set"),
    ({}, ["lisa", "--model", "{model}", "--relation", "zzz", "--sentence", SENTENCE],
     "--relation: relation 'zzz' not in label set"),
    ({"unknown.tsv": f"zzz\t{SENTENCE}\nyyy\t{SENTENCE}\n"},
     ["eval", "--model", "{model}", "--data", "{tmp}/unknown.tsv"],
     "{tmp}/unknown.tsv: none of the labels ['yyy', 'zzz'] is in the model's"),
    # a generated corpus makes its own dev and test splits
    ({}, [*TRAIN, "--test", "{tmp}/unk.tsv"],
     "--test cannot be used with --synthetic"),
    ({"run.cfg": "seed=3\ndev=unk.tsv\n"}, [*TRAIN, "--config", "{tmp}/run.cfg"],
     "run.cfg:2: --dev cannot be used with --synthetic"),
    ({}, ["lisa", "--model", "{model}", "--relation", "rel-00",
          "--sentence", SENTENCE, "--data", "{test}", "--id", "3"],
     "--sentence cannot be used with --data or --id"),
    ({}, ["lisa", "--model", "{model}", "--relation", "rel-00",
          "--sentence", SENTENCE, "--id", "3"],
     "--sentence cannot be used with --data or --id"),
], ids=["config-bad-value", "config-bad-value-overridden", "config-unknown-key", "config-bad-switch",
        "config-missing", "config-out-of-range", "config-margins", "config-nan",
        "config-names-missing-file", "lr-nan", "m-plus-nan", "gamma-inf", "m-plus-inf",
        "config-gamma-inf", "config-huge-window",
        "hidden-huge", "hidden-0", "hidden-negative", "dim-0", "ngram-negative",
        "seed-negative", "min-count-negative", "config-min-count-negative",
        "single-label", "model-is-directory", "out-is-directory",
        "lisa-without-sentence", "only-unknown-labels", "corpus-marker",
        "not-utf-8", "vectors-not-utf-8", "vectors-short-row",
        "vectors-no-vector", "vectors-non-finite", "vectors-header-dim",
        "vectors-header-superscript", "vectors-header-double-minus",
        "metrics-is-directory", "patterns-tau", "patterns-even-window",
        "lisa-sentence-markers", "eval-empty-data", "patterns-tau-nan",
        "patterns-all-unknown-relation", "lisa-unknown-relation",
        "eval-unknown-labels-names-file", "synthetic-with-test",
        "config-synthetic-with-dev", "lisa-sentence-with-data",
        "lisa-sentence-with-id"])
def test_bad_input_exit_2(tmp_path, quick_model, capsys, files, argv, expected):
    for name, content in files.items():
        path = tmp_path / name
        (path.write_bytes if isinstance(content, bytes) else path.write_text)(content)
    places = {"tmp": tmp_path, "model": quick_model["model"],
              "test": quick_model["test"]}
    assert _exit_code([arg.format(**places) for arg in argv]) == 2
    assert expected.format(**places) in capsys.readouterr().err
    assert not (tmp_path / "m.txt").exists()


def test_module_form_exits_with_the_cli_code(tmp_path):
    """``python -m cbrnn`` runs the command line in a process of its own and
    exits with its code: 2 for a bad flag, named on stderr."""
    src = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-m", "cbrnn", "train", "--synthetic", "2x20",
         "--hidden", "0", "--dim", "4", "--out", str(tmp_path / "m.txt")],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path})
    assert run.returncode == 2
    assert "--hidden: hidden_size must be positive" in run.stderr
    assert not (tmp_path / "m.txt").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_train_diverged_writes_no_model(tmp_path, capsys):
    """A diverging run warns of no overflow on its way: with warnings as
    errors it still exits 2, and its one line of stderr names the epoch."""
    out = tmp_path / "m.txt"
    for lr in ("inf", "1e308"):
        rc = cli.main(["train", "--synthetic", "2x20", "--epochs", "2",
                       "--dim", "4", "--hidden", "4", "--lr", lr,
                       "--out", str(out)])
        assert rc == 2, lr
        err = capsys.readouterr().err
        assert err.startswith("error: epoch 1: training diverged"), lr
        assert err.count("\n") == 1, lr
        assert not out.exists()


def test_bug_exit_1(quick_model, monkeypatch, capsys):
    def broken(model, sentences):
        raise ValueError("a bug, not bad input")

    monkeypatch.setattr(model_mod, "evaluate", broken)
    rc = cli.main(["eval", "--model", str(quick_model["model"]),
                   "--data", str(quick_model["test"])])
    assert rc == 1
    assert "internal error: a bug" in capsys.readouterr().err


def _truncate_in(section):
    def edit(lines):
        head = next(i for i, line in enumerate(lines) if line.startswith(section))
        return lines[:head + 2]
    return edit


def _rename(section, to):
    return lambda lines: [to if line.startswith(section) else line
                          for line in lines]


def _drop_section(section):
    def edit(lines):
        head = next(i for i, line in enumerate(lines) if line.startswith(section))
        return lines[:head] + lines[head + 2:]
    return edit


def _drop_value_in(section):
    def edit(lines):
        head = next(i for i, line in enumerate(lines) if line.startswith(section))
        lines[head + 1] = lines[head + 1].rsplit(" ", 1)[0]
        return lines
    return edit


def _repeat_vocab_token(lines):
    head = next(i for i, line in enumerate(lines) if line.startswith("vocab"))
    lines[head + 8] = lines[head + 7]  # two words after the specials and markers
    return lines


def _second_label(value):
    """Set the second label to ``value(first label)``."""
    def edit(lines):
        head = next(i for i, line in enumerate(lines) if line.startswith("labels"))
        lines[head + 2] = value(lines[head + 1])
        return lines
    return edit


def _head_count(section, k, value):
    """Set count ``k`` of the head of ``section`` to ``value(count)``."""
    def edit(lines):
        head = next(i for i, line in enumerate(lines) if line.startswith(section))
        parts = lines[head].split()
        parts[k] = value(parts[k])
        lines[head] = " ".join(parts)
        return lines
    return edit


def _set(name, value):
    return lambda lines: [re.sub(rf"\b{name}=\S+", f"{name}={value}", line)
                          for line in lines]


def _line_of(section, offset):
    """The 1-based number of the line ``offset`` lines after the head of
    ``section`` in the unedited file."""
    return lambda lines: next(i for i, line in enumerate(lines)
                              if line.startswith(section)) + 1 + offset


@pytest.mark.parametrize("section, edit, line", [
    # one row kept, so the end of file is 2 lines after the head
    ("matrix rec_bwd", _truncate_in("matrix rec_bwd"), _line_of("matrix rec_bwd", 2)),
    ("train", lambda lines: [line.replace(" seed=3", "") for line in lines],
     lambda lines: 2),
    ("matrix rec_comb", _rename("matrix rec_comb", "matrix rec_combined 6 6"),
     _line_of("matrix rec_comb", 0)),
    # "end" moves up to where the dropped head was
    ("vector out_b", _drop_section("vector out_b"), _line_of("vector out_b", 0)),
    ("matrix out_w", _drop_value_in("matrix out_w"), _line_of("matrix out_w", 1)),
    ("vocab", _repeat_vocab_token, _line_of("vocab", 8)),
    ("train", _set("learning_rate", "nan"), lambda lines: 2),
    ("loss", _set("m_minus", "nan"), lambda lines: 3),
    ("loss", _set("gamma", "inf"), lambda lines: 3),
    ("train", _set("min_count", "-1"), lambda lines: 2),
    ("embeddings", _head_count("embeddings", 3, lambda c: "0"), _line_of("embeddings", 0)),
    ("embeddings", _head_count("embeddings", 3, lambda c: "2"), _line_of("embeddings", 0)),
    ("embeddings", _head_count("embeddings", 1, lambda c: str(int(c) + 1)),
     _line_of("embeddings", 0)),
    ("embeddings", _head_count("embeddings", 2, lambda c: str(int(c) - 1)),
     _line_of("embeddings", 0)),
    ("labels", _head_count("labels", 1, lambda c: "four"), _line_of("labels", 0)),
    # str.isdigit() takes "²", which int() rejects
    ("labels", _head_count("labels", 1, lambda c: "\u00b2"), _line_of("labels", 0)),
    # a repeated label is named where it repeats
    ("labels", _second_label(lambda first: first), _line_of("labels", 2)),
    ("labels", _second_label(lambda first: ""), _line_of("labels", 2)),
    # nothing may follow "end": the same model again, or one more line
    ("end", lambda lines: lines[:-1] + lines, len),
    ("end", lambda lines: lines[:-1] + ["garbage", ""], len),
], ids=["truncated", "missing-key", "renamed", "missing-section", "short-row",
        "duplicate-token", "nan-setting", "nan-margin", "infinite-gamma",
        "negative-min-count", "embeddings-flag-0", "embeddings-flag-2",
        "embeddings-rows", "embeddings-dim", "labels-count-word",
        "labels-count-superscript", "repeated-label", "empty-label",
        "written-twice", "trailing-line"])
def test_eval_rejects_malformed_model_exit_2(tmp_path, quick_model, capsys,
                                             section, edit, line):
    original = quick_model["model"].read_text().split("\n")
    lines = edit(list(original))
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(lines), encoding="utf-8")
    rc = cli.main(["eval", "--model", str(bad), "--data", str(quick_model["test"])])
    assert rc == 2
    assert f"bad.txt:{line(original)}: {section}" in capsys.readouterr().err
