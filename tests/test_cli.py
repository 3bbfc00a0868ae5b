import numpy as np
import pytest

from cbrnn import cli, interpret
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
    assert list(m.table.matrix[m.vocab.id_of("signal")]) == [1, 2, 3, 4]


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
    assert section in capsys.readouterr().err


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
    ({"run.cfg": "seed=3\nhiden=6\n"}, [*TRAIN, "--config", "{tmp}/run.cfg"],
     "run.cfg:2"),
    ({"run.cfg": "no_shuffle=maybe\n"}, [*TRAIN, "--config", "{tmp}/run.cfg"],
     "run.cfg:1"),
    ({}, [*TRAIN, "--config", "{tmp}/nope.cfg"], "nope.cfg"),
    ({}, [*TRAIN, "--hidden", "0"], "hidden_size"),
    ({}, [*TRAIN, "--hidden", "-1"], "hidden_size"),
    ({}, [*TRAIN, "--dim", "0"], "embed_dim"),
    ({}, [*TRAIN, "--ngram", "-1"], "window"),
    ({}, [*TRAIN, "--seed", "-1"], "seed"),
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
     ["eval", "--model", "{model}", "--data", "{tmp}/latin1.tsv"], "utf-8"),
], ids=["config-bad-value", "config-unknown-key", "config-bad-switch",
        "config-missing", "hidden-0", "hidden-negative", "dim-0", "ngram-negative",
        "seed-negative", "single-label", "model-is-directory", "out-is-directory",
        "lisa-without-sentence", "only-unknown-labels", "corpus-marker",
        "not-utf-8"])
def test_bad_input_exit_2(tmp_path, quick_model, capsys, files, argv, expected):
    for name, content in files.items():
        path = tmp_path / name
        (path.write_bytes if isinstance(content, bytes) else path.write_text)(content)
    places = {"tmp": tmp_path, "model": quick_model["model"],
              "test": quick_model["test"]}
    assert _exit_code([arg.format(**places) for arg in argv]) == 2
    assert expected.format(**places) in capsys.readouterr().err
    assert not (tmp_path / "m.txt").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_diverged_writes_no_model(tmp_path, capsys):
    out = tmp_path / "m.txt"
    rc = cli.main(["train", "--synthetic", "2x20", "--epochs", "2", "--dim", "4",
                   "--hidden", "4", "--lr", "1e308", "--out", str(out)])
    assert rc == 2
    assert "epoch 1" in capsys.readouterr().err
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


@pytest.mark.parametrize("section, edit", [
    ("matrix rec_bwd", _truncate_in("matrix rec_bwd")),
    ("train", lambda lines: [line.replace(" seed=3", "") for line in lines]),
    ("matrix rec_comb", _rename("matrix rec_comb", "matrix rec_combined 6 6")),
    ("vector out_b", _drop_section("vector out_b")),
    ("matrix out_w", _drop_value_in("matrix out_w")),
    ("vocab", _repeat_vocab_token),
], ids=["truncated", "missing-key", "renamed", "missing-section", "short-row",
        "duplicate-token"])
def test_eval_rejects_malformed_model_exit_2(tmp_path, quick_model, capsys,
                                             section, edit):
    lines = edit(quick_model["model"].read_text().split("\n"))
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(lines))
    rc = cli.main(["eval", "--model", str(bad), "--data", str(quick_model["test"])])
    assert rc == 2
    assert section in capsys.readouterr().err
