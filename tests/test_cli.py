import numpy as np
import pytest

from cbrnn import cli, interpret
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


def test_train_config_file_merged_under_flags(tmp_path, quick_model):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epochs=1\nhidden=6\ndim=4\nseed=3\n")
    out1 = tmp_path / "m1.txt"
    rc = cli.main(["train", "--data", str(quick_model["data"]),
                   "--out", str(out1), "--config", str(cfg),
                   "--epochs", "2"])  # explicit flag wins
    assert rc == 0
    m = load_model(out1)
    assert m.train_cfg.epochs == 2
    assert m.train_cfg.hidden_size == 6


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
