"""Command-line interface: train, lisa, patterns, eval, export-hidden.

Data goes to stdout, diagnostics to stderr. Exit codes: 0 success, 2
usage/data error, 1 internal error. Every run is fully determined by its
flags and input files.
"""

from __future__ import annotations

import argparse
import re
import sys

from . import corpus, interpret, model as model_mod
from .corpus import CorpusError, CorpusSplit, load_corpus_file
from .embeddings import DimensionMismatch, EvenWindow, MalformedLine
from .interpret import UnknownRelation
from .model import LossConfig, TrainConfig

USAGE_ERRORS = (
    CorpusError, DimensionMismatch, MalformedLine, EvenWindow,
    UnknownRelation, model_mod.ModelFormatError, model_mod.EmptyTrainSet,
    model_mod.EmptyEvalSet, FileNotFoundError, ValueError,
)


def _read_config_file(path):
    values = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _merge_config(args, parser, argv):
    """Values from --config fill in flags that ``argv`` does not give."""
    if not getattr(args, "config", None):
        return args
    file_values = _read_config_file(args.config)
    # argparse leaves a destination alone unless its flag is in argv
    unset = object()
    given = parser.parse_args(
        argv, namespace=argparse.Namespace(**dict.fromkeys(vars(args), unset))
    )
    explicit = {dest for dest, value in vars(given).items() if value is not unset}
    for key, raw in file_values.items():
        if key in explicit or not hasattr(args, key):
            continue
        current = getattr(args, key)
        if isinstance(current, bool):
            setattr(args, key, raw.lower() in ("1", "true", "yes"))
        elif isinstance(current, int):
            setattr(args, key, int(raw))
        elif isinstance(current, float):
            setattr(args, key, float(raw))
        else:
            setattr(args, key, raw)
    return args


def _write_or_stdout(text, path):
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_split(args):
    if args.synthetic:
        m = re.fullmatch(r"(\d+)x(\d+)", args.synthetic)
        if not m:
            raise ValueError("--synthetic expects RELATIONSxSENTENCES, e.g. 4x50")
        cfg = corpus.SyntheticConfig(
            n_relations=int(m.group(1)),
            sentences_per_relation=int(m.group(2)),
            seed=args.seed,
        )
        return corpus.generate_synthetic(cfg)
    sentences = load_corpus_file(args.data)
    if args.dev:
        dev = load_corpus_file(args.dev)
        train_set = sentences
    else:
        # deterministic 90/10 holdout
        n_dev = max(1, len(sentences) // 10)
        dev = sentences[-n_dev:]
        train_set = sentences[:-n_dev]
    test = load_corpus_file(args.test) if args.test else []
    labels = []
    for s in train_set + dev + test:
        if s.label not in labels:
            labels.append(s.label)
    return CorpusSplit(train=train_set, dev=dev, test=test, label_set=labels)


def cmd_train(args):
    split = _load_split(args)
    train_cfg = TrainConfig(
        learning_rate=args.lr, epochs=args.epochs, seed=args.seed,
        window=args.ngram, hidden_size=args.hidden, embed_dim=args.dim,
        min_count=args.min_count, clip_norm=args.clip_norm,
        shuffle=not args.no_shuffle,
    )
    loss_cfg = LossConfig(gamma=args.gamma, m_plus=args.m_plus,
                          m_minus=args.m_minus)
    model = model_mod.train(split, train_cfg, loss_cfg, pretrained=args.embeddings)
    model_mod.save_model(model, args.out)
    if args.metrics:
        lines = [
            f"{epoch}\t{loss:.17g}\t{acc:.17g}"
            for epoch, loss, acc in model.history
        ]
        with open(args.metrics, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + ("\n" if lines else ""))
    if split.test:
        metrics = model_mod.evaluate(model, split.test)
        sys.stdout.write(f"test_accuracy: {metrics['accuracy']:.17g}\n")
        sys.stdout.write(f"test_macro_f1: {metrics['macro_f1']:.17g}\n")
    return 0


def _pick_sentence(args, model):
    if args.sentence:
        tokens = tuple(args.sentence.split())
        corpus.validate_markers(tokens)
        return corpus.LabeledSentence(tokens=tokens, label=args.relation, id="cli")
    sentences = load_corpus_file(args.data)
    for s in sentences:
        if s.id == args.id:
            return s
    raise ValueError(f"sentence id {args.id!r} not found in {args.data}")


def cmd_lisa(args):
    model = model_mod.load_model(args.model)
    sentence = _pick_sentence(args, model)
    curve = interpret.prefix_curve(model, sentence, args.relation,
                                   lookahead=args.lookahead)
    _write_or_stdout(interpret.curve_to_csv(curve), args.out)
    return 0


def cmd_patterns(args):
    model = model_mod.load_model(args.model)
    sentences = load_corpus_file(args.data)
    window = args.ngram if args.ngram else model.train_cfg.window
    table = interpret.mine_patterns(
        model, sentences, tau=args.tau, window=window,
        only_correct=not args.all, lookahead=args.lookahead,
    )
    _write_or_stdout(interpret.pattern_table_to_tsv(table), args.out)
    return 0


def cmd_eval(args):
    model = model_mod.load_model(args.model)
    sentences = load_corpus_file(args.data)
    metrics = model_mod.evaluate(model, sentences)
    out = [f"accuracy: {metrics['accuracy']:.17g}",
           f"macro_f1: {metrics['macro_f1']:.17g}"]
    for label, f1 in metrics["per_class_f1"].items():
        out.append(f"f1[{label}]: {f1:.17g}")
    sys.stdout.write("\n".join(out) + "\n")
    return 0


def cmd_export_hidden(args):
    model = model_mod.load_model(args.model)
    sentences = load_corpus_file(args.data)
    rows = interpret.export_hidden_states(model, sentences)
    _write_or_stdout(interpret.hidden_to_tsv(rows), args.out)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="cbrnn")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--data", help="normalized corpus file (train split)")
    p.add_argument("--dev", help="normalized corpus file (dev split)")
    p.add_argument("--test", help="normalized corpus file (test split)")
    p.add_argument("--synthetic", metavar="RxS",
                   help="generate a synthetic corpus, e.g. 4x50")
    p.add_argument("--out", required=True, help="model file to write")
    p.add_argument("--metrics", help="per-epoch metrics log file")
    p.add_argument("--embeddings", help="pretrained vector text file")
    p.add_argument("--config", help="key=value file merged under explicit flags")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--hidden", type=int, default=64)
    p.add_argument("--dim", type=int, default=50)
    p.add_argument("--ngram", type=int, default=3)
    p.add_argument("--min-count", type=int, default=1)
    p.add_argument("--clip-norm", type=float, default=5.0)
    p.add_argument("--no-shuffle", action="store_true")
    p.add_argument("--gamma", type=float, default=2.0)
    p.add_argument("--m-plus", type=float, default=2.5)
    p.add_argument("--m-minus", type=float, default=0.5)
    p.set_defaults(func=cmd_train)
    parser.train_parser = p

    p = sub.add_parser("lisa", help="prefix probability curve as CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--sentence", help="space-separated marked tokens")
    p.add_argument("--data", help="corpus file to pick --id from")
    p.add_argument("--id", help="sentence id within --data")
    p.add_argument("--relation", required=True)
    p.add_argument("--lookahead", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_lisa)

    p = sub.add_parser("patterns", help="mine saliency patterns as TSV")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--tau", type=float, default=0.5)
    p.add_argument("--ngram", type=int, default=0,
                   help="pattern window size (default: model window)")
    p.add_argument("--all", action="store_true",
                   help="include misclassified sentences")
    p.add_argument("--no-lookahead", dest="lookahead", action="store_false")
    p.add_argument("--out")
    p.set_defaults(func=cmd_patterns, lookahead=True)

    p = sub.add_parser("eval", help="accuracy and F1 metrics")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("export-hidden", help="final combined hidden vectors as TSV")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_export_hidden)

    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "train":
        args = _merge_config(args, parser.train_parser, argv[1:])
        if bool(args.data) == bool(args.synthetic):
            print("error: exactly one of --data / --synthetic is required",
                  file=sys.stderr)
            return 2
    try:
        return args.func(args)
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
