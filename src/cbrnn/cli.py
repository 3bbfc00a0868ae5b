"""Command-line interface: train, lisa, patterns, eval, export-hidden.

Data goes to stdout, diagnostics to stderr. Exit codes: 0 success, 2
usage/data error, 1 internal error. Every run is fully determined by its
flags and input files.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import fields

from . import corpus, interpret, model as model_mod
from .corpus import CorpusSplit, InputError, load_corpus_file
from .model import LossConfig, TrainConfig

USAGE_ERRORS = (InputError, OSError, UnicodeDecodeError)

# flags not spelled like their setting; a switch is --no-NAME or --NAME
_FLAG_NAMES = {"learning_rate": "--lr", "hidden_size": "--hidden",
               "embed_dim": "--dim", "window": "--ngram"}
_SWITCH_VALUES = {"1": True, "true": True, "yes": True,
                  "0": False, "false": False, "no": False}


def _add_setting_flags(parser):
    """One flag per TrainConfig/LossConfig field, typed and defaulted by the
    field's default."""
    for f in fields(TrainConfig) + fields(LossConfig):
        name = f.name.replace("_", "-")
        if isinstance(f.default, bool):
            parser.add_argument(("--no-" if f.default else "--") + name,
                                dest=f.name, action="store_const",
                                const=not f.default, default=f.default)
        else:
            flag = _FLAG_NAMES.get(f.name, "--" + name)
            parser.add_argument(flag, dest=f.name, type=type(f.default),
                                default=f.default,
                                metavar=flag[2:].replace("-", "_").upper())


def _config_defaults(parser, path):
    """Parser defaults from a ``flag-name=value`` file; argparse converts
    them with each flag's type, and flags given in argv still win."""
    defaults = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = (part.strip() for part in line.partition("="))
            action = parser._option_string_actions.get(
                "--" + key.replace("_", "-"))
            if action is None or action.dest in ("help", "config"):
                raise InputError(f"{path}:{lineno}: unknown setting {key!r}")
            if action.nargs == 0:
                if value.lower() not in _SWITCH_VALUES:
                    raise InputError(f"{path}:{lineno}: {key} takes 1/true/yes"
                                     f" or 0/false/no, not {value!r}")
                on = _SWITCH_VALUES[value.lower()]
                value = action.const if on else not action.const
            defaults[action.dest] = value
    return defaults


def _write_or_stdout(text, path):
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_split(args):
    if bool(args.data) == bool(args.synthetic):
        raise InputError("exactly one of --data / --synthetic is required")
    if args.synthetic:
        m = re.fullmatch(r"(\d+)x(\d+)", args.synthetic)
        if not m:
            raise InputError("--synthetic expects RELATIONSxSENTENCES, e.g. 4x50")
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
    train_cfg, loss_cfg = (cls(**{f.name: getattr(args, f.name) for f in fields(cls)})
                           for cls in (TrainConfig, LossConfig))
    split = _load_split(args)
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
    if not (args.data and args.id):
        raise InputError("give --sentence, or --data with --id")
    sentences = load_corpus_file(args.data)
    for s in sentences:
        if s.id == args.id:
            return s
    raise InputError(f"sentence id {args.id!r} not found in {args.data}")


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
    _add_setting_flags(p)
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
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            train_parser = parser.train_parser
            train_parser.set_defaults(**_config_defaults(train_parser, args.config))
            args = parser.parse_args(argv)
        return args.func(args)
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
