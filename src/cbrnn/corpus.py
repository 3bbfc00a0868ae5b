"""Relation-classification corpora with inline entity-marker tokens.

Sentences carry the four marker tokens <e1> </e1> <e2> </e2> as ordinary
words. The normalized on-disk format is one record per line:
``label<TAB>token SP token ...`` with pre-tokenized text.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field

PAD_TOKEN = "__PAD__"
UNK_TOKEN = "__UNK__"
PAD_ID = 0
UNK_ID = 1
MARKERS = ("<e1>", "</e1>", "<e2>", "</e2>")

_PUNCT = set(".,;:!?\"'()")


class InputError(ValueError):
    """Bad input from outside the program (files, flags, settings); the CLI
    exits 2 on it and on nothing else from the library."""


class CorpusError(InputError):
    pass


class MissingMarker(CorpusError):
    pass


class DuplicateMarker(CorpusError):
    pass


class MarkerOrder(CorpusError):
    pass


class EmptyLabel(CorpusError):
    pass


class EmptyTokens(CorpusError):
    pass


class MalformedRecord(CorpusError):
    def __init__(self, index, message="malformed record"):
        super().__init__(f"record {index}: {message}")
        self.index = index


class EmptyCorpus(CorpusError):
    pass


class ConfigInvalid(CorpusError):
    pass


def validate_markers(tokens):
    """Check the <e1> ... </e1> ... <e2> ... </e2> layout of a token list."""
    positions = {}
    for m in MARKERS:
        hits = [i for i, t in enumerate(tokens) if t == m]
        if not hits:
            raise MissingMarker(f"marker {m} missing")
        if len(hits) > 1:
            raise DuplicateMarker(f"marker {m} occurs {len(hits)} times")
        positions[m] = hits[0]
    order = [positions[m] for m in MARKERS]
    if order != sorted(order):
        raise MarkerOrder(f"markers out of order: {order}")
    if positions["</e1>"] - positions["<e1>"] < 2:
        raise MarkerOrder("no token between <e1> and </e1>")
    if positions["</e2>"] - positions["<e2>"] < 2:
        raise MarkerOrder("no token between <e2> and </e2>")


@dataclass(frozen=True)
class LabeledSentence:
    tokens: tuple
    label: str
    id: str = "0"

    def __post_init__(self):
        if not self.tokens:
            raise EmptyTokens("sentence has no tokens")
        if not self.label:
            raise EmptyLabel("sentence has no label")
        validate_markers(self.tokens)


def parse_marked_sentence(line, sid="0"):
    """Parse one normalized ``label<TAB>tokens`` record."""
    label, _, text = line.rstrip("\n").partition("\t")
    tokens = tuple(text.split())
    return LabeledSentence(tokens=tokens, label=label, id=sid)


def serialize_sentence(s):
    return f"{s.label}\t{' '.join(s.tokens)}"


def load_corpus_file(path):
    sentences = []
    with open(path, encoding="utf-8") as fh:
        for i, line in enumerate(fh):
            if line.strip():
                try:
                    sentences.append(parse_marked_sentence(line, sid=str(i)))
                except CorpusError as exc:
                    exc.args = (f"{path}:{i + 1}: {exc}",)
                    raise
    return sentences


def save_corpus_file(sentences, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for s in sentences:
            fh.write(serialize_sentence(s) + "\n")


def _split_punct(token):
    if token in MARKERS:
        return [token]
    lead = []
    trail = []
    while token and token[0] in _PUNCT:
        lead.append(token[0])
        token = token[1:]
    while token and token[-1] in _PUNCT:
        trail.append(token[-1])
        token = token[:-1]
    core = [token] if token else []
    return lead + core + list(reversed(trail))


def _normalize_semeval_text(text):
    for tag in ("<e1>", "</e1>", "<e2>", "</e2>"):
        text = text.replace(tag, f" {tag} ")
    tokens = []
    for raw in text.split():
        for tok in _split_punct(raw):
            tokens.append(tok if tok in MARKERS else tok.lower())
    return tuple(tokens)


def import_semeval(raw):
    """Convert the SemEval10 Task 8 two-line record format to LabeledSentences.

    Each record is a numbered quoted sentence line, a relation line, and an
    optional ``Comment:`` line; records are separated by blank lines.
    """
    blocks = []
    current = []
    for line in raw.splitlines():
        if line.strip():
            current.append(line.strip())
        elif current:
            blocks.append(current)
            current = []
    if current:
        blocks.append(current)

    sentences = []
    for i, block in enumerate(blocks):
        lines = [ln for ln in block if not ln.startswith("Comment")]
        if len(lines) < 2:
            raise MalformedRecord(i, "expected sentence and relation lines")
        num, _, text = lines[0].partition("\t")
        if not text:
            raise MalformedRecord(i, "sentence line lacks a tab")
        text = text.strip().strip('"')
        label = lines[1].strip()
        if not label:
            raise MalformedRecord(i, "empty relation line")
        tokens = _normalize_semeval_text(text)
        sid = num.strip() if num.strip() else str(i)
        sentences.append(LabeledSentence(tokens=tokens, label=label, id=sid))
    return sentences


@dataclass
class Vocabulary:
    token_to_id: dict
    id_to_token: list

    @property
    def size(self):
        return len(self.id_to_token)

    def id_of(self, token):
        return self.token_to_id.get(token, UNK_ID)

    def token_of(self, idx):
        return self.id_to_token[idx]


def build_vocabulary(sentences, min_count=1):
    """Specials and markers first, then tokens with frequency >= min_count
    in first-occurrence order."""
    if not sentences:
        raise EmptyCorpus("no sentences")
    counts = Counter()
    for s in sentences:
        counts.update(s.tokens)
    id_to_token = [PAD_TOKEN, UNK_TOKEN, *MARKERS]
    seen = set(id_to_token)
    for s in sentences:
        for tok in s.tokens:
            if tok not in seen and counts[tok] >= min_count:
                id_to_token.append(tok)
                seen.add(tok)
    return Vocabulary(
        token_to_id={t: i for i, t in enumerate(id_to_token)},
        id_to_token=id_to_token,
    )


def encode_sentence(s, vocab):
    return [vocab.id_of(t) for t in s.tokens]


@dataclass(frozen=True)
class SyntheticConfig:
    n_relations: int
    sentences_per_relation: int
    seed: int = 0


@dataclass
class CorpusSplit:
    train: list
    dev: list
    test: list
    label_set: list
    trigger_phrases: dict = field(default_factory=dict)


_ENTITY_WORDS = [
    "engine", "river", "tablet", "castle", "violin", "harbor", "meadow",
    "signal", "barrel", "comet", "garden", "statue", "window", "circuit",
    "anchor", "lantern",
]
_FILLER_WORDS = [
    "the", "a", "quite", "nearby", "old", "small", "gray", "plain",
    "slowly", "again", "still", "very",
]
_TRIGGER_VERBS = [
    "caused", "moved", "made", "sent", "held", "found", "built", "kept",
    "drawn", "placed",
]
_TRIGGER_PREPS = [
    "by", "into", "of", "for", "in", "with", "to", "from", "under", "near",
]
_TRIGGER_AUX = [
    "was", "is", "got", "gets", "stays", "looks", "seems", "went", "came",
    "goes",
]


def generate_synthetic(config):
    """Desk-scale corpus: each relation has a unique 2-3 token trigger phrase
    between the argument marker pairs; 70/10/20 split per relation."""
    if config.n_relations < 2:
        raise ConfigInvalid("need at least 2 relations")
    if config.sentences_per_relation < 20:
        raise ConfigInvalid("need at least 20 sentences per relation")
    max_rel = len(_TRIGGER_VERBS) * len(_TRIGGER_PREPS)
    if config.n_relations > max_rel:
        raise ConfigInvalid(f"at most {max_rel} relations supported")

    rng = random.Random(config.seed)
    pairs = [(v, p) for v in _TRIGGER_VERBS for p in _TRIGGER_PREPS]
    rng.shuffle(pairs)

    labels = [f"rel-{i:02d}" for i in range(config.n_relations)]
    triggers = {}
    for i, label in enumerate(labels):
        verb, prep = pairs[i]
        # alternate 2- and 3-token triggers; the auxiliary varies so that
        # 3-token triggers differ from the first word on
        aux = _TRIGGER_AUX[(i // 2) % len(_TRIGGER_AUX)]
        trig = (verb, prep) if i % 2 == 0 else (aux, verb, prep)
        triggers[label] = trig

    train, dev, test = [], [], []
    for label in labels:
        sentences = []
        for j in range(config.sentences_per_relation):
            lead = rng.sample(_FILLER_WORDS, rng.randint(0, 1))
            trail = rng.sample(_FILLER_WORDS, rng.randint(0, 2))
            e1 = rng.choice(_ENTITY_WORDS)
            e2 = rng.choice(_ENTITY_WORDS)
            tokens = (
                *lead, "<e1>", e1, "</e1>", *triggers[label],
                "<e2>", e2, "</e2>", *trail,
            )
            sentences.append(
                LabeledSentence(tokens=tokens, label=label, id=f"{label}:{j:04d}")
            )
        rng.shuffle(sentences)
        n = len(sentences)
        n_train = int(n * 0.7)
        n_dev = int(n * 0.1)
        train.extend(sentences[:n_train])
        dev.extend(sentences[n_train:n_train + n_dev])
        test.extend(sentences[n_train + n_dev:])

    return CorpusSplit(
        train=train, dev=dev, test=test,
        label_set=labels, trigger_phrases=triggers,
    )
