"""Relation-classification corpora with inline entity-marker tokens.

Sentences carry the four marker tokens <e1> </e1> <e2> </e2> as ordinary
words. The normalized on-disk format is one record per line:
``label<TAB>token SP token ...`` with pre-tokenized text.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, groupby

PAD_TOKEN = "__PAD__"
UNK_TOKEN = "__UNK__"
PAD_ID = 0
UNK_ID = 1
MARKERS = ("<e1>", "</e1>", "<e2>", "</e2>")
_MARKER_SET = frozenset(MARKERS)

_PUNCT = ".,;:!?\"'()"


class InputError(ValueError):
    """Bad input from outside the program (files, flags, settings); the CLI
    exits 2 on it and on nothing else from the library."""


class NotUtf8(InputError):
    pass


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
    """A SemEval record that cannot be converted; ``index`` counts records
    from 1, ``number`` is the one before its sentence line's tab or None."""
    def __init__(self, index, message="malformed record", number=None):
        super().__init__(f"{_record_name(index, number)}: {message}")
        self.index = index


def _record_name(index, number):
    """``record 2 (8002)``, or ``record 2`` when no number is known."""
    return f"record {index} ({number})" if number else f"record {index}"


class EmptyCorpus(CorpusError):
    pass


class ConfigInvalid(CorpusError):
    pass


def validate_markers(tokens):
    """Check the <e1> ... </e1> ... <e2> ... </e2> layout of a token list: a
    marker missing, then one repeated, each in marker order, then the order
    and the two gaps."""
    tokens = tuple(tokens)  # a str's count() would count substrings
    # the quick pass: with four marker tokens in all, finding the four in
    # order, each where the layout allows it, shows each is there once
    if sum(map(_MARKER_SET.__contains__, tokens)) == 4:
        try:
            e1_end = tokens.index("</e1>", tokens.index("<e1>") + 2)
            tokens.index("</e2>", tokens.index("<e2>", e1_end + 1) + 2)
        except ValueError:
            pass  # the checks below name what is wrong
        else:
            return
    order = []
    for m in MARKERS:
        count = tokens.count(m)
        if not count:
            raise MissingMarker(f"marker {m} missing")
        if count > 1:
            raise DuplicateMarker(f"marker {m} occurs {count} times")
        order.append(tokens.index(m))
    if order != sorted(order):
        raise MarkerOrder(f"markers out of order: {order}")
    e1, e1_end, e2, e2_end = order
    if e1_end - e1 < 2:
        raise MarkerOrder("no token between <e1> and </e1>")
    if e2_end - e2 < 2:
        raise MarkerOrder("no token between <e2> and </e2>")


@dataclass(frozen=True)
class LabeledSentence:
    tokens: tuple
    label: str
    id: str = "0"

    def __post_init__(self):
        # a tuple, so that the tokens checked here stay the ones checked
        object.__setattr__(self, "tokens", tuple(self.tokens))
        if not self.tokens:
            raise EmptyTokens("sentence has no tokens")
        if not self.label:
            raise EmptyLabel("sentence has no label")
        validate_markers(self.tokens)


def sentence_tokens(sentence):
    """The tokens a model scores for ``sentence``: a ``LabeledSentence``'s
    as made, checked then, or any other sequence as a tuple, its markers
    checked (``validate_markers``). ``predict``, ``classify_many``, prefix
    curves and pattern extraction all take a sentence through this one
    rule."""
    if isinstance(sentence, LabeledSentence):
        return sentence.tokens
    tokens = tuple(sentence)
    validate_markers(tokens)
    return tokens


def parse_marked_sentence(line, sid="0"):
    """Parse one normalized ``label<TAB>tokens`` record."""
    label, _, text = line.rstrip("\n").partition("\t")
    tokens = tuple(text.split())
    return LabeledSentence(tokens=tokens, label=label, id=sid)


def serialize_sentence(s):
    return f"{s.label}\t{' '.join(s.tokens)}"


def _unify_line_ends(text):
    """``text`` with ``\\r\\n`` and ``\\r`` as ``\\n``, to be split at ``\\n``
    alone: ``str.splitlines`` also breaks at ``\\f``, ``\\x85``, U+2028 and
    other characters that may sit inside a line. A text with no ``\\r``, as
    in every file ``save_model`` writes, is returned as it is."""
    if "\r" not in text:
        return text
    return text.replace("\r\n", "\n").replace("\r", "\n")


def read_text(path):
    """The text of a UTF-8 file with ``\\r\\n`` and ``\\r`` read as ``\\n``, as
    text-mode ``open`` reads it, and a file with no ``\\r`` as decoded;
    bytes that are not UTF-8 raise ``NotUtf8`` naming ``path:line``."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise NotUtf8(f"{path}:{line}: not valid utf-8 ({exc.reason})") from None
    return _unify_line_ends(text)


def load_corpus_file(path):
    sentences = []
    for i, line in enumerate(read_text(path).split("\n")):
        if line.strip():
            try:
                sentences.append(parse_marked_sentence(line, sid=str(i)))
            except CorpusError as exc:
                exc.args = (f"{path}:{i + 1}: {exc}",)
                raise
    return sentences


def save_corpus_file(sentences, path):
    """Write ``sentences`` one record a line. A label holding a tab or a line
    break, or a token that is empty or holds whitespace, would not reload as
    itself: it raises ``CorpusError`` naming the sentence and the item
    before the file is opened."""
    sentences = list(sentences)
    for s in sentences:
        if any(c in s.label for c in "\t\n\r"):
            raise CorpusError(f"sentence {s.id}: label {s.label!r} holds a "
                              "tab or a line break")
        for tok in s.tokens:
            if tok.split() != [tok]:
                raise CorpusError(f"sentence {s.id}: token {tok!r} is empty "
                                  "or holds whitespace")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for s in sentences:
            fh.write(serialize_sentence(s) + "\n")


def _split_punct(token):
    """``token`` with each leading and trailing ``_PUNCT`` character split
    off as a token of its own."""
    rest = token.lstrip(_PUNCT)
    core = rest.rstrip(_PUNCT)
    lead, trail = token[:len(token) - len(rest)], rest[len(core):]
    return [*lead, *([core] if core else []), *trail]


def _normalize_semeval_text(text):
    for tag in MARKERS:
        text = text.replace(tag, f" {tag} ")
    # no marker holds a character of _PUNCT or one that lower() changes
    return tuple(tok.lower() for raw in text.split() for tok in _split_punct(raw))


def import_semeval(raw):
    """Convert the SemEval10 Task 8 two-line record format to LabeledSentences.

    Each record is a numbered quoted sentence line, a relation line, and an
    optional ``Comment:`` line; records are separated by blank lines. An
    error names its record as ``record N:``, N counted from 1, followed by
    the number before the sentence line's tab where there is one:
    ``record 2 (8002): marker </e1> missing``.
    """
    stripped = [line.strip() for line in _unify_line_ends(raw).split("\n")]
    blocks = [list(block) for kept, block in groupby(stripped, key=bool) if kept]
    sentences = []
    for i, block in enumerate(blocks, start=1):
        lines = [ln for ln in block if not ln.startswith("Comment")]
        num, tab, text = lines[0].partition("\t") if lines else ("", "", "")
        num = num.strip() if tab else None
        if len(lines) < 2:
            raise MalformedRecord(i, "expected sentence and relation lines",
                                  num)
        # a stripped line's tab has text after it
        if not tab:
            raise MalformedRecord(i, "sentence line lacks a tab")
        tokens = _normalize_semeval_text(text.strip().strip('"'))
        try:
            sentences.append(LabeledSentence(tokens=tokens, label=lines[1],
                                             id=num))
        except CorpusError as exc:
            exc.args = (f"{_record_name(i, num)}: {exc}",)
            raise
    return sentences


@dataclass
class Vocabulary:
    """``id_to_token`` lists the tokens by id; ``token_to_id`` is derived
    from it, and a token listed twice maps to its last id."""
    id_to_token: list
    token_to_id: dict = field(init=False)

    def __post_init__(self):
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}

    @property
    def size(self):
        return len(self.id_to_token)

    def encode(self, tokens):
        """The id of each token, ``UNK_ID`` for one not in the vocabulary."""
        return [self.token_to_id.get(t, UNK_ID) for t in tokens]


def build_vocabulary(sentences, min_count=1):
    """Specials and markers first, then tokens with frequency >= min_count
    in first-occurrence order."""
    if not sentences:
        raise EmptyCorpus("no sentences")
    # a Counter keeps its keys in first-occurrence order
    counts = Counter(chain.from_iterable(s.tokens for s in sentences))
    specials = [PAD_TOKEN, UNK_TOKEN, *MARKERS]
    skip = set(specials)
    return Vocabulary(specials + [tok for tok, count in counts.items()
                                  if count >= min_count and tok not in skip])


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
    # the distinct sentences of one relation: 0 or 1 leading filler, 0 to 2
    # distinct trailing ones, and two entity words
    f, e = len(_FILLER_WORDS), len(_ENTITY_WORDS)
    max_sent = (1 + f) * (1 + f + f * (f - 1)) * e * e
    if config.sentences_per_relation > max_sent:
        raise ConfigInvalid(f"at most {max_sent} sentences per relation supported")

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
        # distinct sentences in the order drawn, so that no sentence lands
        # in two splits
        drawn = {}
        while len(drawn) < config.sentences_per_relation:
            lead = rng.sample(_FILLER_WORDS, rng.randint(0, 1))
            trail = rng.sample(_FILLER_WORDS, rng.randint(0, 2))
            e1 = rng.choice(_ENTITY_WORDS)
            e2 = rng.choice(_ENTITY_WORDS)
            tokens = (
                *lead, "<e1>", e1, "</e1>", *triggers[label],
                "<e2>", e2, "</e2>", *trail,
            )
            if tokens not in drawn:
                drawn[tokens] = LabeledSentence(tokens=tokens, label=label,
                                                id=f"{label}:{len(drawn):04d}")
        sentences = list(drawn.values())
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
