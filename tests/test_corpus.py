import re
from dataclasses import replace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cbrnn import corpus
from cbrnn.corpus import (
    ConfigInvalid,
    CorpusError,
    DuplicateMarker,
    EmptyCorpus,
    EmptyTokens,
    LabeledSentence,
    MalformedRecord,
    MarkerOrder,
    MissingMarker,
    SyntheticConfig,
    build_vocabulary,
    generate_synthetic,
    import_semeval,
    load_corpus_file,
    parse_marked_sentence,
    read_text,
    save_corpus_file,
    serialize_sentence,
)

S1_LINE = (
    "cause-effect(e1,e2)\t<e1> demolition </e1> was the cause of <e2> terror </e2>"
)


def test_parse_s1():
    s = parse_marked_sentence(S1_LINE)
    assert len(s.tokens) == 10
    assert s.label == "cause-effect(e1,e2)"
    assert s.tokens[0] == "<e1>"
    assert s.tokens[-1] == "</e2>"


def test_parse_minimal():
    s = parse_marked_sentence("X\t<e1> a </e1> <e2> b </e2>")
    assert len(s.tokens) == 6


def test_parse_nested_markers_rejected():
    with pytest.raises(MarkerOrder):
        parse_marked_sentence("X\t<e1> a <e2> b </e2> </e1>")


def test_parse_missing_marker():
    with pytest.raises(MissingMarker):
        parse_marked_sentence("X\t<e1> a </e1> b c")


def test_parse_duplicate_marker():
    with pytest.raises(DuplicateMarker):
        parse_marked_sentence("X\t<e1> a </e1> <e1> <e2> b </e2>")


def test_parse_empty_label():
    with pytest.raises(corpus.EmptyLabel):
        parse_marked_sentence("\t<e1> a </e1> <e2> b </e2>")


def test_sentence_keeps_the_tokens_it_checked():
    """Tokens given as a list are kept as a tuple, so changing the list
    afterwards cannot change a sentence whose markers were checked."""
    tokens = ["<e1>", "a", "</e1>", "<e2>", "b", "</e2>"]
    s = LabeledSentence(tokens, "X")
    tokens.clear()
    assert s.tokens == ("<e1>", "a", "</e1>", "<e2>", "b", "</e2>")


def test_empty_pair_rejected():
    with pytest.raises(MarkerOrder):
        parse_marked_sentence("X\t<e1> </e1> a <e2> b </e2>")


words = st.text(alphabet="abcdef", min_size=1, max_size=5)
word_lists = st.lists(words, max_size=3)


@st.composite
def marked_sentences(draw, words=words,
                     labels=st.text(alphabet="xyz-", min_size=1, max_size=8)):
    gap = st.lists(words, max_size=3)
    entity = st.lists(words, min_size=1, max_size=3)
    tokens = (
        tuple(draw(gap))
        + ("<e1>",) + tuple(draw(entity)) + ("</e1>",)
        + tuple(draw(gap))
        + ("<e2>",) + tuple(draw(entity)) + ("</e2>",)
        + tuple(draw(gap))
    )
    return LabeledSentence(tokens=tokens, label=draw(labels), id=draw(words))


# a tab, a space, line breaks and characters that str.split or
# str.splitlines break at (\x85, \x1f, U+2028); odd words include the empty
# token
ODD = "\t \n\r\x85\x1f\u2028"
odd_words = st.one_of(words, st.text(alphabet="ab" + ODD, max_size=3))
odd_labels = st.text(alphabet="xy" + ODD, min_size=1, max_size=4)


@given(s=st.one_of(marked_sentences(words=odd_words),
                   marked_sentences(labels=odd_labels),
                   marked_sentences(words=odd_words, labels=odd_labels)))
def test_serialize_roundtrip(s, tmp_path_factory):
    """A sentence is either refused by ``save_corpus_file`` or reloaded by
    ``load_corpus_file`` equal to itself, as the first record of its file;
    it is refused just when its record, written as it is, would not
    reload as itself."""
    path = tmp_path_factory.getbasetemp() / "roundtrip.tsv"
    want = [replace(s, id="0")]
    path.write_bytes((serialize_sentence(s) + "\n").encode("utf-8"))
    try:
        reloads = load_corpus_file(path) == want
    except CorpusError:
        reloads = False
    path.unlink()
    try:
        save_corpus_file([s], path)
    except CorpusError:
        assert not reloads
        assert not path.exists()
    else:
        assert reloads
        assert load_corpus_file(path) == want
        assert parse_marked_sentence(serialize_sentence(s), sid=s.id) == s


@pytest.mark.parametrize("label, tokens, named", [
    ("x\ty", (), "label 'x\\ty'"),
    ("x\ny", (), "label 'x\\ny'"),
    ("x\ry", (), "label 'x\\ry'"),
    ("x", ("p q",), "token 'p q'"),
    ("x", ("u\x85v",), "token 'u\\x85v'"),
    ("x", ("",), "token ''"),
], ids=["label-tab", "label-newline", "label-cr", "token-space", "token-nel",
        "token-empty"])
def test_save_corpus_file_refuses_what_would_reload_differently(
        tmp_path, label, tokens, named):
    """A label holding a tab or a line break, and a token that is empty or
    holds whitespace, would reload as another sentence or make the file
    unreadable: ``save_corpus_file`` names the sentence and the item, and
    writes no file."""
    good = LabeledSentence(("<e1>", "a", "</e1>", "<e2>", "b", "</e2>"), "y")
    bad = LabeledSentence(good.tokens + tokens, label, id="s7")
    path = tmp_path / "c.tsv"
    with pytest.raises(CorpusError) as exc:
        save_corpus_file([good, bad], path)
    assert str(exc.value).startswith(f"sentence s7: {named} ")
    assert not path.exists()


def reference_validate_markers(tokens):
    """The marker check as it was: one scan of the tokens per marker."""
    positions = {}
    for m in corpus.MARKERS:
        hits = [i for i, t in enumerate(tokens) if t == m]
        if not hits:
            raise MissingMarker(f"marker {m} missing")
        if len(hits) > 1:
            raise DuplicateMarker(f"marker {m} occurs {len(hits)} times")
        positions[m] = hits[0]
    order = [positions[m] for m in corpus.MARKERS]
    if order != sorted(order):
        raise MarkerOrder(f"markers out of order: {order}")
    if positions["</e1>"] - positions["<e1>"] < 2:
        raise MarkerOrder("no token between <e1> and </e1>")
    if positions["</e2>"] - positions["<e2>"] < 2:
        raise MarkerOrder("no token between <e2> and </e2>")


@st.composite
def marker_layouts(draw):
    """The four markers around words, each kept, dropped or doubled, pairs
    possibly adjacent, then with tokens moved."""
    tokens = []
    for m in corpus.MARKERS:
        tokens += draw(word_lists) + [m] * draw(st.sampled_from([1, 1, 0, 2]))
    tokens += draw(word_lists)
    for _ in range(draw(st.integers(0, 2))):
        if tokens:
            token = tokens.pop(draw(st.integers(0, len(tokens) - 1)))
            tokens.insert(draw(st.integers(0, len(tokens))), token)
    return tokens


def _outcome(check, tokens):
    try:
        check(tokens)
    except corpus.CorpusError as exc:
        return type(exc), str(exc)
    return None


@given(marker_layouts())
@example(["<e1>", "</e1>", "a", "<e2>", "b", "</e2>"])
@example(["a", "</e1>", "<e1>", "b", "<e2>", "c", "</e2>"])
@example(["<e1>", "a", "<e2>", "b", "</e1>", "c", "</e2>"])
@example(["<e1>", "a", "</e1>", "b", "<e2>", "</e2>"])
@example(["<e1>", "a", "</e1>", "<e1>", "b", "</e2>"])
@example(["<e1>", "a", "<e2>", "b", "<e2>", "</e2>"])
def test_validate_markers_matches_per_marker_scan(tokens):
    """The same exception, message and precedence as one scan per marker,
    for lists and tuples."""
    want = _outcome(reference_validate_markers, tokens)
    assert _outcome(corpus.validate_markers, tokens) == want
    assert _outcome(corpus.validate_markers, tuple(tokens)) == want


SEMEVAL_RAW = '''1\t"The <e1>demolition</e1> was the cause of <e2>terror</e2>."
Cause-Effect(e1,e2)
Comment: example

2\t"A <e1>marble</e1> was dropped into the <e2>bowl</e2>"
Entity-Destination(e1,e2)
'''


def test_import_semeval():
    sentences = import_semeval(SEMEVAL_RAW)
    assert len(sentences) == 2
    s = sentences[0]
    assert s.label == "Cause-Effect(e1,e2)"
    assert s.id == "1"
    # lowercased, punctuation split off, markers spaced out
    assert s.tokens == (
        "the", "<e1>", "demolition", "</e1>", "was", "the", "cause", "of",
        "<e2>", "terror", "</e2>", ".",
    )
    assert sentences[1].label == "Entity-Destination(e1,e2)"


def test_import_semeval_splits_at_line_ends_only():
    """A ``\\x85`` inside a sentence line, at which ``str.splitlines`` also
    breaks, separates two words; ``\\n``, ``\\r\\n`` and ``\\r`` end lines."""
    want = import_semeval(SEMEVAL_RAW)
    raw = SEMEVAL_RAW.replace("was the", "was\x85the")
    for end in ("\n", "\r\n", "\r"):
        assert import_semeval(raw.replace("\n", end)) == want


@pytest.fixture(scope="module")
def text_file(tmp_path_factory):
    return tmp_path_factory.mktemp("read_text") / "text.txt"


@given(st.text(alphabet=["a", " ", "\t", "\r", "\n", "\x85", "\f", "\u2028"]))
@example("a\r\n\r\rb\n\r")
@example("a\x85 b\u2028\f\n")
def test_read_text_reads_line_ends_as_newlines(text_file, text):
    """``\\r\\n`` and ``\\r`` read as ``\\n``, and nothing else changes,
    whether the file holds a ``\\r`` or not."""
    text_file.write_bytes(text.encode("utf-8"))
    assert read_text(text_file) == text.replace("\r\n", "\n").replace("\r", "\n")


def test_import_semeval_empty():
    assert import_semeval("") == []


def test_import_semeval_missing_relation_line():
    with pytest.raises(MalformedRecord) as exc:
        import_semeval('1\t"a <e1>b</e1> c <e2>d</e2>"\n')
    assert exc.value.index == 1
    assert str(exc.value) == "record 1 (1): expected sentence and relation lines"


@pytest.mark.parametrize("raw, message", [
    ('8001\t"a <e1>b</e1> c <e2>d</e2>"\nRel\n\n8002\t"a <e1>b c <e2>d</e2>"\n'
     'Rel\n', "record 2 (8002): marker </e1> missing"),
    ("Comment: only\n", "record 1: expected sentence and relation lines"),
], ids=["numbered", "no-sentence-line"])
def test_import_semeval_names_the_number_of_a_record(raw, message):
    """Records count from 1; the number before a sentence line's tab, where
    the record has one, follows."""
    with pytest.raises(CorpusError) as exc:
        import_semeval(raw)
    assert str(exc.value) == message


def test_import_semeval_splits_leading_and_trailing_punctuation():
    """Each punctuation character at either end of a word is a token of its
    own, in the order it stood; punctuation inside a word stays."""
    (s,) = import_semeval('7\t"(A) <e1>U.S.</e1> ship, \'sank\'... in '
                          '<e2>Bay);</e2>!"\nRel\n')
    assert s.tokens == (
        "(", "a", ")", "<e1>", "u.s", ".", "</e1>", "ship", ",", "'", "sank",
        "'", ".", ".", ".", "in", "<e2>", "bay", ")", ";", "</e2>", "!",
    )
    assert s.id == "7"


def test_import_semeval_last_record_needs_no_blank_line():
    want = import_semeval(SEMEVAL_RAW)
    assert import_semeval(SEMEVAL_RAW.rstrip("\n")) == want
    assert len(want) == 2


def test_import_semeval_sentence_line_without_a_tab():
    with pytest.raises(MalformedRecord) as exc:
        import_semeval(SEMEVAL_RAW + '\n3 "a <e1>b</e1> c <e2>d</e2>"\nRel\n')
    assert str(exc.value) == "record 3: sentence line lacks a tab"


@pytest.mark.parametrize("sentence, error, message", [
    ('"a <e1>b c <e2>d</e2>"', MissingMarker, "record 2 (2): marker </e1> missing"),
    ('""', EmptyTokens, "record 2 (2): sentence has no tokens"),
], ids=["missing-marker", "no-tokens"])
def test_import_semeval_names_the_record_of_a_bad_sentence(sentence, error,
                                                           message):
    raw = SEMEVAL_RAW.replace('"A <e1>marble</e1> was dropped into the '
                              '<e2>bowl</e2>"', sentence)
    assert raw != SEMEVAL_RAW
    with pytest.raises(error) as exc:
        import_semeval(raw)
    assert str(exc.value) == message


def test_vocabulary_specials_fixed():
    s = parse_marked_sentence("X\t<e1> a </e1> <e2> b </e2>")
    v = build_vocabulary([s])
    assert v.encode([corpus.PAD_TOKEN, corpus.UNK_TOKEN]) == [0, 1]
    for m in corpus.MARKERS:
        assert m in v.token_to_id
    assert v.id_to_token[v.encode(["a"])[0]] == "a"


def test_vocabulary_min_count():
    s1 = parse_marked_sentence("X\t<e1> a </e1> cause <e2> b </e2>")
    s2 = parse_marked_sentence("X\t<e1> c </e1> cause <e2> d </e2>")
    v = build_vocabulary([s1, s2], min_count=2)
    assert "cause" in v.token_to_id
    assert "a" not in v.token_to_id
    assert v.encode(s1.tokens)[1] == corpus.UNK_ID


def test_vocabulary_inverse_maps():
    split = generate_synthetic(SyntheticConfig(3, 20, seed=1))
    v = build_vocabulary(split.train)
    for tok, idx in v.token_to_id.items():
        assert v.id_to_token[idx] == tok
    assert sorted(v.token_to_id.values()) == list(range(v.size))


def reference_vocabulary(sentences, min_count):
    """The two-pass build: count every token, then walk the tokens again
    in order and keep each new one that is frequent enough."""
    counts = {}
    for s in sentences:
        for tok in s.tokens:
            counts[tok] = counts.get(tok, 0) + 1
    id_to_token = [corpus.PAD_TOKEN, corpus.UNK_TOKEN, *corpus.MARKERS]
    for s in sentences:
        for tok in s.tokens:
            if tok not in id_to_token and counts[tok] >= min_count:
                id_to_token.append(tok)
    return id_to_token


@pytest.mark.parametrize("min_count", [1, 2])
def test_vocabulary_order_matches_the_two_pass_build(min_count):
    """Also for sentences that hold the literal padding and unknown tokens,
    which keep their fixed ids."""
    specials = [parse_marked_sentence(line) for line in (
        f"X\t{corpus.UNK_TOKEN} <e1> a </e1> b <e2> {corpus.PAD_TOKEN} </e2>",
        f"Y\t<e1> b </e1> {corpus.PAD_TOKEN} c <e2> a </e2> {corpus.UNK_TOKEN} c",
        "X\t<e1> d </e1> <e2> c </e2> e d",
    )]
    for sentences in (generate_synthetic(SyntheticConfig(4, 50, 7)).train,
                      specials):
        got = build_vocabulary(sentences, min_count=min_count).id_to_token
        assert list(got) == reference_vocabulary(sentences, min_count)


def test_vocabulary_empty_corpus():
    with pytest.raises(EmptyCorpus):
        build_vocabulary([])


def test_encode_known_and_unknown():
    s = parse_marked_sentence("X\t<e1> a </e1> <e2> b </e2>")
    v = build_vocabulary([s])
    t = parse_marked_sentence("X\t<e1> a </e1> zzz <e2> b </e2>")
    ids = v.encode(t.tokens)
    assert ids[3] == corpus.UNK_ID
    assert all(i < v.size for i in ids)
    decoded = [v.id_to_token[i] for i in v.encode(s.tokens)]
    assert decoded == list(s.tokens)


def test_synthetic_counts_and_triggers():
    split = generate_synthetic(SyntheticConfig(4, 50, seed=7))
    assert len(split.train) == 140
    assert len(split.dev) == 20
    assert len(split.test) == 40
    assert len(split.label_set) == 4
    triggers = set(split.trigger_phrases.values())
    assert len(triggers) == 4
    for trig in triggers:
        assert len(trig) in (2, 3)
    # trigger sits between </e1> and <e2>
    for s in split.train:
        trig = split.trigger_phrases[s.label]
        i = s.tokens.index("</e1>")
        assert s.tokens[i + 1:i + 1 + len(trig)] == trig


def test_synthetic_deterministic():
    a = generate_synthetic(SyntheticConfig(4, 50, seed=7))
    b = generate_synthetic(SyntheticConfig(4, 50, seed=7))
    assert [serialize_sentence(s) for s in a.train + a.dev + a.test] == \
        [serialize_sentence(s) for s in b.train + b.dev + b.test]


def test_synthetic_disjoint_ids():
    split = generate_synthetic(SyntheticConfig(3, 30, seed=2))
    ids = [s.id for part in (split.train, split.dev, split.test) for s in part]
    assert len(ids) == len(set(ids))


def test_synthetic_sentences_are_distinct():
    """No token sequence is drawn twice, so none is in two splits: with
    replacement, this config drew 53 repeats and put 11 test sentences in
    train."""
    split = generate_synthetic(SyntheticConfig(19, 200, seed=1))
    tokens = [s.tokens for part in (split.train, split.dev, split.test) for s in part]
    assert len(tokens) == 19 * 200
    assert len(set(tokens)) == len(tokens)


def test_synthetic_invalid_config():
    with pytest.raises(ConfigInvalid):
        generate_synthetic(SyntheticConfig(1, 50, seed=0))
    with pytest.raises(ConfigInvalid):
        generate_synthetic(SyntheticConfig(4, 5, seed=0))


def test_load_corpus_file_names_path_and_line(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text(S1_LINE + "\n\nrel\t<e1> a </e1> b </e2> c <e2>\n")
    with pytest.raises(MarkerOrder, match=f"^{re.escape(str(path))}:3: markers"):
        load_corpus_file(path)
