import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cbrnn import corpus
from cbrnn.corpus import (
    ConfigInvalid,
    DuplicateMarker,
    EmptyCorpus,
    LabeledSentence,
    MalformedRecord,
    MarkerOrder,
    MissingMarker,
    SyntheticConfig,
    build_vocabulary,
    encode_sentence,
    generate_synthetic,
    import_semeval,
    load_corpus_file,
    parse_marked_sentence,
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


def test_empty_pair_rejected():
    with pytest.raises(MarkerOrder):
        parse_marked_sentence("X\t<e1> </e1> a <e2> b </e2>")


words = st.text(alphabet="abcdef", min_size=1, max_size=5)
word_lists = st.lists(words, max_size=3)
nonempty_word_lists = st.lists(words, min_size=1, max_size=3)


@st.composite
def marked_sentences(draw):
    tokens = (
        tuple(draw(word_lists))
        + ("<e1>",) + tuple(draw(nonempty_word_lists)) + ("</e1>",)
        + tuple(draw(word_lists))
        + ("<e2>",) + tuple(draw(nonempty_word_lists)) + ("</e2>",)
        + tuple(draw(word_lists))
    )
    label = draw(st.text(alphabet="xyz-", min_size=1, max_size=8))
    return LabeledSentence(tokens=tokens, label=label, id=draw(words))


@given(marked_sentences())
def test_serialize_roundtrip(s):
    assert parse_marked_sentence(serialize_sentence(s), sid=s.id) == s


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


def test_import_semeval_empty():
    assert import_semeval("") == []


def test_import_semeval_missing_relation_line():
    with pytest.raises(MalformedRecord) as exc:
        import_semeval('1\t"a <e1>b</e1> c <e2>d</e2>"\n')
    assert exc.value.index == 0


def test_vocabulary_specials_fixed():
    s = parse_marked_sentence("X\t<e1> a </e1> <e2> b </e2>")
    v = build_vocabulary([s])
    assert v.id_of(corpus.PAD_TOKEN) == 0
    assert v.id_of(corpus.UNK_TOKEN) == 1
    for m in corpus.MARKERS:
        assert m in v.token_to_id
    assert v.id_to_token[v.id_of("a")] == "a"


def test_vocabulary_min_count():
    s1 = parse_marked_sentence("X\t<e1> a </e1> cause <e2> b </e2>")
    s2 = parse_marked_sentence("X\t<e1> c </e1> cause <e2> d </e2>")
    v = build_vocabulary([s1, s2], min_count=2)
    assert "cause" in v.token_to_id
    assert "a" not in v.token_to_id
    assert encode_sentence(s1, v)[1] == corpus.UNK_ID


def test_vocabulary_inverse_maps():
    split = generate_synthetic(SyntheticConfig(3, 20, seed=1))
    v = build_vocabulary(split.train)
    for tok, idx in v.token_to_id.items():
        assert v.id_to_token[idx] == tok
    assert sorted(v.token_to_id.values()) == list(range(v.size))


def test_vocabulary_empty_corpus():
    with pytest.raises(EmptyCorpus):
        build_vocabulary([])


def test_encode_known_and_unknown():
    s = parse_marked_sentence("X\t<e1> a </e1> <e2> b </e2>")
    v = build_vocabulary([s])
    t = parse_marked_sentence("X\t<e1> a </e1> zzz <e2> b </e2>")
    ids = encode_sentence(t, v)
    assert ids[3] == corpus.UNK_ID
    assert all(i < v.size for i in ids)
    decoded = [v.token_of(i) for i in encode_sentence(s, v)]
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
