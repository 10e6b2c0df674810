import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eventlink.extraction import EventQuery, Span
from eventlink.kb import tokenize
from eventlink.retrieval import BM25_B, BM25_K1, bm25_build, bm25_query_terms, bm25_retrieve
from eventlink.toy import build_toy_data

from conftest import kb_of

DATA = Path(__file__).parent / "data"

# Hand-computed Okapi scores (k1=1.2, b=0.75) for the five-document
# fixture below; documents include the title separator token.
FIVE_DOC_EXPECTED = {
    ("beta", "gamma"): {
        "F0": 1.1387566988339866,
        "F1": 0.7693433832743011,
        "F2": 0.5693783494169933,
        "F3": 0.8883785972988264,
        "F4": 0.0,
    },
    ("beta",): {
        "F0": 0.5693783494169933,
        "F1": 0.7693433832743011,
        "F2": 0.0,
        "F3": 0.4441892986494132,
        "F4": 0.0,
    },
    ("beta", "beta"): {
        "F0": 1.1387566988339866,
        "F1": 1.5386867665486021,
        "F2": 0.0,
        "F3": 0.8883785972988264,
        "F4": 0.0,
    },
    ("epsilon", "zeta"): {
        "F0": 0.0,
        "F1": 0.0,
        "F2": 0.9248166620064163,
        "F3": 1.8639285469507132,
        "F4": 0.0,
    },
}


@pytest.fixture
def five_doc_kb():
    return kb_of(
        [
            ("F0", "alpha", "beta gamma"),
            ("F1", "beta", "beta delta"),
            ("F2", "gamma delta", "epsilon"),
            ("F3", "zeta", "alpha beta gamma delta epsilon"),
            ("F4", "eta", "theta iota"),
        ]
    )


@pytest.fixture
def two_doc_kb():
    return kb_of(
        [
            ("D1", "a", "b"),
            ("D2", "b", "c"),
        ]
    )


def _oracle_scores(kb, terms, k1=1.2, b=0.75):
    # independent Okapi implementation: plain loops over the formula
    docs = [title.split() + ["[TITLE_SEP]"] + description.split()
            for title, description in zip(kb.titles, kb.descriptions)]
    n = len(docs)
    avgdl = sum(len(d) for d in docs) / n
    df = Counter()
    for doc in docs:
        for term in set(doc):
            df[term] += 1
    out = []
    for doc in docs:
        tf = Counter(doc)
        score = 0.0
        for term in terms:
            if df[term] == 0:
                continue
            idf = math.log(1.0 + (n - df[term] + 0.5) / (df[term] + 0.5))
            f = tf.get(term, 0)
            score += idf * f * (k1 + 1) / (f + k1 * (1 - b + b * len(doc) / avgdl))
        out.append(score)
    return out


def test_five_doc_fixture_matches_frozen_values(five_doc_kb):
    index = bm25_build(five_doc_kb)
    for terms, expected in FIVE_DOC_EXPECTED.items():
        scores = index.scores(list(terms))
        for position, entry_id in enumerate(index.ids):
            assert scores[position] == pytest.approx(expected[entry_id], abs=1e-9), (
                terms, entry_id,
            )


def test_five_doc_fixture_matches_independent_oracle(five_doc_kb):
    index = bm25_build(five_doc_kb)
    for terms in (["beta", "gamma"], ["beta"], ["delta", "delta", "alpha"], ["iota"]):
        np.testing.assert_allclose(
            index.scores(terms), _oracle_scores(five_doc_kb, terms), atol=1e-9
        )


def test_two_doc_equal_scores_tie_to_first(two_doc_kb):
    index = bm25_build(two_doc_kb)
    scores = index.scores(["b"])
    assert scores[0] == pytest.approx(math.log(1.2), abs=1e-9)
    assert scores[1] == pytest.approx(math.log(1.2), abs=1e-9)
    query = EventQuery("q", ("b",), Span(0, 0))
    result = bm25_retrieve(index, query, 1)
    assert result.ids == ("D1",)


def test_duplicate_query_term_doubles_contribution(two_doc_kb):
    index = bm25_build(two_doc_kb)
    single = index.scores(["b"])
    double = index.scores(["b", "b"])
    np.testing.assert_allclose(double, 2 * single, atol=1e-12)


def test_zero_overlap_scores_exactly_zero(five_doc_kb):
    index = bm25_build(five_doc_kb)
    query = EventQuery("q", ("missing", "words"), Span(0, 0))
    result = bm25_retrieve(index, query, 5)
    assert all(s == 0.0 for s in result.scores)
    assert result.ids == ("F0", "F1", "F2", "F3", "F4")


def test_scores_nonnegative_and_zero_iff_no_overlap(five_doc_kb):
    index = bm25_build(five_doc_kb)
    kb = five_doc_kb
    texts = {entry_id: set(title.split() + description.split())
             for entry_id, title, description in zip(kb.ids, kb.titles, kb.descriptions)}
    for terms in (["alpha"], ["beta", "eta"], ["theta", "zeta", "zeta"]):
        scores = index.scores(terms)
        for position, entry_id in enumerate(index.ids):
            assert scores[position] >= 0.0
            overlap = bool(set(terms) & texts[entry_id])
            assert (scores[position] > 0.0) == overlap


def test_query_window_is_mention_centered():
    tokens = tuple(f"t{i}" for i in range(40))
    query = EventQuery("q", tokens, Span(20, 20))
    window = bm25_query_terms(query)
    assert len(window) == 16
    assert "t20" in window
    # left-heavy split around the mention
    assert window[0] == "t12" and window[-1] == "t27"


def test_k_bounds(five_doc_kb):
    index = bm25_build(five_doc_kb)
    query = EventQuery("q", ("beta",), Span(0, 0))
    with pytest.raises(ValueError):
        bm25_retrieve(index, query, 6)


def test_wide_mention_retrieves_k_candidates(five_doc_kb):
    tokens = tuple("alpha beta gamma delta epsilon zeta eta theta iota".split()) * 2
    index = bm25_build(five_doc_kb)
    result = bm25_retrieve(index, EventQuery("q", tokens, Span(0, len(tokens) - 1)), 3)
    terms = list(tokens[1:17])
    assert len(result) == 3
    assert result.scores == tuple(sorted(index.scores(terms), reverse=True)[:3])


# --- bit-exact reference ---------------------------------------------------

def _reference_scores(kb, terms):
    # the per-posting loop BM25 scores are pinned to, bit for bit: postings
    # in KB order, idf by math.log, each weight added in query-term order
    k1, b = BM25_K1, BM25_B
    doc_lens = []
    postings = {}
    for position, (title, description) in enumerate(zip(kb.titles, kb.descriptions)):
        tokens = title.split() + ["[TITLE_SEP]"] + description.split()
        doc_lens.append(len(tokens))
        for term, tf in Counter(tokens).items():
            postings.setdefault(term, []).append((position, tf))
    n = len(doc_lens)
    avgdl = sum(doc_lens) / len(doc_lens)
    out = np.zeros(n)
    for term in terms:
        rows = postings.get(term, [])
        if not rows:
            continue
        idf = math.log(1.0 + (n - len(rows) + 0.5) / (len(rows) + 0.5))
        for doc, tf in rows:
            norm = tf + k1 * (1.0 - b + b * doc_lens[doc] / avgdl)
            out[doc] += idf * tf * (k1 + 1.0) / norm
    return out


VOCAB = ["war", "siege", "port", "city", "raid", "north", "1453", "."]
ABSENT = ["absent", "missing", "[TITLE_SEP]x"]
words = st.lists(st.sampled_from(VOCAB), max_size=12)


@st.composite
def bm25_cases(draw):
    n = draw(st.integers(1, 60))
    kb = kb_of([
        (f"E{i}", " ".join(draw(words.filter(bool))), " ".join(draw(words)))
        for i in range(n)
    ])
    pool = draw(st.sampled_from([VOCAB, ABSENT, VOCAB + ABSENT]))
    queries = draw(st.lists(st.lists(st.sampled_from(pool), min_size=1, max_size=16),
                            min_size=1, max_size=4))
    return kb, queries


@settings(max_examples=80, deadline=None)
@given(bm25_cases())
def test_scores_and_top_k_bit_identical_to_reference_loop(case):
    kb, queries = case
    index = bm25_build(kb)
    for tokens in queries:
        query = EventQuery("q", tuple(tokens), Span(0, 0))
        terms = bm25_query_terms(query)
        assert terms == tokens
        expected = _reference_scores(kb, terms)
        assert index.scores(terms).tobytes() == expected.tobytes()
        order = np.argsort(-expected, kind="stable")
        for k in range(1, kb.n + 1):
            got = bm25_retrieve(index, query, k)
            assert got.ids == tuple(kb.ids[i] for i in order[:k])
            assert np.array(got.scores).tobytes() == expected[order[:k]].tobytes()


def _golden_queries():
    data = build_toy_data(n_entries=20, n_train=20, n_test=20, seed=11)
    queries = [q.base for q in data.train + data.test]
    for entry_id, description in zip(data.kb.ids, data.kb.descriptions):
        tokens = tuple(tokenize(description))
        middle = Span(len(tokens) // 2, len(tokens) // 2)
        queries.append(EventQuery(f"desc-{entry_id}", tokens, middle))
    return data.kb, queries


def test_candidates_match_golden_file_byte_for_byte():
    # written by the per-posting implementation that preceded the posting arrays
    kb, queries = _golden_queries()
    index = bm25_build(kb)
    lines = [json.dumps(bm25_retrieve(index, q, index.n).to_record(), sort_keys=True)
             for q in queries]
    golden = (DATA / "bm25_golden.jsonl").read_bytes()
    assert ("\n".join(lines) + "\n").encode("utf-8") == golden
