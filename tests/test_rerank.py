import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eventlink import retrieval
from eventlink.encoders import DegenerateNormError, TinyEncoder, load_checkpoint, save_checkpoint
from eventlink.kb import NIL, SCORER_MAX_LEN, TITLE_SEP, KBEntry, KBError, KnowledgeBase
from eventlink.llm import ClientExhausted, LLMTransportError, ScriptedClient
from eventlink.rerank import (
    RULE_LEARNED,
    RULE_LLM,
    RULE_THRESHOLD,
    TinyCrossScorer,
    llm_rerank,
    score_pairs,
    select_learned_nil,
    select_threshold,
    softmax,
)
from eventlink.retrieval import CandidateSet
from eventlink.training import CrossExample, TrainConfig, train_crossencoder

VOCAB = ["city", "war", "north", "siege", "harbor", "[SEP]", "[M_s]", "[M_e]"]


def _cands(ids, query_id="q"):
    scores = tuple(float(len(ids) - i) for i in range(len(ids)))
    return CandidateSet(query_id=query_id, ids=tuple(ids), scores=scores)


@pytest.fixture
def kb10():
    return KnowledgeBase(
        [KBEntry(f"E{i}", f"Entry {i}", f"description number {i} war city") for i in range(10)]
    )


def test_score_pairs_shape(kb10):
    scorer = TinyCrossScorer(VOCAB, 16, seed=0)
    scores = score_pairs(scorer, [["war", "city"], ["war"]],
                         [_cands(["E0", "E1", "E2"]), _cands(["E3"])], kb10)
    assert [s.shape for s in scores] == [(4,), (2,)]
    assert score_pairs(scorer, [], [], kb10) == []


def test_score_pairs_permutation_moves_scores_and_keeps_nil(kb10):
    scorer = TinyCrossScorer(VOCAB, 16, seed=0)
    forward, reverse = score_pairs(scorer, [["war"], ["war"]],
                                   [_cands(["E0", "E1", "E2"]), _cands(["E2", "E1", "E0"])], kb10)
    assert forward[0] == reverse[0]
    np.testing.assert_allclose(forward[1:], reverse[1:][::-1], atol=0)


def test_score_pairs_deterministic(kb10):
    scorer = TinyCrossScorer(VOCAB, 16, seed=0)
    a = score_pairs(scorer, [["war"]], [_cands(["E0", "E1"])], kb10)
    b = score_pairs(scorer, [["war"]], [_cands(["E0", "E1"])], kb10)
    np.testing.assert_array_equal(a, b)


def test_score_pairs_unresolvable_id(kb10):
    scorer = TinyCrossScorer(VOCAB, 16, seed=0)
    with pytest.raises(KBError, match="E99"):
        score_pairs(scorer, [["war"], ["war"]], [_cands(["E0"]), _cands(["E0", "E99"])], kb10)


def test_nil_score_independent_of_candidates(kb10):
    scorer = TinyCrossScorer(VOCAB, 16, seed=1)
    a, b = score_pairs(scorer, [["war", "city"]] * 2,
                       [_cands(["E0", "E1"]), _cands(["E5", "E6", "E7"])], kb10)
    [alone] = score_pairs(scorer, [["war", "city"]], [_cands(["E9"])], kb10)
    assert a[0] == b[0] == alone[0]


def test_nil_score_zero_nil_embedding_raises_named_error():
    scorer = TinyCrossScorer(VOCAB, 16, seed=0)
    scorer.nil_embedding[:] = 0.0
    with pytest.raises(DegenerateNormError):
        scorer.score_candidates([["war"]], [], [[]])


def _reference_scores(scorer, query_tokens, candidate_rows):
    """Per-pair scoring: encode the query and each candidate afresh, one ``np.dot`` per option."""
    nil_unit = scorer.nil_embedding / np.linalg.norm(scorer.nil_embedding)
    scores = [float(scorer.scale[0] * np.dot(scorer.encoder.forward(query_tokens), nil_unit))]
    for tokens in candidate_rows:
        q = scorer.encoder.forward(query_tokens)
        c = scorer.encoder.forward(tokens)
        scores.append(float(scorer.scale[0] * np.dot(q, c)))
    return np.array(scores)


def _spelled(title, description):
    """A candidate's tokens, spelled out: title tokens, the separator, description tokens."""
    return [*title.split(), TITLE_SEP, *description.split()]


def _kb10_text(entry_id):
    i = entry_id[1:]
    return _spelled(f"Entry {i}", f"description number {i} war city")


_WORDS = st.sampled_from(VOCAB + ["unseen", "harbor"])
_CANDIDATES = [
    _spelled(f"Entry {i}", " ".join(VOCAB[(i + j) % 5] for j in range(3 + 2 * i)))
    for i in range(6)
]


@given(
    batches=st.lists(
        st.lists(
            st.tuples(
                st.lists(_WORDS, min_size=1, max_size=8),
                st.lists(st.integers(0, len(_CANDIDATES) - 1), max_size=12),
            ),
            max_size=6,
        ),
        min_size=1,
        max_size=4,
    ),
    seed=st.integers(0, 3),
    dim=st.integers(2, 130),
    pairs_per_gather=st.sampled_from([1, 5, None]),
)
@example(batches=[[(["war"], [0, 1]), (["city"], [1, 0, 1]), (["north"], []), (["war"], [1])],
                  []], seed=0, dim=130, pairs_per_gather=1)
@settings(max_examples=60, deadline=None)
def test_score_candidates_matches_per_pair_reference(batches, seed, dim, pairs_per_gather):
    # one call per batch: candidates repeat across a batch's queries and
    # within one, a batch may hold no query, a query no candidate, and a
    # candidate row no query, one scorer sees the same rows again in later
    # batches, and a patched-down constant splits the scoring's row gathers
    scorer = TinyCrossScorer(VOCAB, dim, seed=seed)
    with pytest.MonkeyPatch.context() as patch:
        if pairs_per_gather is not None:
            patch.setattr(retrieval, "_GATHER_ELEMENTS", pairs_per_gather * dim)
        for queries in [*batches, *batches]:
            rows = [query for query, _ in queries]
            partner_lists = [picks for _, picks in queries]
            got = scorer.score_candidates(rows, _CANDIDATES, partner_lists)
            assert isinstance(got, list) and len(got) == len(queries)
            for query, picks, scores in zip(rows, partner_lists, got):
                expected = _reference_scores(scorer, query, [_CANDIDATES[i] for i in picks])
                assert scores.tobytes() == expected.tobytes()


def test_score_pairs_cuts_a_long_entry_at_the_scorer_budget():
    # 300 description tokens: those past SCORER_MAX_LEN are all "harbor"
    description = " ".join(["war"] * 250 + ["harbor"] * 50)
    kb = KnowledgeBase([KBEntry("E5", "Entry 5", "war city"),
                        KBEntry("L", "Long siege", description)])
    tokens = _spelled("Long siege", description)
    assert len(tokens) > SCORER_MAX_LEN
    scorer = TinyCrossScorer(VOCAB, 16, seed=0)
    [got] = score_pairs(scorer, [["war"]], [_cands(["E5", "L"])], kb)
    expected = _reference_scores(scorer, ["war"], [_spelled("Entry 5", "war city"),
                                                   tokens[:SCORER_MAX_LEN]])
    np.testing.assert_array_equal(got, expected)
    q, whole = scorer.encoder.forward(["war"]), scorer.encoder.forward(tokens)
    assert got[2] != scorer.scale[0] * np.dot(q, whole)


def test_score_pairs_encodes_each_query_once_and_each_candidate_once(kb10, monkeypatch):
    encoded = []
    original = TinyEncoder.encode_many

    def counting(self, rows):
        encoded.append([tuple(row) for row in rows])
        return original(self, rows)

    def refuse(self, tokens):
        raise AssertionError("score_pairs encodes through encode_many only")

    monkeypatch.setattr(TinyEncoder, "encode_many", counting)
    monkeypatch.setattr(TinyEncoder, "forward", refuse)
    scorer = TinyCrossScorer(VOCAB, 16, seed=0)
    queries = [["war"], ["city", "war"], ["north"], ["war"]]
    pools = [["E0", "E1", "E2"], ["E2", "E3", "E0"], ["E3", "E5", "E1"], ["E0", "E1", "E2"]]
    score_pairs(scorer, queries, [_cands(ids) for ids in pools], kb10)
    distinct = dict.fromkeys(cid for ids in pools for cid in ids)
    assert encoded == [
        [tuple(query) for query in queries],
        [tuple(_kb10_text(cid)) for cid in distinct],
    ]


def test_score_pairs_matches_per_pair_reference(kb10):
    # ids repeat across queries, in different orders
    scorer = TinyCrossScorer(VOCAB, 16, seed=2)
    queries = [["war"], ["city", "war"], ["north"], ["harbor"]]
    pools = [["E4", "E1"], ["E1", "E7", "E4"], ["E9"], ["E7", "E9", "E4"]]
    got = score_pairs(scorer, queries, [_cands(ids) for ids in pools], kb10)
    for query, ids, scores in zip(queries, pools, got, strict=True):
        expected = _reference_scores(scorer, query, [_kb10_text(cid) for cid in ids])
        assert scores.tobytes() == expected.tobytes()


def test_scores_after_training_match_a_fresh_scorer(kb10):
    scorer = TinyCrossScorer(VOCAB, 16, seed=0)
    cands = _cands(["E0", "E1", "E2"])
    [before] = score_pairs(scorer, [["war", "city"]], [cands], kb10)
    rows = [
        CrossExample("a", ("war", "city"), cands.ids, 1),
        CrossExample("b", ("north",), cands.ids, 0),
    ]
    cfg = TrainConfig(learning_rate=0.5, batch_size=2, epochs=1)
    train_crossencoder(rows, [], scorer, cfg, kb10)
    [after] = score_pairs(scorer, [["war", "city"]], [cands], kb10)
    fresh = TinyCrossScorer.from_state_dict(scorer.state_dict())
    np.testing.assert_array_equal([after], score_pairs(fresh, [["war", "city"]], [cands], kb10))
    assert not np.array_equal(after[1:], before[1:])


def test_cross_scorer_keeps_only_its_parameters():
    scorer = TinyCrossScorer(VOCAB, 16, seed=0)
    scorer.score_candidates([["war"]], _CANDIDATES[:3], [[0, 1, 2]])
    loaded = TinyCrossScorer.from_state_dict(scorer.state_dict())
    for obj in (scorer, loaded):
        assert set(vars(obj)) == {"encoder", "nil_embedding", "scale"}


def test_select_learned_nil_argmax():
    assert select_learned_nil(np.array([0.9, 0.2, 0.1, 0.3]), _cands(["a", "b", "c"])).prediction == NIL
    decision = select_learned_nil(np.array([0.1, 0.2, 0.8, 0.3]), _cands(["a", "b", "c"]))
    assert decision.prediction == "b"
    assert decision.rule == RULE_LEARNED
    assert len(decision.scores) == 4


def test_select_learned_nil_tie_to_lower_index():
    assert select_learned_nil(np.array([0.5, 0.5, 0.2, 0.1]), _cands(["a", "b", "c"])).prediction == NIL
    assert select_learned_nil(np.array([0.1, 0.5, 0.5]), _cands(["a", "b"])).prediction == "a"


def test_select_learned_nil_constant_shift_invariance():
    scores = np.array([0.3, 0.7, 0.1])
    cands = _cands(["a", "b"])
    base = select_learned_nil(scores, cands).prediction
    for shift in (-5.0, 3.0, 100.0):
        assert select_learned_nil(scores + shift, cands).prediction == base


@given(st.lists(st.floats(-5, 5), min_size=4, max_size=4).filter(lambda xs: len(set(xs)) == 4))
@settings(max_examples=100)
def test_select_learned_nil_permutation_invariance(raw):
    scores = np.array(raw)
    ids = ["a", "b", "c"]
    base = select_learned_nil(scores, _cands(ids)).prediction
    perm = [2, 0, 1]
    permuted_scores = np.array([scores[0]] + [scores[1 + p] for p in perm])
    permuted_ids = [ids[p] for p in perm]
    assert select_learned_nil(permuted_scores, _cands(permuted_ids)).prediction == base


def test_threshold_boundary_keeps_candidate():
    # equal raw scores normalize to 0.5 each; >= theta keeps the argmax
    decision = select_threshold(np.array([1.0, 1.0]), _cands(["a", "b"]), theta=0.5)
    assert decision.prediction == "a"
    assert decision.rule == RULE_THRESHOLD


def test_threshold_directions_disagree():
    scores = np.array([3.0, 0.0])  # normalized max well above 0.5
    cands = _cands(["a", "b"])
    assert select_threshold(scores, cands, 0.5, "conventional").prediction == "a"
    assert select_threshold(scores, cands, 0.5, "literal").prediction == NIL


def test_threshold_below_theta_is_nil():
    scores = np.array([0.1, 0.0, 0.05, 0.02])  # max prob ~0.27
    assert select_threshold(scores, _cands(list("abcd")), 0.5).prediction == NIL


def test_threshold_theta_zero_never_nil():
    rng = np.random.default_rng(0)
    for _ in range(20):
        scores = rng.normal(size=5)
        decision = select_threshold(scores, _cands(list("abcde")), theta=0.0)
        assert decision.prediction != NIL


def test_threshold_theta_one_always_nil_unless_prob_one():
    scores = np.array([1.0, 0.5, 0.2])
    assert select_threshold(scores, _cands(list("abc")), theta=1.0).prediction == NIL


def test_threshold_score_vector_has_nil_slot():
    decision = select_threshold(np.array([1.0, 0.0]), _cands(["a", "b"]))
    assert len(decision.scores) == 3
    assert decision.scores[0] == 0.0
    np.testing.assert_allclose(sum(decision.scores[1:]), 1.0, atol=1e-12)


def test_threshold_validation():
    with pytest.raises(ValueError):
        select_threshold(np.array([1.0]), _cands(["a"]), theta=1.5)
    with pytest.raises(ValueError):
        select_threshold(np.array([1.0]), _cands(["a"]), direction="sideways")


def test_softmax_stability():
    probs = softmax(np.array([1000.0, 1000.0]))
    np.testing.assert_allclose(probs, [0.5, 0.5], atol=1e-12)


def test_softmax_takes_the_last_axis_row_by_row():
    logits = np.random.default_rng(0).normal(size=(4, 7)) * 30.0
    np.testing.assert_array_equal(softmax(logits), np.stack([softmax(row) for row in logits]))


# --- LLM reranking baseline ---------------------------------------------------

def _reverse_completion(kb, ids):
    rows = kb.rows(reversed(ids))
    lines = [f"Document d{i}: {kb.titles[row]}" for i, row in enumerate(rows, 1)]
    return "\n".join(lines)


def test_llm_rerank_parses_reversed_ranking(kb10):
    ids = [f"E{i}" for i in range(10)]
    client = ScriptedClient([_reverse_completion(kb10, ids)])
    decision = llm_rerank(client, ["war"], _cands(ids), kb10, allow_nil=False)
    assert decision.prediction == "E9"
    assert decision.rule == RULE_LLM
    assert decision.note is None
    assert len(decision.scores) == 11


def test_llm_rerank_nil_sentence(kb10):
    ids = [f"E{i}" for i in range(10)]
    client = ScriptedClient(["The passage should be labeled as NIL."])
    decision = llm_rerank(client, ["war"], _cands(ids), kb10, allow_nil=True)
    assert decision.prediction == NIL
    assert decision.note is None


def test_llm_rerank_unknown_title_falls_back_to_nil(kb10):
    ids = [f"E{i}" for i in range(10)]
    client = ScriptedClient(["Document d1: Not A Real Title"])
    decision = llm_rerank(client, ["war"], _cands(ids), kb10, allow_nil=False)
    assert decision.prediction == NIL
    assert "parse_failure" in decision.note


class _FlakyClient:
    """Fails with a transport error ``failures`` times, then answers."""

    def __init__(self, failures, completion):
        self.failures = failures
        self.completion = completion
        self.calls = 0

    def complete(self, prompt):
        self.calls += 1
        if self.calls <= self.failures:
            raise LLMTransportError("connection reset")
        return self.completion


def test_llm_rerank_retries_a_transport_failure(kb10):
    ids = [f"E{i}" for i in range(10)]
    client = _FlakyClient(1, _reverse_completion(kb10, ids))
    decision = llm_rerank(client, ["war"], _cands(ids), kb10, allow_nil=False)
    assert client.calls == 2
    assert decision.prediction == "E9"
    assert decision.note is None


def test_llm_rerank_keeps_nil_after_every_attempt_fails(kb10):
    ids = [f"E{i}" for i in range(10)]
    client = _FlakyClient(10**9, "unused")
    decision = llm_rerank(client, ["war"], _cands(ids), kb10, allow_nil=False)
    assert client.calls == 2
    assert decision.prediction == NIL
    assert decision.rule == RULE_LLM
    assert decision.note.startswith("transport_failure:")
    assert "connection reset" in decision.note
    assert len(decision.scores) == 11


class _DryClient:
    """Has no completions left, like a scripted client at the end of its script."""

    def __init__(self):
        self.calls = 0

    def complete(self, prompt):
        self.calls += 1
        raise ClientExhausted("scripted client has no completions left")


def test_llm_rerank_does_not_retry_an_exhausted_client(kb10):
    ids = [f"E{i}" for i in range(10)]
    client = _DryClient()
    decision = llm_rerank(client, ["war"], _cands(ids), kb10, allow_nil=False)
    assert client.calls == 1
    assert decision.prediction == NIL
    assert decision.note == "transport_failure: scripted client has no completions left"


def test_llm_rerank_requires_ten_candidates(kb10):
    client = ScriptedClient(["x"])
    with pytest.raises(ValueError, match="10"):
        llm_rerank(client, ["war"], _cands(["E0", "E1"]), kb10, allow_nil=False)


def test_scorer_checkpoint_round_trip(tmp_path, kb10):
    scorer = TinyCrossScorer(VOCAB, 16, seed=3)
    path = tmp_path / "scorer.json"
    save_checkpoint(scorer, path)
    loaded = load_checkpoint(path, TinyCrossScorer)
    a = score_pairs(scorer, [["war"]], [_cands(["E0", "E1"])], kb10)
    b = score_pairs(loaded, [["war"]], [_cands(["E0", "E1"])], kb10)
    np.testing.assert_array_equal(a, b)


def test_score_candidates_rejects_misaligned_queries_and_partner_lists():
    scorer = TinyCrossScorer(VOCAB, 16, seed=0)
    with pytest.raises(ValueError, match="2 query rows for 1 partner lists"):
        scorer.score_candidates([["war"], ["city"]], _CANDIDATES[:2], [[0, 1]])
    with pytest.raises(ValueError, match="0 query rows for 1 partner lists"):
        scorer.score_candidates([], [], [[]])
