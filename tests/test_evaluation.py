import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eventlink.evaluation import CoverageError, EvalReport, compare_report, evaluate, recall_at_k
from eventlink.extraction import EventQuery, Span
from eventlink.kb import NIL
from eventlink.rerank import LinkDecision
from eventlink.retrieval import CandidateSet


def _gold(qid, gold, pos="verb"):
    return EventQuery(qid, ("a", "b"), Span(0, 0), pos=pos, gold=gold)


def _decision(qid, prediction):
    return LinkDecision(qid, prediction, (0.0, 1.0), "learned_nil")


def _cands(qid, ids):
    return CandidateSet(qid, tuple(ids), tuple(float(len(ids) - i) for i in range(len(ids))))


def _accuracy(decisions, golds):
    """Exact-match accuracy overall and per mention POS class, as ``evaluate`` reports it."""
    report = evaluate(decisions, golds)
    return report.accuracy_all, report.accuracy_verb, report.accuracy_noun


def test_perfect_predictions():
    golds = [_gold("a", "E1", "verb"), _gold("b", NIL, "noun")]
    decisions = [_decision("a", "E1"), _decision("b", NIL)]
    assert _accuracy(decisions, golds) == (1.0, 1.0, 1.0)


def test_hand_counted_split_accuracy():
    golds = [_gold("a", "E1", "verb"), _gold("b", NIL, "noun")]
    decisions = [_decision("a", "E1"), _decision("b", "E2")]
    assert _accuracy(decisions, golds) == (0.5, 1.0, 0.0)


def test_empty_split_reports_absent():
    golds = [_gold("a", "E1", "verb")]
    decisions = [_decision("a", "E1")]
    assert _accuracy(decisions, golds) == (1.0, 1.0, None)


def test_unmatched_query_id_is_error():
    golds = [_gold("a", "E1")]
    with pytest.raises(ValueError, match="unknown query"):
        _accuracy([_decision("zzz", "E1")], golds)
    with pytest.raises(ValueError, match="no decision"):
        _accuracy([], golds)


def test_repeated_decision_is_error():
    # a decision listed three times once counted three times: accuracy 0.75 over two golds
    golds = [_gold("a", "E1"), _gold("b", "E2")]
    decisions = [_decision("a", "E1")] * 3 + [_decision("b", NIL)]
    with pytest.raises(CoverageError, match="repeated decision for query 'a'") as caught:
        evaluate(decisions, golds)
    assert caught.value.source == "decisions"


def test_other_pos_counts_only_toward_all():
    golds = [_gold("a", "E1", "other"), _gold("b", "E2", "verb")]
    decisions = [_decision("a", "E1"), _decision("b", "E1")]
    assert _accuracy(decisions, golds) == (0.5, 0.0, None)


def test_recall_hand_counted():
    golds = [_gold("a", "E2"), _gold("b", "E11")]
    sets = [
        _cands("a", [f"E{i}" for i in range(1, 21)]),   # gold at rank 2
        _cands("b", [f"E{i}" for i in range(1, 21)]),   # gold at rank 11
    ]
    assert recall_at_k(sets, golds, ks=(1, 10, 20)) == {1: 0.0, 10: 0.5, 20: 1.0}


def test_recall_best_case_all_ranks():
    golds = [_gold("a", "E1")]
    sets = [_cands("a", [f"E{i}" for i in range(1, 21)])]
    out = recall_at_k(sets, golds, ks=(1, 2, 3, 4, 5, 8, 10, 15, 20))
    assert all(v == 1.0 for v in out.values())


def test_recall_rejects_nil_gold():
    with pytest.raises(ValueError, match="in-KB"):
        recall_at_k([_cands("a", ["E1"])], [_gold("a", NIL)], ks=(1,))


def test_recall_depth_error():
    with pytest.raises(ValueError, match="depth"):
        recall_at_k([_cands("a", ["E1", "E2"])], [_gold("a", "E1")], ks=(5,))


def test_recall_rejects_a_repeated_depth():
    # once counted twice: ks (10, 10) read recall 2.0 when every gold was found
    with pytest.raises(ValueError, match=r"^repeated recall depth in \(1, 2, 1\)$"):
        recall_at_k([_cands("a", ["E1", "E2"])], [_gold("a", "E1")], ks=(1, 2, 1))


@pytest.mark.parametrize("order", [1, -1])
def test_recall_rejects_repeated_gold_ids(order):
    # once scored against whichever repeat came last: R@1 = 0.0 one way round, 1.0 the other
    golds = [_gold("q1", "E1"), _gold("q1", "E2")][::order]
    with pytest.raises(CoverageError, match="duplicate query ids among golds") as caught:
        recall_at_k([_cands("q1", ["E1", "E3"])], golds, ks=(1,))
    assert caught.value.source == "golds"


@pytest.mark.parametrize("shallow_first", [True, False])
def test_recall_reports_the_first_faulty_candidate_set(shallow_first):
    # a set too shallow for the grid and a set of an unknown query: the earlier one is reported
    golds = [_gold("a", "E1"), _gold("b", "E2")]
    sets = [_cands("a", ["E1"]), _cands("zzz", ["E1", "E2"])]
    message = "k=2 exceeds retrieved depth 1" if shallow_first else "unknown query 'zzz'"
    with pytest.raises(CoverageError, match=message) as caught:
        recall_at_k(sets if shallow_first else sets[::-1], golds, ks=(1, 2))
    assert caught.value.source == "candidate_sets"


@given(st.lists(st.integers(1, 30), min_size=1, max_size=25))
@settings(max_examples=50)
def test_recall_monotone_in_k(ranks):
    golds = [_gold(f"q{i}", f"E{rank}") for i, rank in enumerate(ranks)]
    sets = [_cands(f"q{i}", [f"E{j}" for j in range(1, 31)]) for i in range(len(ranks))]
    out = recall_at_k(sets, golds, ks=(1, 2, 3, 4, 5, 8, 10, 15, 20, 30))
    values = [out[k] for k in sorted(out)]
    assert values == sorted(values)
    assert out[30] == 1.0


def test_split_accuracy_is_count_weighted_mean():
    golds = [
        _gold("a", "E1", "verb"), _gold("b", "E2", "verb"), _gold("c", "E3", "noun"),
    ]
    decisions = [_decision("a", "E1"), _decision("b", "X"), _decision("c", "E3")]
    acc_all, acc_verb, acc_noun = _accuracy(decisions, golds)
    assert acc_all == pytest.approx((2 * acc_verb + 1 * acc_noun) / 3)


def test_evaluate_builds_full_report():
    golds = [_gold("a", "E1", "verb"), _gold("b", NIL, "noun")]
    decisions = [_decision("a", "E1"), _decision("b", NIL)]
    sets = [_cands("a", ["E1", "E2"])]
    report = evaluate(decisions, golds, sets, ks=(1, 2), dataset_fingerprint="fp")
    assert report.accuracy_all == 1.0
    assert report.accuracy_in_kb == 1.0
    assert report.accuracy_out_of_kb == 1.0
    assert report.recall_at == {1: 1.0, 2: 1.0}
    assert report.counts == {"all": 2, "verb": 1, "noun": 1, "in_kb": 1, "out_of_kb": 1}
    assert EvalReport.from_dict(report.to_dict()) == report


def test_evaluate_skips_candidates_of_nil_golds():
    golds = [_gold("a", "E1"), _gold("b", NIL)]
    decisions = [_decision("a", "E2"), _decision("b", NIL)]
    sets = [_cands("b", ["E1", "E2"]), _cands("a", ["E2", "E1"])]
    assert evaluate(decisions, golds, sets, ks=(1, 2)).recall_at == {1: 0.0, 2: 1.0}


@pytest.mark.parametrize("case, message", [
    ("repeated", "repeated candidates for query 'q0'"),
    ("unknown", "candidates for unknown query 'zzz'"),
    ("missing", r"no candidates for queries: \['q1', 'q2', 'q3'\]"),
    ("none", r"no candidates for queries: \['q0', 'q1', 'q2', 'q3'\]"),
])
def test_evaluate_rejects_candidates_not_one_per_in_kb_gold(case, message):
    # q0 listed twice once reported recall@1 = 1.0 over four in-KB golds
    golds = [_gold(f"q{i}", f"E{i}") for i in range(4)] + [_gold("n", NIL)]
    decisions = [_decision(g.query_id, g.gold) for g in golds]
    full = [_cands(f"q{i}", [f"E{i}", "E9"]) for i in range(4)]
    sets = {"repeated": [full[0], full[0]], "unknown": [*full, _cands("zzz", ["E1", "E2"])],
            "missing": full[:1], "none": []}[case]
    with pytest.raises(ValueError, match=message):
        evaluate(decisions, golds, sets, ks=(1,))


def test_evaluate_is_pure():
    golds = [_gold("a", "E1")]
    decisions = [_decision("a", "E1")]
    a = evaluate(decisions, golds, dataset_fingerprint="fp")
    b = evaluate(decisions, golds, dataset_fingerprint="fp")
    assert a.to_dict() == b.to_dict()


def _report(acc, fp="fp"):
    return EvalReport(
        accuracy_all=acc, accuracy_verb=acc, accuracy_noun=None,
        accuracy_in_kb=acc, accuracy_out_of_kb=None,
        recall_at={1: acc}, counts={"all": 4}, dataset_fingerprint=fp,
    )


def test_compare_two_runs_marks_maxima():
    out = compare_report([("base", _report(0.5)), ("ours", _report(0.75))])
    assert set(out["rows"]) == {"base", "ours"}
    assert out["best"]["accuracy_all"] == ["ours"]
    assert out["best"]["recall_at_1"] == ["ours"]


def test_compare_single_run_all_best():
    out = compare_report([("only", _report(0.4))])
    for names in out["best"].values():
        assert names == ["only"]


def test_compare_fingerprint_mismatch():
    with pytest.raises(ValueError, match="fingerprint"):
        compare_report([("a", _report(0.5, "fp1")), ("b", _report(0.5, "fp2"))])


def test_compare_ties_mark_every_winner():
    out = compare_report([("a", _report(0.5)), ("b", _report(0.5))])
    assert out["best"]["accuracy_all"] == ["a", "b"]
