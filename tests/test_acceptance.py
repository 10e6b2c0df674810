"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s`` to see them live).

The desk-scale stack (50-entry KB, 200/50 splits, tiny trainable encoder,
deterministic extractor and rewrite client) is built once per session and
shared across the learning criteria.
"""

import filecmp
import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from eventlink.encoders import TinyEncoder
from eventlink.evaluation import RECALL_GRID, compare_report, evaluate, recall_at_k
from eventlink.extraction import (
    Argument,
    EventQuery,
    Span,
    TaggedQuery,
    resolve_overlaps,
)
from eventlink.formatting import format_arguments, format_query
from eventlink.kb import NIL, RETRIEVER_MAX_LEN
from eventlink.llm import StorytellerMock
from eventlink.neggen import (
    STYLE_ARGUMENT_AWARE,
    STYLE_PLAIN,
    build_prompt,
    generate_negatives,
    kb_pruning_negatives,
    negative_prompt_template,
)
from eventlink.rerank import (
    TinyCrossScorer,
    build_rerank_prompt,
    rerank_prompt_template,
    score_pairs,
    select_learned_nil,
    select_threshold,
)
from eventlink.retrieval import BM25_B, BM25_K1, CandidateSet, DenseIndex, bm25_build
from eventlink.retrieval import build_index, retrieve
from eventlink.toy import build_toy_data
from eventlink.training import (
    TrainConfig,
    biencoder_batch_loss,
    build_vocab,
    cross_id_rows,
    crossencoder_batch_loss,
    mine_candidates,
    train_biencoder,
    train_crossencoder,
)

from conftest import dense_grads, kb_of
from pipeline import run_toy_pipeline
from reference import strip_markers
from test_bm25 import FIVE_DOC_EXPECTED
from test_training import _fd_check

DATA = Path(__file__).parent / "data"

STYLE, QLEN, CLEN, DIM, SEED = "args", 300, 256, 64, 0


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


@pytest.fixture(scope="session")
def stack():
    """Trained toy stack shared by the learning criteria."""
    timings = {}
    t0 = time.monotonic()
    data = build_toy_data(n_entries=50, n_train=200, n_test=50, seed=7)
    vocab = build_vocab(data.kb, data.train)

    untrained = TinyEncoder(vocab, DIM, seed=SEED)
    untrained_index = build_index(data.kb, untrained)

    encoder = TinyEncoder(vocab, DIM, seed=SEED)
    rows = data.kb.rows(t.base.gold for t in data.train)
    golds = data.kb.candidate_texts(RETRIEVER_MAX_LEN, rows)
    pairs = list(zip([format_query(t, STYLE, QLEN) for t in data.train], golds))
    bi_cfg = TrainConfig(
        learning_rate=0.3, batch_size=8, epochs=300, seed=SEED
    )
    train_biencoder(pairs, encoder, bi_cfg)
    index = build_index(data.kb, encoder)
    timings["biencoder"] = time.monotonic() - t0

    t1 = time.monotonic()
    negatives, records = generate_negatives(
        data.train, index, encoder, StorytellerMock(seed=0),
        STYLE_ARGUMENT_AWARE, 80, seed=SEED,
    )
    assert len(negatives) == 80 and all(r.status == "accepted" for r in records)
    train_negs, held_negs = negatives[:50], negatives[50:]

    positives = mine_candidates(data.train, index, encoder, 10, STYLE)
    cross_cfg = TrainConfig(
        learning_rate=0.1, batch_size=8, epochs=10, seed=SEED
    )
    scorer_plain = TinyCrossScorer(vocab, DIM, seed=SEED)
    train_crossencoder(positives, [], scorer_plain, cross_cfg, data.kb, STYLE)
    scorer_nil = TinyCrossScorer(vocab, DIM, seed=SEED)
    train_crossencoder(positives, train_negs, scorer_nil, cross_cfg, data.kb, STYLE)
    timings["crossencoder"] = time.monotonic() - t1
    timings["total"] = time.monotonic() - t0

    return {
        "data": data,
        "vocab": vocab,
        "untrained": untrained,
        "untrained_index": untrained_index,
        "encoder": encoder,
        "index": index,
        "train_negs": train_negs,
        "held_negs": held_negs,
        "scorer_plain": scorer_plain,
        "scorer_nil": scorer_nil,
        "timings": timings,
    }


def _test_candidate_sets(stack_dict, k):
    data, encoder, index = stack_dict["data"], stack_dict["encoder"], stack_dict["index"]
    return [
        retrieve(index, encoder.forward(format_query(t, STYLE, QLEN)), k, t.base.query_id)
        for t in data.test
    ]


def _negative_candidates(negative):
    width = len(negative.paired_candidate_ids)
    return CandidateSet(
        negative.generated.base.query_id,
        negative.paired_candidate_ids,
        tuple(float(width - i) for i in range(width)),
    )


def _decide(stack_dict, scorer, rule, theta=0.5, direction="conventional"):
    """Decisions over the combined eval set: in-KB test plus held-out negatives."""
    data, negatives = stack_dict["data"], stack_dict["held_negs"]
    queries = [*data.test, *(negative.generated for negative in negatives)]
    cand_sets = [*(_test_candidate_sets_one(stack_dict, t) for t in data.test),
                 *(_negative_candidates(negative) for negative in negatives)]
    rows = [format_query(query, STYLE, CLEN) for query in queries]
    score_lists = score_pairs(scorer, rows, cand_sets, data.kb)
    decisions = [_select(scores, cands, rule, theta, direction)
                 for scores, cands in zip(score_lists, cand_sets)]
    return decisions, [query.base for query in queries]


def _test_candidate_sets_one(stack_dict, tagged, k=10):
    encoder, index = stack_dict["encoder"], stack_dict["index"]
    return retrieve(
        index, encoder.forward(format_query(tagged, STYLE, QLEN)), k, tagged.base.query_id
    )


def _select(scores, cands, rule, theta, direction):
    if rule == "learned":
        return select_learned_nil(scores, cands)
    return select_threshold(scores[1:], cands, theta, direction)


# --- criteria -----------------------------------------------------------------


def test_criterion_01_retrieval_oracle_equivalence():
    with criterion(1, "retrieval oracle equivalence"):
        start = time.monotonic()
        rng = np.random.default_rng(20260810)
        for _ in range(100):
            n = int(rng.integers(2, 201))
            k = int(rng.integers(1, min(20, n) + 1))
            matrix = rng.normal(size=(n, 64))
            if rng.random() < 0.25:
                matrix[int(rng.integers(0, n))] = matrix[int(rng.integers(0, n))]
            q = rng.normal(size=64)
            index = DenseIndex(
                ids=tuple(f"E{i}" for i in range(n)), matrix=matrix, encoder_fingerprint="t"
            )
            got = retrieve(index, q, k)
            scores = [float(np.dot(row, q)) for row in matrix]
            order = sorted(range(n), key=lambda i: (-scores[i], i))[:k]
            assert list(got.ids) == [f"E{i}" for i in order]
            np.testing.assert_allclose(got.scores, [scores[i] for i in order], atol=1e-9)
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_02_bm25_oracle():
    with criterion(2, "BM25 hand-computed oracle"):
        kb = kb_of(
            [
                ("F0", "alpha", "beta gamma"),
                ("F1", "beta", "beta delta"),
                ("F2", "gamma delta", "epsilon"),
                ("F3", "zeta", "alpha beta gamma delta epsilon"),
                ("F4", "eta", "theta iota"),
            ]
        )
        index = bm25_build(kb)
        assert BM25_K1 == 1.2 and BM25_B == 0.75
        for terms, expected in FIVE_DOC_EXPECTED.items():
            scores = index.scores(list(terms))
            for position, entry_id in enumerate(index.ids):
                assert abs(scores[position] - expected[entry_id]) <= 1e-9
        zero = index.scores(["missing", "words"])
        assert all(s == 0.0 for s in zero)


def test_criterion_03_recall_monotonicity(stack):
    with criterion(3, "recall monotone over the k grid"):
        data = stack["data"]
        n = data.kb.n
        sets = _test_candidate_sets(stack, n)
        golds = [t.base for t in data.test]
        grid = tuple(k for k in RECALL_GRID if k <= n) + (n,)
        out = recall_at_k(sets, golds, ks=grid)
        values = [out[k] for k in sorted(out)]
        assert values == sorted(values)
        assert out[n] == 1.0
        # the untrained encoder must obey the same monotonicity
        unt_sets = [
            retrieve(
                stack["untrained_index"],
                stack["untrained"].forward(format_query(t, STYLE, QLEN)),
                n,
                t.base.query_id,
            )
            for t in data.test
        ]
        unt = recall_at_k(unt_sets, golds, ks=grid)
        assert [unt[k] for k in sorted(unt)] == sorted(unt[k] for k in unt)
        assert unt[n] == 1.0


def test_criterion_04_formatting_goldens_and_round_trip():
    with criterion(4, "formatting goldens and strip round trip"):
        fixture = json.loads((DATA / "formatting_golden.json").read_text(encoding="utf-8"))
        assert len(fixture) == 20
        from eventlink.extraction import NamedEntityAnnotation
        from eventlink.formatting import format_evelink

        for case in fixture:
            base = EventQuery(
                case["query_id"], tuple(case["tokens"]),
                Span(case["mention_start"], case["mention_end"]),
                entities=tuple(
                    NamedEntityAnnotation(Span(e["start"], e["end"]), e["entity_type"])
                    for e in case["entities"]
                ),
            )
            tagged = TaggedQuery(
                base, "T",
                tuple(Argument(Span(a["start"], a["end"]), a["role"]) for a in case["arguments"]),
            )
            assert format_query(TaggedQuery(base), "blink", case["max_len"]) == case["blink"]
            assert format_evelink(base, case["max_len"]) == case["evelink"]
            assert format_arguments(tagged, case["max_len"]) == case["args"]
            if not case["arguments"]:
                assert case["args"] == case["blink"]

        rng = np.random.default_rng(41)
        for _ in range(1000):
            n = int(rng.integers(3, 30))
            tokens = tuple(f"w{int(rng.integers(0, 40))}" for _ in range(n))
            ms = int(rng.integers(0, n))
            me = min(n - 1, ms + int(rng.integers(0, 3)))
            mention = Span(ms, me)
            raw = [
                Argument(
                    Span(s := int(rng.integers(0, n)), min(n - 1, s + int(rng.integers(0, 3)))),
                    "R",
                )
                for _ in range(int(rng.integers(0, 4)))
            ]
            tagged = TaggedQuery(
                EventQuery("q", tokens, mention), "T", resolve_overlaps(raw, mention, n)
            )
            max_len = int(rng.integers(len(mention) + 2, n + 10))
            out = format_arguments(tagged, max_len)
            stripped = strip_markers(out)
            joined = "\x00" + "\x00".join(tokens) + "\x00"
            assert "\x00" + "\x00".join(stripped) + "\x00" in joined
            assert len(out) <= max_len
            assert out.count("[M_s]") == 1 and out.count("[M_e]") == 1


def test_criterion_05_prompt_byte_exactness():
    with criterion(5, "prompt templates and fills byte-exact"):
        def golden(name):
            return (DATA / name).read_text(encoding="utf-8")

        assert negative_prompt_template(STYLE_ARGUMENT_AWARE) == golden(
            "template_negative_argument_aware.golden.txt"
        )
        assert negative_prompt_template(STYLE_PLAIN) == golden(
            "template_negative_plain.golden.txt"
        )
        assert rerank_prompt_template(False) == golden("template_rerank.golden.txt")
        assert rerank_prompt_template(True) == golden("template_rerank_nil.golden.txt")
        assert 'event is of the type "{event type}"' in negative_prompt_template(
            STYLE_ARGUMENT_AWARE
        )

        base = EventQuery(
            "fix-1",
            tuple("In 1941 , Germany invaded the Soviet Union during the war .".split()),
            Span(4, 4), pos="verb", gold="E7",
        )
        tagged = TaggedQuery(
            base, "Attack",
            (
                Argument(Span(3, 3), "Assailant"),
                Argument(Span(5, 7), "Victim"),
                Argument(Span(1, 1), "Time"),
            ),
        )
        assert build_prompt(tagged, STYLE_ARGUMENT_AWARE) == golden(
            "prompt_negative_args.golden.txt"
        )
        assert build_prompt(tagged, STYLE_PLAIN) == golden("prompt_negative_plain.golden.txt")
        filled = build_prompt(tagged, STYLE_ARGUMENT_AWARE)
        assert 'This "invaded" event is of the type "Attack".' in filled

        kb = kb_of(
            [(f"E{i}", f"Battle {i}", f"An account of battle number {i} .") for i in range(10)]
        )
        cands = CandidateSet(
            "fix-1", tuple(f"E{i}" for i in range(10)), tuple(float(10 - i) for i in range(10))
        )
        passage = "Germany invaded the Soviet Union ."
        assert build_rerank_prompt(passage, cands, kb, False) == golden("prompt_rerank.golden.txt")
        assert build_rerank_prompt(passage, cands, kb, True) == golden(
            "prompt_rerank_nil.golden.txt"
        )


def test_criterion_06_gradient_checks():
    with criterion(6, "gradient checks vs central differences"):
        start = time.monotonic()
        vocab = ["war", "city", "north", "harbor", "siege", "[M_s]", "[M_e]", "[TITLE_SEP]"]
        encoder = TinyEncoder(vocab, 6, seed=0)
        queries = encoder.id_rows([["war", "city"], ["north", "war", "[M_s]"], ["harbor"]])
        cands = encoder.id_rows([["city", "city"], ["north"], ["siege", "war"]])
        _, grads = biencoder_batch_loss(encoder, queries, cands)
        _fd_check(
            encoder.params(),
            lambda: biencoder_batch_loss(encoder, queries, cands)[0],
            dense_grads(encoder.params(), grads),
            tol=1e-4,
        )
        kb = kb_of([(f"E{i}", f"city {i}", f"war north {i}") for i in range(3)])
        scorer = TinyCrossScorer(vocab, 6, seed=0)
        from eventlink.training import CrossExample

        examples = [
            CrossExample("a", ("war", "city"), ("E0", "E1"), 1),
            CrossExample("b", ("north",), ("E1", "E2"), 0),
            CrossExample("c", ("harbor", "siege"), ("E2", "E0"), 2),
        ]
        rows = cross_id_rows(scorer.encoder, examples, kb)
        _, grads = crossencoder_batch_loss(scorer, examples, *rows)
        _fd_check(
            scorer.params(),
            lambda: crossencoder_batch_loss(scorer, examples, *rows)[0],
            dense_grads(scorer.params(), grads),
            tol=1e-4,
        )
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_07_toy_end_to_end_learning(stack):
    with criterion(7, "toy end-to-end retrieval learning"):
        data = stack["data"]
        golds = [t.base for t in data.test]
        trained_sets = _test_candidate_sets(stack, 10)
        trained = recall_at_k(trained_sets, golds, ks=(10,))[10]
        untrained_sets = [
            retrieve(
                stack["untrained_index"],
                stack["untrained"].forward(format_query(t, STYLE, QLEN)),
                10,
                t.base.query_id,
            )
            for t in data.test
        ]
        untrained = recall_at_k(untrained_sets, golds, ks=(10,))[10]
        assert trained >= 0.8, f"trained R@10 {trained:.2f}"
        assert trained > untrained, f"trained {trained:.2f} vs untrained {untrained:.2f}"
        assert stack["timings"]["total"] < 300.0, f"took {stack['timings']['total']:.0f}s"


def test_criterion_08_learned_nil_effectiveness(stack):
    with criterion(8, "learned NIL balances in-KB and out-of-KB"):
        data, kb = stack["data"], stack["data"].kb

        def decide(scorer, queries, cand_sets):
            rows = [format_query(query, STYLE, CLEN) for query in queries]
            score_lists = score_pairs(scorer, rows, cand_sets, kb)
            return [select_learned_nil(scores, cands).prediction
                    for scores, cands in zip(score_lists, cand_sets)]

        def in_kb_accuracy(scorer):
            cand_sets = [_test_candidate_sets_one(stack, t) for t in data.test]
            predictions = decide(scorer, data.test, cand_sets)
            hits = sum(p == t.base.gold for p, t in zip(predictions, data.test))
            return hits / len(data.test)

        def nil_rate(scorer):
            negatives = stack["held_negs"]
            predictions = decide(scorer, [negative.generated for negative in negatives],
                                 [_negative_candidates(negative) for negative in negatives])
            return predictions.count(NIL) / len(negatives)

        acc_plain = in_kb_accuracy(stack["scorer_plain"])
        acc_nil = in_kb_accuracy(stack["scorer_nil"])
        rate = nil_rate(stack["scorer_nil"])
        assert rate >= 0.70, f"held-out NIL rate {rate:.2f}"
        assert acc_nil >= acc_plain - 0.05, f"in-KB {acc_nil:.2f} vs plain {acc_plain:.2f}"


def test_criterion_09_baseline_parity_and_pruning(stack):
    with criterion(9, "decision-rule parity reports and KB pruning"):
        data = stack["data"]
        recall_sets = _test_candidate_sets(stack, 20)
        runs = []
        for name, rule, direction in (
            ("learned_nil", "learned", "conventional"),
            ("threshold_conventional", "threshold", "conventional"),
            ("threshold_literal", "threshold", "literal"),
        ):
            decisions, golds = _decide(stack, stack["scorer_nil"], rule, 0.5, direction)
            report = evaluate(
                decisions, golds, recall_sets,
                ks=tuple(k for k in RECALL_GRID if k <= 20),
                dataset_fingerprint="toy-v1",
            )
            runs.append((name, report))
        comparison = compare_report(runs)
        assert set(comparison["rows"]) == {
            "learned_nil", "threshold_conventional", "threshold_literal",
        }
        for row in comparison["rows"].values():
            for column in (
                "accuracy_all", "accuracy_verb", "accuracy_noun",
                "accuracy_in_kb", "accuracy_out_of_kb",
            ):
                assert column in row
            for k in (1, 2, 3, 4, 5, 8, 10, 15, 20):
                assert f"recall_at_{k}" in row
        assert comparison["best"]

        pruned, relabeled = kb_pruning_negatives(data.train, 0.1, seed=3)
        assert len(pruned) == 5  # ceil(0.1 * 50 unique labels)
        changed = {
            after.base.query_id
            for before, after in zip(data.train, relabeled)
            if after.base.gold != before.base.gold
        }
        expected = {q.base.query_id for q in data.train if q.base.gold in pruned}
        assert changed == expected
        assert all(q.base.gold == NIL for q in relabeled if q.base.query_id in changed)


def test_criterion_10_pipeline_determinism(tmp_path, monkeypatch):
    with criterion(10, "byte-identical reruns of the full pipeline"):
        dirs = [tmp_path / "run-a", tmp_path / "run-b"]
        for directory in dirs:
            directory.mkdir()
            monkeypatch.chdir(directory)
            paths = run_toy_pipeline(".", seed=0, bi_epochs=20, cross_epochs=2,
                                     train_negatives=8, eval_negatives=5)
        monkeypatch.chdir(tmp_path)
        names = sorted(path.name for path in dirs[0].iterdir())
        assert names == sorted(path.name for path in dirs[1].iterdir())
        assert {Path(path).name for path in paths.values()} <= set(names)
        _, mismatch, errors = filecmp.cmpfiles(*dirs, names, shallow=False)
        assert mismatch == errors == [], f"{mismatch + errors} differ"
