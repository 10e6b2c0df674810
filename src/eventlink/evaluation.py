"""Accuracy and recall evaluation plus multi-run comparison reports.

Accuracy is exact match of the prediction (KB id or NIL) against the gold
label, reported overall and restricted to verb and noun mentions; empty
splits report as absent, not zero. Recall@k covers in-KB queries only.
Both are pure functions of their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .extraction import EventQuery
from .kb import NIL
from .rerank import LinkDecision
from .retrieval import CandidateSet

RECALL_GRID = (1, 2, 3, 4, 5, 8, 10, 15, 20)


@dataclass
class EvalReport:
    """Metric bundle for one run over one dataset."""

    accuracy_all: float | None
    accuracy_verb: float | None
    accuracy_noun: float | None
    accuracy_in_kb: float | None
    accuracy_out_of_kb: float | None
    recall_at: dict[int, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    dataset_fingerprint: str = ""
    config_fingerprint: str = ""

    def to_dict(self) -> dict:
        return {
            "accuracy_all": self.accuracy_all,
            "accuracy_verb": self.accuracy_verb,
            "accuracy_noun": self.accuracy_noun,
            "accuracy_in_kb": self.accuracy_in_kb,
            "accuracy_out_of_kb": self.accuracy_out_of_kb,
            "recall_at": {str(k): v for k, v in sorted(self.recall_at.items())},
            "counts": dict(sorted(self.counts.items())),
            "dataset_fingerprint": self.dataset_fingerprint,
            "config_fingerprint": self.config_fingerprint,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "EvalReport":
        return cls(
            accuracy_all=payload["accuracy_all"],
            accuracy_verb=payload["accuracy_verb"],
            accuracy_noun=payload["accuracy_noun"],
            accuracy_in_kb=payload["accuracy_in_kb"],
            accuracy_out_of_kb=payload["accuracy_out_of_kb"],
            recall_at={int(k): float(v) for k, v in payload["recall_at"].items()},
            counts={k: int(v) for k, v in payload["counts"].items()},
            dataset_fingerprint=str(payload["dataset_fingerprint"]),
            config_fingerprint=str(payload["config_fingerprint"]),
        )


def _ratio(correct: int, total: int) -> float | None:
    return correct / total if total else None


def _align(
    decisions: Sequence[LinkDecision], golds: Sequence[EventQuery]
) -> list[tuple[LinkDecision, EventQuery]]:
    gold_map = {q.query_id: q for q in golds}
    if len(gold_map) != len(golds):
        raise ValueError("duplicate query ids among golds")
    pairs = []
    seen = set()
    for decision in decisions:
        gold = gold_map.get(decision.query_id)
        if gold is None:
            raise ValueError(f"decision for unknown query {decision.query_id!r}")
        seen.add(decision.query_id)
        pairs.append((decision, gold))
    missing = set(gold_map) - seen
    if missing:
        raise ValueError(f"no decision for queries: {sorted(missing)[:5]}")
    return pairs


def accuracy(
    decisions: Sequence[LinkDecision], golds: Sequence[EventQuery]
) -> tuple[float | None, float | None, float | None]:
    """Exact-match accuracy overall and per mention POS class."""
    pairs = _align(decisions, golds)
    totals = {"all": 0, "verb": 0, "noun": 0}
    hits = {"all": 0, "verb": 0, "noun": 0}
    for decision, gold in pairs:
        correct = decision.prediction == gold.gold
        totals["all"] += 1
        hits["all"] += correct
        if gold.pos in ("verb", "noun"):
            totals[gold.pos] += 1
            hits[gold.pos] += correct
    return (
        _ratio(hits["all"], totals["all"]),
        _ratio(hits["verb"], totals["verb"]),
        _ratio(hits["noun"], totals["noun"]),
    )


def recall_at_k(
    candidate_sets: Iterable[CandidateSet],
    golds: Sequence[EventQuery],
    ks: Sequence[int] = RECALL_GRID,
) -> dict[int, float]:
    """Fraction of queries whose gold id appears in the first k candidates.

    Callers exclude NIL-gold queries first; passing one is an error, as is
    asking for k beyond the retrieved depth.
    """
    gold_map = {q.query_id: q.gold for q in golds}
    for gold in gold_map.values():
        if gold == NIL:
            raise ValueError("recall is defined over in-KB golds only")
    sets = list(candidate_sets)
    if not sets:
        raise ValueError("no candidate sets to evaluate")
    max_k = max(ks)
    hits = {k: 0 for k in ks}
    for cs in sets:
        if cs.query_id not in gold_map:
            raise ValueError(f"candidates for unknown query {cs.query_id!r}")
        if len(cs) < max_k:
            raise ValueError(f"k={max_k} exceeds retrieved depth {len(cs)}")
        gold = gold_map[cs.query_id]
        for k in ks:
            if gold in cs.ids[:k]:
                hits[k] += 1
    return {k: hits[k] / len(sets) for k in ks}


def evaluate(
    decisions: Sequence[LinkDecision],
    golds: Sequence[EventQuery],
    candidate_sets: Iterable[CandidateSet] | None = None,
    ks: Sequence[int] = RECALL_GRID,
    dataset_fingerprint: str = "",
    config_fingerprint: str = "",
) -> EvalReport:
    """Build the full report: accuracy splits, optional recall grid, counts."""
    pairs = _align(decisions, golds)
    acc_all, acc_verb, acc_noun = accuracy(decisions, golds)
    in_kb = [(d, g) for d, g in pairs if g.gold != NIL]
    out_kb = [(d, g) for d, g in pairs if g.gold == NIL]
    acc_in = _ratio(sum(d.prediction == g.gold for d, g in in_kb), len(in_kb))
    acc_out = _ratio(sum(d.prediction == g.gold for d, g in out_kb), len(out_kb))
    recall: dict[int, float] = {}
    if candidate_sets is not None:
        in_kb_golds = [g for _, g in in_kb]
        in_kb_ids = {g.query_id for g in in_kb_golds}
        kept = [cs for cs in candidate_sets if cs.query_id in in_kb_ids]
        if kept:
            recall = recall_at_k(kept, in_kb_golds, ks)
    counts = {
        "all": len(pairs),
        "verb": sum(g.pos == "verb" for _, g in pairs),
        "noun": sum(g.pos == "noun" for _, g in pairs),
        "in_kb": len(in_kb),
        "out_of_kb": len(out_kb),
    }
    return EvalReport(
        accuracy_all=acc_all,
        accuracy_verb=acc_verb,
        accuracy_noun=acc_noun,
        accuracy_in_kb=acc_in,
        accuracy_out_of_kb=acc_out,
        recall_at=recall,
        counts=counts,
        dataset_fingerprint=dataset_fingerprint,
        config_fingerprint=config_fingerprint,
    )


def compare_report(runs: Sequence[tuple[str, EvalReport]]) -> dict:
    """Side-by-side comparison of named runs over one dataset.

    All runs must share a dataset fingerprint; per-column maxima are
    marked as best (every tied run is marked).
    """
    if not runs:
        raise ValueError("no runs to compare")
    fingerprints = {report.dataset_fingerprint for _, report in runs}
    if len(fingerprints) > 1:
        raise ValueError(f"dataset fingerprint mismatch across runs: {sorted(fingerprints)}")
    names = [name for name, _ in runs]
    if len(set(names)) != len(names):
        raise ValueError("run names must be unique")
    columns: dict[str, dict[str, float | None]] = {}
    for name, report in runs:
        payload = report.to_dict()
        row: dict[str, float | None] = {
            key: payload[key]
            for key in (
                "accuracy_all", "accuracy_verb", "accuracy_noun",
                "accuracy_in_kb", "accuracy_out_of_kb",
            )
        }
        for k, value in payload["recall_at"].items():
            row[f"recall_at_{k}"] = value
        columns[name] = row
    all_columns = sorted({col for row in columns.values() for col in row})
    best: dict[str, list[str]] = {}
    for col in all_columns:
        values = {name: row[col] for name, row in columns.items() if row.get(col) is not None}
        if not values:
            continue
        top = max(values.values())
        best[col] = [name for name, value in values.items() if value == top]
    return {
        "dataset_fingerprint": next(iter(fingerprints)),
        "rows": {name: columns[name] for name in names},
        "best": best,
    }
