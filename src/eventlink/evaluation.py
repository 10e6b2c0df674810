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


class CoverageError(ValueError):
    """Inputs that do not cover one another; ``source`` names the argument at fault."""

    def __init__(self, source: str, message: str):
        super().__init__(message)
        self.source = source


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
        raise CoverageError("golds", "duplicate query ids among golds")
    pairs = []
    seen = set()
    for decision in decisions:
        gold = gold_map.get(decision.query_id)
        if gold is None:
            raise CoverageError("decisions", f"decision for unknown query {decision.query_id!r}")
        if decision.query_id in seen:
            raise CoverageError("decisions", f"repeated decision for query {decision.query_id!r}")
        seen.add(decision.query_id)
        pairs.append((decision, gold))
    missing = set(gold_map) - seen
    if missing:
        raise CoverageError("decisions", f"no decision for queries: {sorted(missing)[:5]}")
    return pairs


# Accuracy splits in EvalReport's order; an "other" mention counts toward "all" only.
_SPLITS = ("all", "verb", "noun", "in_kb", "out_of_kb")


def _split_counts(
    pairs: Sequence[tuple[LinkDecision, EventQuery]]
) -> tuple[dict[str, int], dict[str, int]]:
    """Per split, the number of aligned pairs and the number of exact matches."""
    totals = dict.fromkeys(_SPLITS, 0)
    hits = dict.fromkeys(_SPLITS, 0)
    for decision, gold in pairs:
        correct = decision.prediction == gold.gold
        for split in ("all", gold.pos, "in_kb" if gold.gold != NIL else "out_of_kb"):
            if split in totals:
                totals[split] += 1
                hits[split] += correct
    return totals, hits


def accuracy(
    decisions: Sequence[LinkDecision], golds: Sequence[EventQuery]
) -> tuple[float | None, float | None, float | None]:
    """Exact-match accuracy overall and per mention POS class."""
    totals, hits = _split_counts(_align(decisions, golds))
    return tuple(_ratio(hits[split], totals[split]) for split in ("all", "verb", "noun"))


def recall_at_k(
    candidate_sets: Iterable[CandidateSet],
    golds: Sequence[EventQuery],
    ks: Sequence[int] = RECALL_GRID,
) -> dict[int, float]:
    """Fraction of queries whose gold id appears in the first k candidates.

    Callers exclude NIL-gold queries first; passing one is an error, as is
    asking for k beyond the retrieved depth. Every query needs exactly one
    candidate set, and every candidate set a query.
    """
    gold_map = {q.query_id: q.gold for q in golds}
    for gold in gold_map.values():
        if gold == NIL:
            raise ValueError("recall is defined over in-KB golds only")
    sets = list(candidate_sets)
    max_k = max(ks)
    hits = {k: 0 for k in ks}
    seen = set()
    for cs in sets:
        if cs.query_id not in gold_map:
            raise CoverageError("candidate_sets", f"candidates for unknown query {cs.query_id!r}")
        if cs.query_id in seen:
            raise CoverageError("candidate_sets", f"repeated candidates for query {cs.query_id!r}")
        seen.add(cs.query_id)
        if len(cs) < max_k:
            raise CoverageError("candidate_sets", f"k={max_k} exceeds retrieved depth {len(cs)}")
        gold = gold_map[cs.query_id]
        for k in ks:
            if gold in cs.ids[:k]:
                hits[k] += 1
    missing = set(gold_map) - seen
    if missing:
        raise CoverageError("candidate_sets", f"no candidates for queries: {sorted(missing)[:5]}")
    if not sets:
        raise CoverageError("candidate_sets", "no candidate sets to evaluate")
    return {k: hits[k] / len(sets) for k in ks}


def evaluate(
    decisions: Sequence[LinkDecision],
    golds: Sequence[EventQuery],
    candidate_sets: Iterable[CandidateSet] | None = None,
    ks: Sequence[int] = RECALL_GRID,
    dataset_fingerprint: str = "",
    config_fingerprint: str = "",
) -> EvalReport:
    """Build the full report: accuracy splits, optional recall grid, counts.

    Candidate sets of NIL-gold queries are skipped; the rest must hold one
    set per in-KB gold query, as ``recall_at_k`` requires.
    """
    pairs = _align(decisions, golds)
    counts, hits = _split_counts(pairs)
    acc = {split: _ratio(hits[split], counts[split]) for split in _SPLITS}
    recall: dict[int, float] = {}
    if candidate_sets is not None:
        in_kb_golds = [g for _, g in pairs if g.gold != NIL]
        nil_ids = {g.query_id for _, g in pairs if g.gold == NIL}
        kept = [cs for cs in candidate_sets if cs.query_id not in nil_ids]
        if kept or in_kb_golds:
            recall = recall_at_k(kept, in_kb_golds, ks)
    return EvalReport(
        accuracy_all=acc["all"],
        accuracy_verb=acc["verb"],
        accuracy_noun=acc["noun"],
        accuracy_in_kb=acc["in_kb"],
        accuracy_out_of_kb=acc["out_of_kb"],
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
