"""Accuracy and recall evaluation plus multi-run comparison reports.

Accuracy is exact match of the prediction (KB id or NIL) against the gold
label, reported per split in ``_SPLITS``: overall, verb and noun mentions,
in-KB and out-of-KB golds. An empty split reports as absent, not zero.
Recall@k covers in-KB queries only. Both are pure functions of their inputs.

Coverage: gold query ids are distinct, and the decisions (for accuracy) or
candidate sets (for recall) name each gold query exactly once and no other
query. ``_cover`` is the one check of this rule; its ``CoverageError``
names the argument at fault.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Iterable, Iterator, Sequence

from .artifacts import typed
from .extraction import EventQuery
from .kb import NIL
from .rerank import LinkDecision
from .retrieval import CandidateSet

RECALL_GRID = (1, 2, 3, 4, 5, 8, 10, 15, 20)

# Accuracy splits in EvalReport's order; an "other" mention counts toward "all" only.
_SPLITS = ("all", "verb", "noun", "in_kb", "out_of_kb")


class CoverageError(ValueError):
    """Inputs that do not cover one another; ``source`` names the argument at fault."""

    def __init__(self, source: str, message: str):
        super().__init__(message)
        self.source = source


def _written(value):
    """A field's value as the document holds it: a dict's keys become sorted strings."""
    return {str(k): v for k, v in sorted(value.items())} if isinstance(value, dict) else value


@dataclass
class EvalReport:
    """Metric bundle for one run over one dataset; its fields are the document's keys."""

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
        return {f.name: _written(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, payload: dict) -> "EvalReport":
        """The report of a ``to_dict`` document, each field of its JSON type; nothing is coerced."""
        def entries(name: str, kind: type) -> dict:
            return {k: typed(v, kind, f"{name}[{k!r}]") for k, v in typed(payload[name], dict, name).items()}

        accuracies = {f"accuracy_{split}": payload[f"accuracy_{split}"] for split in _SPLITS}
        return cls(
            **{name: value if value is None else typed(value, float, name)
               for name, value in accuracies.items()},
            recall_at={_depth(k): v for k, v in entries("recall_at", float).items()},
            counts=entries("counts", int),
            dataset_fingerprint=typed(payload["dataset_fingerprint"], str, "dataset_fingerprint"),
            config_fingerprint=typed(payload["config_fingerprint"], str, "config_fingerprint"),
        )


def _depth(key: str) -> int:
    """A ``recall_at`` key as its depth: the canonical decimal text of an integer of at least 1."""
    if not (key.isascii() and key.isdigit() and key[0] != "0"):
        raise ValueError(f"recall_at key {key!r} is not the decimal text of an integer of at least 1")
    return int(key)


def _ratio(correct: int, total: int) -> float | None:
    return correct / total if total else None


def _cover(golds: Sequence[EventQuery], items: Iterable, source: str,
           noun: str) -> Iterator[tuple]:
    """Yield each of ``items`` with the gold query it names, checking the coverage rule.

    Duplicate gold ids fail first, then an item naming an unknown or an
    already named query, then the golds no item named. Items are looked at
    one by one, so a caller's own check of an item fails before a fault of
    a later item. Errors say ``noun`` and name ``source``.
    """
    gold_map = {q.query_id: q for q in golds}
    if len(gold_map) != len(golds):
        raise CoverageError("golds", "duplicate query ids among golds")
    seen = set()
    for item in items:
        gold = gold_map.get(item.query_id)
        if gold is None:
            raise CoverageError(source, f"{noun} for unknown query {item.query_id!r}")
        if item.query_id in seen:
            raise CoverageError(source, f"repeated {noun} for query {item.query_id!r}")
        seen.add(item.query_id)
        yield item, gold
    missing = set(gold_map) - seen
    if missing:
        raise CoverageError(source, f"no {noun} for queries: {sorted(missing)[:5]}")


def _split_counts(
    pairs: Iterable[tuple[LinkDecision, EventQuery]]
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


def recall_at_k(
    candidate_sets: Iterable[CandidateSet],
    golds: Sequence[EventQuery],
    ks: Sequence[int] = RECALL_GRID,
) -> dict[int, float]:
    """Fraction of queries whose gold id appears in the first k candidates.

    Callers exclude NIL-gold queries first; passing one is an error, as are
    a repeated k and asking for k beyond the retrieved depth. The candidate
    sets must cover the golds, as the module docstring states.
    """
    if any(q.gold == NIL for q in golds):
        raise ValueError("recall is defined over in-KB golds only")
    if len(set(ks)) < len(ks):
        raise ValueError(f"repeated recall depth in {tuple(ks)}")
    max_k = max(ks)
    hits = {k: 0 for k in ks}
    for cs, query in _cover(golds, candidate_sets, "candidate_sets", "candidates"):
        if len(cs) < max_k:
            raise CoverageError("candidate_sets", f"k={max_k} exceeds retrieved depth {len(cs)}")
        for k in ks:
            hits[k] += query.gold in cs.ids[:k]
    if not golds:
        raise CoverageError("candidate_sets", "no candidate sets to evaluate")
    return {k: hits[k] / len(golds) for k in ks}


def evaluate(
    decisions: Sequence[LinkDecision],
    golds: Sequence[EventQuery],
    candidate_sets: Iterable[CandidateSet] | None = None,
    ks: Sequence[int] = RECALL_GRID,
    dataset_fingerprint: str = "",
    config_fingerprint: str = "",
) -> EvalReport:
    """Build the full report: accuracy splits, optional recall grid, counts.

    The decisions must cover the golds. Candidate sets of NIL-gold queries
    are skipped; the rest must cover the in-KB golds, as ``recall_at_k``
    requires.
    """
    counts, hits = _split_counts(_cover(golds, decisions, "decisions", "decision"))
    recall: dict[int, float] = {}
    if candidate_sets is not None:
        in_kb_golds = [g for g in golds if g.gold != NIL]
        nil_ids = {g.query_id for g in golds if g.gold == NIL}
        kept = [cs for cs in candidate_sets if cs.query_id not in nil_ids]
        if kept or in_kb_golds:
            recall = recall_at_k(kept, in_kb_golds, ks)
    return EvalReport(
        **{f"accuracy_{split}": _ratio(hits[split], counts[split]) for split in _SPLITS},
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
        row = {f"accuracy_{split}": getattr(report, f"accuracy_{split}") for split in _SPLITS}
        row.update((f"recall_at_{k}", value) for k, value in report.recall_at.items())
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
