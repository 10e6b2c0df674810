"""Correctness checks the benchmark owns, run on every run.

The oracles recompute what a stage wrote from the stage's inputs with
plain numpy and no eventlink code except query formatting, which has
its own golden tests:

* dense top-k: a brute-force per-row dot product over an index the
  oracle encodes itself, ranked by (-score, KB position), the tie rule
  of acceptance criterion 1, at the query length the stage uses;
* pair scores: the cross scorer's k+1 scores recomputed from the
  checkpoint arrays, and the decision each rule takes from them;
* structure: one record per query in order, k distinct KB ids with
  non-increasing scores, k+1 decision scores and a prediction in
  KB ∪ {NIL};
* quality: accuracy and recall recomputed from the artifacts.

A failed check is counted and described; it never stops the run.
"""

from __future__ import annotations

import json

import numpy as np

from eventlink.extraction import tagged_from_record
from eventlink.formatting import format_query

NIL = "NIL"
OOV = "[OOV]"
TITLE_SEP = "[TITLE_SEP]"
# ``index`` encodes candidate text at its default --max-len.
INDEX_LEN = 300
# Fixed before any run: float64 scores recomputed in another order of
# operations agree far below this.
SCORE_ATOL = 1e-9
SAMPLE = 16


class Checks:
    """Attempted and failed counts, with a description of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[dict] = []

    def record(self, name: str, problem: str | None) -> None:
        self.attempted += 1
        if problem:
            self.failed += 1
            self.failures.append({"check": name, "problem": problem})

    def run(self, name: str, fn, *args) -> None:
        try:
            problem = fn(*args)
        except Exception as exc:  # a crashing oracle is a failed check, not a crashed run
            problem = f"{type(exc).__name__}: {exc}"
        self.record(name, problem)


def read_records(path: str) -> list[dict]:
    """JSON-lines records, without the ``_manifest`` header line."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            if not (isinstance(record, dict) and set(record) == {"_manifest"}):
                out.append(record)
    return out


def read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def candidate_tokens(entry: dict, max_len: int) -> list[str]:
    return (entry["title"].split() + [TITLE_SEP] + entry["description"].split())[:max_len]


class Encoder:
    """Mean-pool, affine map and L2 norm, from a checkpoint's arrays."""

    def __init__(self, state: dict):
        self.ids = {token: i for i, token in enumerate(state["vocab"])}
        self.oov = self.ids[OOV]
        self.embed = np.array(state["embed"], dtype=float)
        self.weight = np.array(state["weight"], dtype=float)
        self.bias = np.array(state["bias"], dtype=float)

    def encode(self, tokens) -> np.ndarray:
        ids = [self.ids.get(t, self.oov) for t in tokens]
        pre = self.weight @ self.embed[ids].mean(axis=0) + self.bias
        return pre / np.linalg.norm(pre)


class DenseOracle:
    """Exact top-k over an index the oracle builds from the KB and encoder."""

    def __init__(self, kb: list[dict], encoder_state: dict, style: str):
        self.kb = kb
        self.style = style
        self.encoder = Encoder(encoder_state)
        self.matrix = np.stack([self.encoder.encode(candidate_tokens(e, INDEX_LEN)) for e in kb])

    def top_k(self, query: dict, query_len: int, k: int) -> tuple[list[str], list[float]]:
        tokens = format_query(tagged_from_record(query), self.style, query_len)
        q = self.encoder.encode(tokens)
        scores = [float(np.dot(row, q)) for row in self.matrix]
        order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))[:k]
        return [self.kb[i]["id"] for i in order], [scores[i] for i in order]


def sample_positions(n: int, seed: int, size: int = SAMPLE) -> list[int]:
    rng = np.random.default_rng(seed)
    return sorted(int(i) for i in rng.choice(n, size=min(size, n), replace=False))


def check_dense(oracle: DenseOracle, queries: list[dict], candidates: list[dict],
                query_len: int, k: int, sample: list[int]) -> str | None:
    for pos in sample:
        got = candidates[pos]
        ids, scores = oracle.top_k(queries[pos], query_len, k)
        got_ids = [c["id"] for c in got["candidates"]]
        if got_ids != ids:
            return f"query {got['query_id']}: ids {got_ids} != oracle {ids}"
        got_scores = np.array([c["score"] for c in got["candidates"]])
        if not np.allclose(got_scores, scores, rtol=0.0, atol=SCORE_ATOL):
            worst = float(np.max(np.abs(got_scores - scores)))
            return f"query {got['query_id']}: scores off by {worst:.3g}"
    return None


def check_candidate_sets(candidates: list[dict], queries: list[dict], kb_ids: set,
                         k: int) -> str | None:
    if [c["query_id"] for c in candidates] != [q["query_id"] for q in queries]:
        return "candidate sets do not follow the query file one to one"
    for record in candidates:
        ids = [c["id"] for c in record["candidates"]]
        scores = [c["score"] for c in record["candidates"]]
        if len(ids) != k or len(set(ids)) != k or not set(ids) <= kb_ids:
            return f"query {record['query_id']}: not {k} distinct KB ids"
        if any(a < b for a, b in zip(scores, scores[1:])):
            return f"query {record['query_id']}: scores increase"
    return None


def check_decisions(decisions: list[dict], queries: list[dict], kb_ids: set,
                    k: int) -> str | None:
    if [d["query_id"] for d in decisions] != [q["query_id"] for q in queries]:
        return "decisions do not follow the query file one to one"
    for d in decisions:
        if len(d["scores"]) != k + 1:
            return f"query {d['query_id']}: {len(d['scores'])} scores, expected {k + 1}"
        if d["prediction"] != NIL and d["prediction"] not in kb_ids:
            return f"query {d['query_id']}: prediction {d['prediction']!r} not in KB or NIL"
    return None


def pair_scores(scorer_state: dict, scorer: Encoder, query: dict, style: str,
                query_len: int, entries: list[dict], candidate_len: int) -> np.ndarray:
    """[NIL, c_1..c_k] scores of the cross scorer, from its checkpoint arrays."""
    scale = float(scorer_state["scale"][0])
    nil = np.array(scorer_state["nil"], dtype=float)
    q = scorer.encode(format_query(tagged_from_record(query), style, query_len))
    partners = [nil / np.linalg.norm(nil)]
    partners += [scorer.encode(candidate_tokens(e, candidate_len)) for e in entries]
    return np.array([scale * float(q @ p) for p in partners])


def _softmax(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - np.max(x))
    return e / e.sum()


def check_link(oracle: DenseOracle, scorer_state: dict, queries: list[dict],
               decisions: list[dict], rule: tuple, query_len: int, candidate_len: int,
               k: int, sample: list[int]) -> str | None:
    """Recompute sampled decisions: oracle candidates, pair scores, then the rule.

    ``rule`` is ``("learned",)`` or ``("threshold", theta, direction)``.
    """
    scorer = Encoder(scorer_state)
    by_id = {e["id"]: e for e in oracle.kb}
    for pos in sample:
        decision = decisions[pos]
        ids, _ = oracle.top_k(queries[pos], query_len, k)
        scores = pair_scores(scorer_state, scorer, queries[pos], oracle.style, query_len,
                             [by_id[i] for i in ids], candidate_len)
        if rule[0] == "learned":
            expected = scores
            best = int(np.argmax(scores))
            prediction = NIL if best == 0 else ids[best - 1]
        else:
            _, theta, direction = rule
            probs = _softmax(scores[1:])
            best = int(np.argmax(probs))
            keep = probs[best] >= theta if direction == "conventional" else probs[best] < theta
            prediction = ids[best] if keep else NIL
            expected = np.concatenate([[0.0], probs])
        got = np.array(decision["scores"])
        if got.shape != expected.shape or not np.allclose(got, expected, rtol=0.0,
                                                          atol=SCORE_ATOL):
            return f"query {decision['query_id']}: decision scores differ from the oracle"
        if decision["prediction"] != prediction:
            return (f"query {decision['query_id']}: prediction {decision['prediction']!r}, "
                    f"oracle {prediction!r}")
    return None


def recall_at(candidates: list[dict], queries: list[dict], k: int) -> float:
    """Share of in-KB queries whose gold is among the first k candidates."""
    gold = {q["query_id"]: q["gold"] for q in queries}
    rows = [c for c in candidates if gold[c["query_id"]] != NIL]
    hits = sum(gold[c["query_id"]] in [x["id"] for x in c["candidates"][:k]] for c in rows)
    return hits / len(rows)


def accuracy(decisions: list[dict], queries: list[dict], out_of_kb: bool | None = None) -> float:
    """Exact-match accuracy, optionally only over NIL-gold (True) or in-KB (False) rows."""
    gold = {q["query_id"]: q["gold"] for q in queries}
    rows = [d for d in decisions
            if out_of_kb is None or (gold[d["query_id"]] == NIL) == out_of_kb]
    return sum(d["prediction"] == gold[d["query_id"]] for d in rows) / len(rows)


def check_report(report: dict, decisions: list[dict], queries: list[dict],
                 candidates: list[dict], k: int) -> str | None:
    """The eval stage's figures must match the benchmark's own recomputation."""
    ours = {
        "accuracy_all": accuracy(decisions, queries),
        "accuracy_out_of_kb": accuracy(decisions, queries, out_of_kb=True),
        f"recall_at_{k}": recall_at(candidates, queries, k),
    }
    theirs = {
        "accuracy_all": report["accuracy_all"],
        "accuracy_out_of_kb": report["accuracy_out_of_kb"],
        f"recall_at_{k}": report["recall_at"][str(k)],
    }
    for key, value in ours.items():
        if theirs[key] is None or abs(theirs[key] - value) > 1e-12:
            return f"{key}: eval reports {theirs[key]}, recomputed {value}"
    return None
