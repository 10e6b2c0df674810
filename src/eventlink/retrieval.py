"""First-stage retrieval: exact dense top-k by dot product, plus Okapi BM25.

Both retrievers rank every KB entry and break score ties by KB position,
so any (index, query, k) triple has exactly one correct answer. Search is
exact; no approximation is applied at any scale this package targets.

Dense search is the exact flat inner-product search of FAISS
``IndexFlatIP`` (arXiv 1702.08734), done in numpy and in two steps. One
matrix-vector product over the whole index, whose rounding error has a
proven bound, picks a shortlist certain to hold the true top k. Only the
shortlist is then scored by the per-row dot product that every candidate
file is pinned to, and sorted by (score descending, KB position).

BM25 follows BM25S (arXiv 2407.03618): each (term, entry) Okapi
contribution is computed once, when the index is built, and stored in
per-term posting arrays. A query's scores are then one ``bincount`` over
its terms' postings, and top-k sorts only the entries that scored. The
weights keep the association order of the per-posting formula and the
sums its addition order, so every score equals that formula bit for bit.

``DenseIndex.save`` and ``DenseIndex.load`` are the only writer and
reader of the index artifact: one JSON document holding the ids, the
encoder fingerprint, an optional manifest, and the matrix as base64 of its
little-endian float64 bytes, so a round trip restores every bit.
"""

from __future__ import annotations

import base64
import math
from dataclasses import dataclass, field
from itertools import chain, count
from typing import Sequence

import numpy as np

from . import artifacts
from .encoders import EncoderAdapter, encoder_fingerprint
from .extraction import EventQuery
from .formatting import context_window
from .kb import KnowledgeBase, candidate_text, full_candidate_tokens

BM25_K1 = 1.2
BM25_B = 0.75
BM25_WINDOW = 16

INDEX_FORMAT_VERSION = 2
INDEX_DTYPE = "<f8"

_UNIT_ROUNDOFF = 2.0 ** -53
_SMALLEST_SUBNORMAL = float(np.finfo(float).smallest_subnormal)
_FLOAT_MAX = float(np.finfo(float).max)


@dataclass(frozen=True)
class CandidateSet:
    """Ranked top-k entries for one query: distinct ids, non-increasing scores."""

    query_id: str
    ids: tuple[str, ...]
    scores: tuple[float, ...]
    gold_injected: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "ids", tuple(self.ids))
        object.__setattr__(self, "scores", tuple(float(s) for s in self.scores))
        if len(self.ids) != len(self.scores):
            raise ValueError("ids and scores must align")
        if len(set(self.ids)) != len(self.ids):
            raise ValueError("candidate ids must be distinct")
        if any(a < b for a, b in zip(self.scores, self.scores[1:])):
            raise ValueError("scores must be non-increasing")

    def __len__(self) -> int:
        return len(self.ids)

    def to_record(self) -> dict:
        record = {
            "query_id": self.query_id,
            "candidates": [{"id": i, "score": s} for i, s in zip(self.ids, self.scores)],
        }
        if self.gold_injected:
            record["gold_injected"] = True
        return record

    @classmethod
    def from_record(cls, record: dict) -> "CandidateSet":
        return cls(
            query_id=str(record["query_id"]),
            ids=tuple(c["id"] for c in record["candidates"]),
            scores=tuple(float(c["score"]) for c in record["candidates"]),
            gold_injected=bool(record.get("gold_injected", False)),
        )


@dataclass(frozen=True)
class DenseIndex:
    """Entry ids aligned with a finite (n, d) embedding matrix.

    ``max_row_norm`` is computed once here; it sizes the shortlist bound
    of every ``retrieve`` call.
    """

    ids: tuple[str, ...]
    matrix: np.ndarray
    encoder_fingerprint: str
    max_row_norm: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.matrix.ndim != 2 or self.matrix.shape[0] != len(self.ids) or self.matrix.size == 0:
            raise ValueError(
                f"matrix of shape {list(self.matrix.shape)} does not hold one row per id "
                f"for {len(self.ids)} ids"
            )
        if not np.isfinite(self.matrix).all():
            raise ValueError("matrix holds a non-finite value")
        object.__setattr__(self, "max_row_norm", float(_norms(self.matrix).max()))

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[1])

    def save(self, path, manifest: dict | None = None) -> None:
        """Write the index atomically, embedding ``manifest`` if given."""
        data = np.ascontiguousarray(self.matrix, dtype=INDEX_DTYPE).tobytes()
        payload = {
            "format_version": INDEX_FORMAT_VERSION,
            "encoder_fingerprint": self.encoder_fingerprint,
            "ids": list(self.ids),
            "matrix": {
                "dtype": INDEX_DTYPE,
                "shape": [self.n, self.dim],
                "base64": base64.b64encode(data).decode("ascii"),
            },
        }
        artifacts.write_json(path, payload, manifest)

    @classmethod
    def load(cls, path) -> "DenseIndex":
        """Read an index written by ``save``; a malformed file raises ValueError naming it."""
        return artifacts.read_document(path, cls._from_payload)

    @classmethod
    def _from_payload(cls, payload: dict) -> "DenseIndex":
        version = payload["format_version"]
        if version != INDEX_FORMAT_VERSION:
            raise ValueError(
                f"index format_version {version!r} is not supported; "
                f"rebuild it with `eventlink index` (format_version {INDEX_FORMAT_VERSION})"
            )
        ids = tuple(str(i) for i in payload["ids"])
        block = payload["matrix"]
        if block["dtype"] != INDEX_DTYPE:
            raise ValueError(f"matrix dtype {block['dtype']!r} is not {INDEX_DTYPE!r}")
        shape = block["shape"]
        if not (isinstance(shape, list) and len(shape) == 2
                and all(isinstance(x, int) and x >= 0 for x in shape)):
            raise ValueError(f"matrix shape {shape!r} is not a pair of sizes")
        data = base64.b64decode(block["base64"], validate=True)
        n, d = shape
        if len(data) != n * d * 8:
            raise ValueError(f"matrix shape {shape} needs {n * d * 8} bytes, found {len(data)}")
        matrix = np.frombuffer(data, dtype=INDEX_DTYPE).reshape(n, d).astype(np.float64)
        fingerprint = str(payload["encoder_fingerprint"])
        return cls(ids=ids, matrix=matrix, encoder_fingerprint=fingerprint)


def _norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis, scaled first so that no square under- or overflows.

    A norm beyond the float range comes out as inf.
    """
    scale = np.abs(x).max(axis=-1, keepdims=True)
    scale[scale == 0.0] = 1.0
    with np.errstate(over="ignore"):
        return scale[..., 0] * np.linalg.norm(x / scale, axis=-1)


def build_index(kb: KnowledgeBase, encoder: EncoderAdapter, max_len: int = 300) -> DenseIndex:
    """Encode every entry's candidate text into one index row, in KB order.

    One ``encode_many`` call encodes the whole KB; its rows equal per-entry
    ``encode`` bit for bit.
    """
    if kb.n == 0:
        raise ValueError("cannot index an empty knowledge base")
    return DenseIndex(
        ids=kb.ids,
        matrix=encoder.encode_many([candidate_text(e, max_len) for e in kb]),
        encoder_fingerprint=encoder_fingerprint(encoder),
    )


def _top_k(scores: np.ndarray, k: int) -> np.ndarray:
    # stable sort on negated scores: ties keep ascending KB position
    return np.argsort(-scores, kind="stable")[:k]


def _shortlist(index: DenseIndex, q: np.ndarray, k: int) -> np.ndarray:
    """Ascending KB positions of every row that can be in the exact top k.

    Each computed dot product of a row with q, by the matrix-vector
    product here or by ``np.dot`` on one row, lies within
    e = gamma_d * |row| * |q| + d * 2**-1074 of the exact product, for any
    summation order and blocking a BLAS kernel may choose, FMA included;
    gamma_d = d*u / (1 - d*u) with u = 2**-53, and the second term covers
    underflow. So the two computed values of one row differ by at most 2B,
    where B bounds every e. Let T be the k-th largest matrix-vector value.
    The k rows at or above T all score at least T - 2B per row, so the k-th
    best per-row score is at least T - 2B, and any row reaching it has a
    matrix-vector value of at least T - 4B. B is doubled to cover the
    rounding of the norms. A product large enough to overflow falls back to
    every row.
    """
    d = index.dim
    scale = index.max_row_norm * float(_norms(q))
    if not scale < _FLOAT_MAX / 4:
        return np.arange(index.n)
    gamma = d * _UNIT_ROUNDOFF / (1.0 - d * _UNIT_ROUNDOFF)
    bound = 2.0 * (gamma * scale + d * _SMALLEST_SUBNORMAL)
    approx = index.matrix @ q
    kth = np.partition(approx, index.n - k)[index.n - k]
    return np.flatnonzero(approx >= kth - 4.0 * bound)


def retrieve(index: DenseIndex, query_embedding: np.ndarray, k: int, query_id: str = "") -> CandidateSet:
    """Exact top-k by dot product; ties broken toward lower KB position."""
    q = np.asarray(query_embedding, dtype=float)
    if q.shape != (index.dim,):
        raise ValueError(f"query dimension {q.shape} does not match index ({index.dim},)")
    if not 1 <= k <= index.n:
        raise ValueError(f"k={k} outside [1, {index.n}]")
    if not np.isfinite(q).all():
        raise ValueError("query embedding holds a non-finite value")
    rows = _shortlist(index, q, k)
    # scored row by row, as the oracle does, so scores keep their exact bits
    scores = np.array([np.dot(index.matrix[i], q) for i in rows])
    top = _top_k(scores, k)
    return CandidateSet(
        query_id=query_id,
        ids=tuple(index.ids[rows[j]] for j in top),
        scores=tuple(float(scores[j]) for j in top),
    )


@dataclass(frozen=True)
class BM25Index:
    """Okapi BM25 over candidate texts, with every posting's weight precomputed.

    The postings are three aligned arrays: ``docs`` (KB positions), ``tf``
    (term frequencies) and ``weights``. ``postings`` maps each term to its
    slice of them; the slices tile the arrays in the dict's order. A
    posting's weight is its whole Okapi contribution,
    ``idf * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * dl / avgdl))``,
    computed once here in that association order, with ``idf`` taken per
    term by ``math.log``, so every score equals the per-posting formula bit
    for bit. Every weight is positive. Query terms are drawn from a
    fixed-width context window centered on the event mention.
    """

    ids: tuple[str, ...]
    postings: dict[str, slice]
    docs: np.ndarray
    tf: np.ndarray
    doc_lens: np.ndarray
    k1: float = BM25_K1
    b: float = BM25_B
    window: int = BM25_WINDOW
    weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.k1 <= 0:
            raise ValueError("k1 must be positive")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError("b must lie in [0, 1]")
        if self.window < 1:
            raise ValueError(f"window must be at least 1, got {self.window}")
        n, k1, b = self.n, self.k1, self.b
        df = [s.stop - s.start for s in self.postings.values()]
        idf = np.repeat([math.log(1.0 + (n - d + 0.5) / (d + 0.5)) for d in df], df)
        tf = self.tf.astype(np.float64)
        dl = self.doc_lens[self.docs].astype(np.float64)
        avgdl = int(self.doc_lens.sum()) / n
        weights = idf * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * dl / avgdl))
        object.__setattr__(self, "weights", weights)

    @property
    def n(self) -> int:
        return len(self.ids)

    def scores(self, terms: Sequence[str]) -> np.ndarray:
        """Per-entry scores, each adding its weights in query-term order from 0.0.

        A repeated term counts each time; an unknown term adds nothing.
        ``bincount`` adds its weights in input order, so concatenating the
        terms' postings in query order keeps the per-posting sums exact.
        """
        rows = [self.postings[term] for term in terms if term in self.postings]
        if not rows:
            return np.zeros(self.n)
        docs = np.concatenate([self.docs[r] for r in rows])
        weights = np.concatenate([self.weights[r] for r in rows])
        return np.bincount(docs, weights=weights, minlength=self.n)


def bm25_build(
    kb: KnowledgeBase, k1: float = BM25_K1, b: float = BM25_B, window: int = BM25_WINDOW
) -> BM25Index:
    """Index candidate texts (title, separator, description) for BM25.

    Each term's id is the position of its first occurrence in the KB's
    token stream; one sort of the (term id, KB position) keys groups the
    postings by term, in first-occurrence order, and counts each one's tf.
    """
    if kb.n == 0:
        raise ValueError("cannot index an empty knowledge base")
    texts = [full_candidate_tokens(entry) for entry in kb]
    doc_lens = np.fromiter(map(len, texts), dtype=np.intp, count=kb.n)
    first: dict[str, int] = {}
    term_ids = np.fromiter(
        map(first.setdefault, chain.from_iterable(texts), count()),
        dtype=np.int64, count=int(doc_lens.sum()),
    )
    keys, tf = np.unique(term_ids * kb.n + np.repeat(np.arange(kb.n), doc_lens),
                         return_counts=True)
    bounds = [*np.flatnonzero(np.diff(keys // kb.n, prepend=-1)).tolist(), len(keys)]
    return BM25Index(
        ids=kb.ids,
        postings={term: slice(a, z) for term, a, z in zip(first, bounds, bounds[1:])},
        docs=keys % kb.n, tf=tf, doc_lens=doc_lens, k1=k1, b=b, window=window,
    )


def bm25_query_terms(index: BM25Index, query: EventQuery) -> list[str]:
    """The mention-centered context window feeding BM25 scoring."""
    return context_window(query.tokens, query.mention, index.window)


def _scored_top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """``_top_k`` for non-negative scores, sorting only the positive ones.

    Positive scores come first, stable-sorted; zero-score positions pad
    the rest in ascending order, as a stable sort of all n would.
    """
    scored = np.flatnonzero(scores)
    top = scored[np.argsort(-scores[scored], kind="stable")[:k]]
    if len(top) < k:
        top = np.concatenate([top, np.flatnonzero(scores == 0.0)[: k - len(top)]])
    return top


def bm25_retrieve(index: BM25Index, query: EventQuery, k: int) -> CandidateSet:
    """Okapi BM25 top-k with the same KB-position tie rule as dense retrieval."""
    if not 1 <= k <= index.n:
        raise ValueError(f"k={k} outside [1, {index.n}]")
    scores = index.scores(bm25_query_terms(index, query))
    order = _scored_top_k(scores, k)
    return CandidateSet(
        query_id=query.query_id,
        ids=tuple(index.ids[i] for i in order.tolist()),
        scores=tuple(scores[order].tolist()),
    )
