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

``DenseIndex.save`` and ``DenseIndex.load`` are the only writer and
reader of the index artifact: one JSON document holding the ids, the
encoder fingerprint, an optional manifest, and the matrix as base64 of its
little-endian float64 bytes, so a round trip restores every bit.
"""

from __future__ import annotations

import base64
import math
from collections import Counter
from dataclasses import dataclass, field
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


@dataclass
class BM25Index:
    """Okapi BM25 statistics over candidate texts.

    Query terms are drawn from a fixed-width context window centered on
    the event mention.
    """

    ids: tuple[str, ...]
    doc_lens: list[int]
    avgdl: float
    postings: dict[str, list[tuple[int, int]]]
    df: dict[str, int]
    k1: float = BM25_K1
    b: float = BM25_B
    window: int = BM25_WINDOW

    def __post_init__(self) -> None:
        if self.k1 <= 0:
            raise ValueError("k1 must be positive")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError("b must lie in [0, 1]")

    @property
    def n(self) -> int:
        return len(self.ids)

    def idf(self, term: str) -> float:
        df = self.df.get(term, 0)
        if df == 0:
            return 0.0
        return math.log(1.0 + (self.n - df + 0.5) / (df + 0.5))

    def scores(self, terms: Sequence[str]) -> np.ndarray:
        out = np.zeros(self.n)
        for term in terms:
            idf = self.idf(term)
            if idf == 0.0:
                continue
            for doc, tf in self.postings[term]:
                norm = tf + self.k1 * (1.0 - self.b + self.b * self.doc_lens[doc] / self.avgdl)
                out[doc] += idf * tf * (self.k1 + 1.0) / norm
        return out


def bm25_build(
    kb: KnowledgeBase, k1: float = BM25_K1, b: float = BM25_B, window: int = BM25_WINDOW
) -> BM25Index:
    """Index candidate texts (title, separator, description) for BM25."""
    if kb.n == 0:
        raise ValueError("cannot index an empty knowledge base")
    doc_lens: list[int] = []
    postings: dict[str, list[tuple[int, int]]] = {}
    for position, entry in enumerate(kb):
        tokens = full_candidate_tokens(entry)
        doc_lens.append(len(tokens))
        for term, tf in Counter(tokens).items():
            postings.setdefault(term, []).append((position, tf))
    df = {term: len(rows) for term, rows in postings.items()}
    avgdl = sum(doc_lens) / len(doc_lens)
    return BM25Index(
        ids=kb.ids, doc_lens=doc_lens, avgdl=avgdl, postings=postings, df=df,
        k1=k1, b=b, window=window,
    )


def bm25_query_terms(index: BM25Index, query: EventQuery) -> list[str]:
    """The mention-centered context window feeding BM25 scoring."""
    return context_window(query.tokens, query.mention, index.window)


def bm25_retrieve(index: BM25Index, query: EventQuery, k: int) -> CandidateSet:
    """Okapi BM25 top-k with the same KB-position tie rule as dense retrieval."""
    if not 1 <= k <= index.n:
        raise ValueError(f"k={k} outside [1, {index.n}]")
    scores = index.scores(bm25_query_terms(index, query))
    order = _top_k(scores, k)
    return CandidateSet(
        query_id=query.query_id,
        ids=tuple(index.ids[i] for i in order),
        scores=tuple(float(scores[i]) for i in order),
    )
