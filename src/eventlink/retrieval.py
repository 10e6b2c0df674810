"""First-stage retrieval: exact dense top-k by dot product, plus Okapi BM25.

Both retrievers rank every KB entry and break score ties by KB position,
so any (index, query, k) triple has exactly one correct answer. Search is
exact; no approximation is applied at any scale this package targets. No
caller passes a setting: index rows encode candidate texts at
``kb.RETRIEVER_MAX_LEN`` tokens, and BM25 runs at ``BM25_K1``, ``BM25_B``
and ``BM25_WINDOW``.

Dense search is the exact flat inner-product search of FAISS
``IndexFlatIP`` (arXiv 1702.08734), done in numpy and in two steps. Queries
go in blocks sized so that a block's scores fill at most 2 MB; one matrix
product of a block with the whole index, whose rounding error has a proven
bound, picks for each query a shortlist certain to hold the true top k.
Only the shortlist is then scored by the per-row dot product that every
candidate file is pinned to, and sorted by (score descending, KB position).

BM25 follows BM25S (arXiv 2407.03618): each (term, entry) Okapi
contribution is computed once, when the index is built, and stored in
per-term posting arrays. Queries are scored in blocks sized as the dense
ones are, and a block's scores are one ``bincount`` over its queries'
postings into ``query * n + entry`` bins; top-k then sorts only the
entries of each query that scored. The weights keep the association order
of the per-posting formula and the sums its addition order, so every
score equals that formula bit for bit.

``DenseIndex.save`` and ``DenseIndex.load`` are the only writer and
reader of the index artifact. The file is one line of JSON holding the ids,
the encoder fingerprint, an optional manifest and the matrix's dtype and
shape, then the matrix's raw little-endian float64 bytes
(``artifacts.write_framed``), so a round trip restores every bit. ``save``
writes the header line and then the matrix's own buffer; ``load`` reads
the body once into an aligned array and views it as the matrix, with no
copy. ``DenseIndex`` checks the matrix for finiteness and takes its
largest row norm in blocks of ``CACHE_ELEMENTS`` values, which stay in
cache, so no whole-matrix temporary is built.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from itertools import chain, count
from typing import Sequence

import numpy as np

from . import artifacts
from .artifacts import typed
from .encoders import CACHE_ELEMENTS, EncoderAdapter, encoder_fingerprint
from .extraction import EventQuery
from .formatting import context_window
from .kb import NIL, RETRIEVER_MAX_LEN, KnowledgeBase, id_refusal

BM25_K1 = 1.2
BM25_B = 0.75
BM25_WINDOW = 16

INDEX_FORMAT_VERSION = 3
INDEX_DTYPE = "<f8"
_REBUILD = f"rebuild it with `eventlink index` (format_version {INDEX_FORMAT_VERSION})"

_UNIT_ROUNDOFF = 2.0 ** -53
_SMALLEST_SUBNORMAL = float(np.finfo(float).smallest_subnormal)
_FLOAT_MAX = float(np.finfo(float).max)
# Caps the (block, n) score matrix of one block of queries at 2**18 float64
# values (2 MB), so peak memory stays flat at any index size.
_BLOCK_ELEMENTS = 2 ** 18
# Caps each side of a pair_dots row gather at the encoders' cache block, so
# gathers stay in cache; 2 MB ones were paged in afresh per call, 3x slower.
_GATHER_ELEMENTS = CACHE_ELEMENTS


@dataclass(frozen=True, slots=True)
class CandidateSet:
    """Ranked top-k entries for one query: distinct ids, finite non-increasing scores."""

    query_id: str
    ids: tuple[str, ...]
    scores: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "ids", tuple(self.ids))
        object.__setattr__(self, "scores", tuple(map(float, self.scores)))
        if len(self.ids) != len(self.scores):
            raise ValueError("ids and scores must align")
        if len(set(self.ids)) != len(self.ids):
            raise ValueError("candidate ids must be distinct")
        check_finite_scores(self.query_id, self.scores)
        if any(map(operator.lt, self.scores, self.scores[1:])):
            raise ValueError("scores must be non-increasing")

    def __len__(self) -> int:
        return len(self.ids)

    def to_line(self) -> str:
        """This set's JSON line, as ``json.dumps(record, sort_keys=True)`` writes it.

        The record is ``{"query_id": ..., "candidates": [{"id": ..., "score": ...}, ...]}``.
        """
        ids, scores = map(artifacts.json_string, self.ids), artifacts.json_floats(self.scores)
        candidates = ", ".join([f'{{"id": {i}, "score": {s}}}' for i, s in zip(ids, scores)])
        return f'{{"candidates": [{candidates}], "query_id": {artifacts.json_string(self.query_id)}}}'

    @classmethod
    def from_record(cls, record: dict) -> "CandidateSet":
        """The set of a ``to_line`` line's record: query id and ids JSON strings, scores JSON numbers."""
        candidates = typed(record["candidates"], list, "candidates")
        return cls(ids=tuple(typed(c["id"], str, "candidate id") for c in candidates),
                   scores=tuple(typed(c["score"], float, "candidate score") for c in candidates),
                   query_id=typed(record["query_id"], str, "query id"))


def check_finite_scores(query_id: str, scores: tuple[float, ...]) -> None:
    """A ``ValueError`` naming ``query_id`` unless every score is finite: no reader accepts another."""
    if not all(map(math.isfinite, scores)):
        raise ValueError(f"query {query_id!r} has a non-finite score")


@dataclass(frozen=True)
class DenseIndex:
    """Entry ids aligned with a finite (n, d) embedding matrix.

    ``max_row_norm`` is computed once here; it sizes the shortlist bound
    of every query. The matrix is checked and its row norms taken in
    blocks of at most ``CACHE_ELEMENTS`` values; each row's norm does not
    depend on its block, so the maximum equals ``_norms(matrix).max()``
    bit for bit.
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
        step, max_row_norm = max(1, CACHE_ELEMENTS // self.dim), 0.0
        for lo in range(0, self.n, step):
            block = self.matrix[lo:lo + step]
            if not np.isfinite(block).all():
                raise ValueError("matrix holds a non-finite value")
            max_row_norm = max(max_row_norm, float(_norms(block).max()))
        object.__setattr__(self, "max_row_norm", max_row_norm)

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[1])

    def save(self, path, manifest: dict | None = None) -> None:
        """Write the index atomically, embedding ``manifest`` if given: the header line, then
        the matrix's own buffer (no copy when it is already C-contiguous ``<f8``)."""
        header = {
            "format_version": INDEX_FORMAT_VERSION,
            "encoder_fingerprint": self.encoder_fingerprint,
            "ids": list(self.ids),
            "matrix": {"dtype": INDEX_DTYPE, "shape": [self.n, self.dim]},
        }
        body = np.ascontiguousarray(self.matrix, dtype=INDEX_DTYPE)
        artifacts.write_framed(path, header, body, manifest)

    @classmethod
    def load(cls, path) -> "DenseIndex":
        """Read an index written by ``save``; a malformed file raises ValueError naming it.

        Its ``ids`` must be a JSON list of distinct KB ids: an empty id, ``NIL`` and a repeat are
        refused in the KB's words; its ``encoder_fingerprint`` must be a JSON string. The matrix
        is a view of the aligned body that ``artifacts.read_framed`` reads.
        """
        return artifacts.read_framed(path, cls._from_parts, f"no index header line; {_REBUILD}")

    @classmethod
    def _from_parts(cls, header: dict, body: np.ndarray) -> "DenseIndex":
        version = header["format_version"]
        if type(version) is not int or version != INDEX_FORMAT_VERSION:
            raise ValueError(f"index format_version {version!r} is not supported; {_REBUILD}")
        ids = header["ids"]
        if type(ids) is not list or not all(type(i) is str for i in ids):
            raise ValueError("index ids must be a JSON list of strings")
        distinct = set(ids)
        if "" in distinct or NIL in distinct:
            raise ValueError(next(filter(None, map(id_refusal, ids))))
        if len(distinct) < len(ids):
            first = {}
            repeated = next(i for row, i in enumerate(ids) if first.setdefault(i, row) != row)
            raise ValueError(f"duplicate entry id {repeated!r}")
        block = header["matrix"]
        if block["dtype"] != INDEX_DTYPE:
            raise ValueError(f"matrix dtype {block['dtype']!r} is not {INDEX_DTYPE!r}")
        shape = block["shape"]
        if not (isinstance(shape, list) and len(shape) == 2
                and all(type(x) is int and x >= 0 for x in shape)):
            raise ValueError(f"matrix shape {shape!r} is not a pair of sizes")
        n, d = shape
        if len(body) != n * d * 8:
            raise ValueError(f"matrix shape {shape} needs {n * d * 8} bytes, found {len(body)}")
        fingerprint = typed(header["encoder_fingerprint"], str, "index encoder_fingerprint")
        matrix = body.view(INDEX_DTYPE).reshape(n, d).astype(np.float64, copy=False)
        return cls(ids=tuple(ids), matrix=matrix, encoder_fingerprint=fingerprint)


def _norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis, scaled first so that no square under- or overflows.

    A norm beyond the float range comes out as inf. The square root of
    ``add.reduce`` of the squares is what ``np.linalg.norm(axis=-1)`` computes,
    bit for bit, without its copy of ``x.conj()``.
    """
    scale = np.abs(x).max(axis=-1, keepdims=True)
    scale[scale == 0.0] = 1.0
    with np.errstate(over="ignore"):
        squares = x / scale
        squares *= squares
        return scale[..., 0] * np.sqrt(np.add.reduce(squares, axis=-1))


def build_index(kb: KnowledgeBase, encoder: EncoderAdapter) -> DenseIndex:
    """Encode every entry's candidate text into one index row, in KB order.

    One ``encode_many`` call encodes the whole KB, each text cut at
    ``RETRIEVER_MAX_LEN`` tokens; its rows equal per-entry ``forward`` bit for bit.
    """
    return DenseIndex(
        ids=kb.ids,
        matrix=encoder.encode_many(kb.candidate_texts(RETRIEVER_MAX_LEN)),
        encoder_fingerprint=encoder_fingerprint(encoder),
    )


def pair_dots(left: np.ndarray, right: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """``np.dot(left[i[p]], right[j[p]])`` for every p, bit for bit, gathering at most
    ``_GATHER_ELEMENTS`` values a side: numpy hands each item of a stacked
    ``(1, d) @ (d, 1)`` matmul to that same ``ddot``.
    """
    out = np.empty(len(i))
    step = max(1, _GATHER_ELEMENTS // left.shape[1])
    for s in range(0, len(out), step):
        at = slice(s, s + step)
        out[at] = np.matmul(left[i[at], None], right[j[at], :, None])[:, 0, 0]
    return out


def _shortlist(index: DenseIndex, block: np.ndarray, k: int) -> list[np.ndarray]:
    """For each query row of ``block``, the ascending KB positions of every
    row that can be in its exact top k.

    Each computed dot product of a row with a query q, by the block's matrix
    product here or by ``np.dot`` on one row, lies within
    e = gamma_d * |row| * |q| + d * 2**-1074 of the exact product, for any
    summation order and blocking a BLAS kernel may choose, FMA included;
    gamma_d = d*u / (1 - d*u) with u = 2**-53, and the second term covers
    underflow. So the two computed values of one row differ by at most 2B,
    where B bounds every e of q. Let T be the k-th largest value in q's row
    of the matrix product. The k rows at or above T all score at least
    T - 2B per row, so the k-th best per-row score is at least T - 2B, and
    any row reaching it has a matrix-product value of at least T - 4B. B is
    doubled to cover the rounding of the norms. A query whose products can
    overflow stays out of the matrix product and falls back to every row.
    """
    d = index.dim
    with np.errstate(over="ignore"):
        scales = index.max_row_norm * _norms(block)
    exact = scales < _FLOAT_MAX / 4
    gamma = d * _UNIT_ROUNDOFF / (1.0 - d * _UNIT_ROUNDOFF)
    bounds = 2.0 * (gamma * scales[exact] + d * _SMALLEST_SUBNORMAL)
    approx = block[exact] @ index.matrix.T
    kth = np.partition(approx, index.n - k, axis=1)[:, index.n - k]
    kept = iter(approx >= (kth - 4.0 * bounds)[:, None])
    return [np.flatnonzero(next(kept)) if e else np.arange(index.n) for e in exact]


def retrieve_many(
    index: DenseIndex, embeddings: np.ndarray, k: int, query_ids: Sequence[str]
) -> list[CandidateSet]:
    """Exact top-k by dot product for each row of ``embeddings``, named by ``query_ids``.

    Ties break toward lower KB position. Queries are shortlisted in blocks
    of ``_BLOCK_ELEMENTS // index.n`` rows, one matrix product per block. A
    non-finite query row is a ``ValueError``, and so is a score that is not
    finite, naming its query: a finite index row of huge norm can give one,
    and no reader of candidate files accepts it.
    """
    queries = np.asarray(embeddings, dtype=float)
    if queries.ndim != 2 or queries.shape[1] != index.dim:
        raise ValueError(
            f"query dimension {queries.shape[1:]} does not match index ({index.dim},)")
    if len(query_ids) != len(queries):
        raise ValueError(f"{len(query_ids)} query ids for {len(queries)} query embeddings")
    if not 1 <= k <= index.n:
        raise ValueError(f"k={k} outside [1, {index.n}]")
    if not np.isfinite(queries).all():
        raise ValueError("query embedding holds a non-finite value")
    step = max(1, _BLOCK_ELEMENTS // index.n)
    results = []
    for start in range(0, len(queries), step):
        block = queries[start:start + step]
        shortlists = _shortlist(index, block, k)
        sizes = np.fromiter(map(len, shortlists), dtype=np.intp, count=len(block))
        owner, rows = np.repeat(np.arange(len(block)), sizes), np.concatenate(shortlists)
        with np.errstate(over="ignore", invalid="ignore"):  # refused just below
            scores = pair_dots(block, index.matrix, owner, rows)
        finite = np.isfinite(scores)
        if not finite.all():
            query_id = query_ids[start + owner[finite.argmin()]]
            raise ValueError(f"query {query_id!r} has a non-finite score")
        # per query, score descending (-0.0 == 0.0), ties to the lower KB position
        top = np.lexsort((rows, -scores, owner))[(np.cumsum(sizes) - sizes)[:, None] + np.arange(k)]
        results += (CandidateSet(query_id, tuple(index.ids[r] for r in rows[picks].tolist()),
                                 tuple(scores[picks].tolist()))
                    for query_id, picks in zip(query_ids[start:start + step], top))
    return results


def retrieve(index: DenseIndex, query_embedding: np.ndarray, k: int, query_id: str = "") -> CandidateSet:
    """Exact top-k by dot product for one query: ``retrieve_many`` of a one-row block.

    The one-row reference of the tests, wrapped by name in ``bench/tracing.py``; kept here, as
    moving it beside the tests would not make less code.
    """
    q = np.asarray(query_embedding, dtype=float)
    return retrieve_many(index, q[None], k, [query_id])[0]


@dataclass(frozen=True)
class BM25Index:
    """Okapi BM25 over candidate texts, with every posting's weight precomputed.

    The postings are three aligned arrays: ``docs`` (KB positions), ``tf``
    (term frequencies) and ``weights``. ``postings`` maps each term to its
    slice of them; the slices tile the arrays in the dict's order. A
    posting's weight is its whole Okapi contribution,
    ``idf * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * dl / avgdl))``
    with ``k1 = BM25_K1`` and ``b = BM25_B``, computed once here in that
    association order, with ``idf`` taken per term by ``math.log``, so every
    score equals the per-posting formula bit for bit. Every weight is
    positive. Query terms are drawn from a context window of
    ``BM25_WINDOW`` tokens centered on the event mention.
    """

    ids: tuple[str, ...]
    postings: dict[str, slice]
    docs: np.ndarray
    tf: np.ndarray
    doc_lens: np.ndarray
    weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n, k1, b = self.n, BM25_K1, BM25_B
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
        """Per-entry scores of one query: row 0 of ``block_scores([terms])``."""
        return self.block_scores([terms])[0]

    def block_scores(self, queries: Sequence[Sequence[str]]) -> np.ndarray:
        """``(len(queries), n)`` scores, each adding its weights in query-term order from 0.0.

        A repeated term counts each time; an unknown term adds nothing. One
        ``bincount`` over ``query * n + entry`` bins adds its weights in
        input order, and the postings go in (query, term) order, so every
        bin keeps the per-posting sum exact.
        """
        hits = [[self.postings[term] for term in terms if term in self.postings]
                for terms in queries]
        found = list(chain.from_iterable(hits))
        starts = np.fromiter(map(operator.attrgetter("start"), found), np.intp, len(found))
        sizes = np.fromiter(map(operator.attrgetter("stop"), found), np.intp, len(found)) - starts
        ends = np.cumsum(sizes)
        # the postings of each hit, hit after hit, and the first bin of each one's query
        at = np.arange(ends[-1] if found else 0) + np.repeat(starts - (ends - sizes), sizes)
        first_bins = np.arange(0, len(queries) * self.n, self.n)
        bins = self.docs[at] + np.repeat(np.repeat(first_bins, list(map(len, hits))), sizes)
        scores = np.bincount(bins, weights=self.weights[at], minlength=len(queries) * self.n)
        return scores.reshape(len(queries), self.n)


def bm25_build(kb: KnowledgeBase) -> BM25Index:
    """Index candidate texts (title, separator, description) for BM25.

    Each term's id is the position of its first occurrence in the KB's
    token stream; one sort of the (term id, KB position) keys groups the
    postings by term, in first-occurrence order, and counts each one's tf.
    """
    texts = kb.candidate_texts()
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
        docs=keys % kb.n, tf=tf, doc_lens=doc_lens,
    )


def bm25_query_terms(query: EventQuery) -> list[str]:
    """The mention-centered context window of ``BM25_WINDOW`` tokens feeding BM25 scoring."""
    return context_window(query.tokens, query.mention, BM25_WINDOW)


def _scored_top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Positions of the k best non-negative scores, ties to the lower position.

    Only the positive scores are sorted, stably; zero-score positions pad
    the rest in ascending order, as a stable sort of all n would. Where more
    than 4k entries scored, those below the k-th best score are dropped
    first, by one partition, as they cannot be in the top k; a sort of
    fewer costs less than the partition.
    """
    scored = np.flatnonzero(scores)
    if len(scored) > 4 * k:
        values = scores[scored]
        scored = scored[values >= np.partition(values, len(values) - k)[len(values) - k]]
    top = scored[np.argsort(-scores[scored], kind="stable")[:k]]
    if len(top) < k:
        top = np.concatenate([top, np.flatnonzero(scores == 0.0)[: k - len(top)]])
    return top


def bm25_retrieve_many(index: BM25Index, queries: Sequence[EventQuery], k: int) -> list[CandidateSet]:
    """Okapi BM25 top-k for each query, with the same KB-position tie rule as dense retrieval.

    Queries are scored in blocks of ``_BLOCK_ELEMENTS // index.n``, one
    ``BM25Index.block_scores`` call per block.
    """
    if not 1 <= k <= index.n:
        raise ValueError(f"k={k} outside [1, {index.n}]")
    step = max(1, _BLOCK_ELEMENTS // index.n)
    results = []
    for start in range(0, len(queries), step):
        block = queries[start:start + step]
        for query, scores in zip(block, index.block_scores(list(map(bm25_query_terms, block)))):
            top = _scored_top_k(scores, k)
            results.append(CandidateSet(query.query_id, tuple(map(index.ids.__getitem__, top.tolist())),
                                        tuple(scores[top].tolist())))
    return results


def bm25_retrieve(index: BM25Index, query: EventQuery, k: int) -> CandidateSet:
    """Okapi BM25 top-k for one query: ``bm25_retrieve_many`` of a one-query block.

    The one-query form of the tests, wrapped by name in ``bench/tracing.py``.
    """
    return bm25_retrieve_many(index, [query], k)[0]
