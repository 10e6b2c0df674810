"""Training loops for the retriever encoder and the cross scorer.

The retriever trains with in-batch negatives: each batch member's gold
candidate is a negative for every other member, and the loss is the mean
cross-entropy of the diagonal over the batch-by-batch logit matrix of dot
products. The cross scorer trains as (k+1)-way classification over
[NIL, c_1..c_k]; synthetic negatives target index 0. Its other rows come
from ``mine_candidates``, which formats each query once, at the scorer's
``SCORER_MAX_LEN`` tokens, both to retrieve the candidates and to train.

Each step is one batched encoder pass: the loss functions send all of a
step's sequences (queries and gold candidates, or queries and their
distinct candidates) through one ``TinyEncoder.forward_batch`` and one
``TinyEncoder.backward``, so the in-batch logits are one matmul. Every
query and every candidate a run uses is serialized and mapped to token
ids once per run, before the first step; the loss functions take those
id rows.

Gradients are analytic (see the encoder modules) and plain SGD applies
them. The embedding gradient is row-sparse, ``(uniq, rows)``, and its
step updates only those rows; every other row would have moved by
``lr * 0.0``, which leaves any value as it is. Both loss functions also
return their gradients so finite differences can audit them directly.

The cross step keeps the bits of a per-example loop: each sum over its
examples runs in example order from 0.0, by ``np.add.accumulate`` and
``np.add.at``, never by numpy's 1-D ``add.reduce`` (pairwise from 8
terms) or Python 3.12's ``sum()`` (compensated).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from itertools import chain
from typing import Callable, Mapping, Sequence

import numpy as np

from .encoders import OOV_TOKEN, TinyEncoder
from .extraction import TaggedQuery
from .formatting import format_query
from .kb import NIL, RETRIEVER_MAX_LEN, SCORER_MAX_LEN, KnowledgeBase
from .neggen import NegativeExample
from .rerank import NIL_PSEUDO_TOKEN, TinyCrossScorer, softmax
from .retrieval import DenseIndex, retrieve_many


class TrainingError(RuntimeError):
    """Training aborted: a non-finite loss, or a parameter left non-finite."""


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer settings for one training run.

    Sequence lengths are not settings: the retriever trains at
    ``RETRIEVER_MAX_LEN`` tokens and the cross scorer at ``SCORER_MAX_LEN``.
    """

    learning_rate: float
    batch_size: int
    epochs: int
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.learning_rate < math.inf or self.batch_size <= 0 or self.epochs <= 0:
            raise ValueError("learning rate must be positive and finite, "
                             "and batch size and epochs positive")

    @classmethod
    def biencoder_defaults(cls) -> "TrainConfig":
        return cls(learning_rate=1e-5, batch_size=48, epochs=15)

    @classmethod
    def crossencoder_defaults(cls) -> "TrainConfig":
        return cls(learning_rate=2e-5, batch_size=6, epochs=20)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class TrainReport:
    """Per-epoch losses plus the run's configuration snapshot."""

    epoch_losses: list[float]
    config: dict
    checkpoint_path: str | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def build_vocab(
    kb: KnowledgeBase,
    tagged: Sequence[TaggedQuery],
    max_len: int = RETRIEVER_MAX_LEN,
    style: str = "args",
) -> list[str]:
    """Deterministic token vocabulary covering candidates, queries, markers.

    Queries are formatted in the ``args`` and ``blink`` styles and in
    ``style``, the style the run trains on, so an ``evelink`` run also
    gets ``[SEP]``; the other styles add no token beyond those two.
    """
    tokens: set[str] = {OOV_TOKEN, NIL_PSEUDO_TOKEN}
    tokens.update(chain.from_iterable(kb.candidate_texts()))
    for query in tagged:
        for query_style in {"args", "blink", style}:
            tokens.update(format_query(query, query_style, max_len))
    return sorted(tokens)


def _sgd_step(params: Mapping[str, np.ndarray], grads: Mapping, lr: float) -> None:
    """``params -= lr * grads``; a ``(rows, grad)`` pair updates only those rows."""
    for name, grad in grads.items():
        if isinstance(grad, tuple):
            rows, grad = grad
            params[name][rows] -= lr * grad
        else:
            params[name] -= lr * grad


def _sgd_epochs(
    params: Mapping[str, np.ndarray],
    n: int,
    cfg: TrainConfig,
    step_loss: Callable[[list[int]], tuple[float, dict[str, np.ndarray]]],
) -> TrainReport:
    """SGD over ``n`` examples: a seeded permutation per epoch, one step per batch.

    ``step_loss`` takes a batch's example positions, as ints, and returns
    its float loss and its gradients. A non-finite loss, or a parameter
    left non-finite by the last step, raises ``TrainingError``. The run is
    one ``np.errstate`` block, so a diverging run reports that error alone,
    without numpy's overflow and invalid-value warnings before it.
    """
    rng = np.random.default_rng(cfg.seed)
    epoch_losses: list[float] = []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(cfg.epochs):
            order = rng.permutation(n).tolist()
            losses = []
            for start in range(0, n, cfg.batch_size):
                loss, grads = step_loss(order[start : start + cfg.batch_size])
                if not math.isfinite(loss):
                    raise TrainingError(
                        f"non-finite loss {loss!r} at epoch {epoch}, step {start // cfg.batch_size}"
                    )
                _sgd_step(params, grads, cfg.learning_rate)
                losses.append(loss)
            epoch_losses.append(float(np.mean(losses)))
        for name, value in params.items():
            if not np.isfinite(value).all():
                raise TrainingError(f"non-finite parameter {name!r} after the last step")
    return TrainReport(epoch_losses=epoch_losses, config=cfg.to_dict())


def biencoder_batch_loss(
    encoder: TinyEncoder,
    query_batches: Sequence[np.ndarray],
    candidate_batches: Sequence[np.ndarray],
) -> tuple[float, dict]:
    """In-batch-negative cross-entropy and its parameter gradients.

    Queries and gold candidates, as id rows, go through one
    ``forward_batch`` and one ``backward``.
    """
    batch = len(query_batches)
    out, cache = encoder.forward_batch([*query_batches, *candidate_batches])
    q_mat, c_mat = out[:batch], out[batch:]
    probs = softmax(q_mat @ c_mat.T)
    diagonal = probs.reshape(-1)[:: batch + 1]  # a view: probs is a new contiguous array
    loss = -np.log(diagonal).sum() / batch
    grad_logits = probs
    diagonal -= 1.0
    grad_logits /= batch
    grads = {}
    encoder.backward(cache, np.concatenate([grad_logits @ c_mat, grad_logits.T @ q_mat]), grads)
    return float(loss), grads


def train_biencoder(
    data: Sequence[tuple[Sequence[str], Sequence[str]]],
    encoder: TinyEncoder,
    cfg: TrainConfig,
) -> TrainReport:
    """Train the shared retriever encoder on (formatted query, gold candidate text) pairs."""
    if len(data) < cfg.batch_size:
        raise ValueError(f"need at least {cfg.batch_size} pairs, got {len(data)}")
    queries = encoder.id_rows([query for query, _ in data])
    golds = encoder.id_rows([gold for _, gold in data])
    return _sgd_epochs(encoder.params(), len(data), cfg, lambda chunk: biencoder_batch_loss(
        encoder, [queries[i] for i in chunk], [golds[i] for i in chunk]
    ))


@dataclass(frozen=True)
class CrossExample:
    """One (k+1)-way classification example for the cross scorer.

    Target 0 means out-of-KB; target i in 1..k points at the i-th
    candidate.
    """

    query_id: str
    query_tokens: tuple[str, ...]
    candidate_ids: tuple[str, ...]
    target: int

    def __post_init__(self) -> None:
        if not 0 <= self.target <= len(self.candidate_ids):
            raise ValueError("target outside [0, k]")


def cross_id_rows(
    encoder: TinyEncoder,
    examples: Sequence[CrossExample],
    kb: KnowledgeBase,
) -> tuple[list[np.ndarray], dict[str, np.ndarray]]:
    """Token ids of each example's query and, by candidate id, of each candidate they name.

    Each distinct candidate id's KB row is serialized once, by
    ``KnowledgeBase.candidate_texts`` at ``SCORER_MAX_LEN`` tokens; an id not
    in ``kb`` is a ``KBError``.
    """
    ids = list(dict.fromkeys(cid for example in examples for cid in example.candidate_ids))
    texts = kb.candidate_texts(SCORER_MAX_LEN, kb.rows(ids))
    queries = encoder.id_rows([example.query_tokens for example in examples])
    return queries, dict(zip(ids, encoder.id_rows(texts)))


def crossencoder_batch_loss(
    scorer: TinyCrossScorer,
    examples: Sequence[CrossExample],
    query_rows: Sequence[np.ndarray],
    candidate_rows: Mapping[str, np.ndarray],
) -> tuple[float, dict]:
    """(k+1)-way cross-entropy over [NIL, candidates] and its gradients.

    ``query_rows[i]`` holds the token ids of the query of ``examples[i]``,
    and ``candidate_rows`` those of every candidate id (``cross_id_rows``).
    The step's queries and its distinct candidates go through one
    ``forward_batch`` and one ``backward``, so a candidate that several
    examples share is encoded once.
    """
    encoder = scorer.encoder
    nil_unit, nil_norm = scorer.nil_unit()
    scale = float(scorer.scale[0])
    batch, dim = len(examples), encoder.dim
    lists = [example.candidate_ids for example in examples]
    slots = {cid: batch + i for i, cid in enumerate(dict.fromkeys(chain.from_iterable(lists)))}
    out, cache = encoder.forward_batch([*query_rows, *map(candidate_rows.__getitem__, slots)])
    # the examples' candidate slots end to end: example i's are flat[starts[i]:][:sizes[i]]
    sizes = np.fromiter(map(len, lists), np.intp, count=batch)
    flat = np.fromiter(map(slots.__getitem__, chain.from_iterable(lists)), np.intp)
    starts = sizes.cumsum() - sizes
    # per example: its loss, its scale gradient, then its NIL-unit gradient
    terms = np.empty((batch, 2 + dim))
    candidate_terms = np.empty((len(flat), dim))
    grad_out = np.zeros_like(out)
    # Each example's terms, for all examples of one candidate count at once: a
    # stacked matmul rounds as each example's own matmul does.
    for k in set(sizes.tolist()):
        members = np.flatnonzero(sizes == k)
        at = starts[members, None] + np.arange(k)
        q = out[members]
        nil_rows = np.broadcast_to(nil_unit, (len(members), 1, dim))
        partners = np.concatenate([nil_rows, out[flat[at]]], axis=1)
        raw = np.matmul(partners, q[:, :, None])[:, :, 0]
        probs = softmax(scale * raw)
        gold = (np.arange(len(members)), [examples[i].target for i in members])
        terms[members, 0] = -np.log(probs[gold])
        grad_logits = probs
        grad_logits[gold] -= 1.0
        grad_logits /= batch
        terms[members, 1] = np.matmul(grad_logits[:, None, :], raw[:, :, None])[:, 0, 0]
        terms[members, 2:] = (scale * grad_logits[:, 0])[:, None] * q
        grad_out[members] += scale * np.matmul(grad_logits[:, None, :], partners)[:, 0]
        candidate_terms[at] = scale * (grad_logits[:, 1:, None] * q[:, None, :])
    # Sums in example order: accumulate and add.at add one row after another, and
    # 0.0 + turns a sum of -0.0 terms into the +0.0 that a sum from 0.0 gives.
    sums = 0.0 + np.add.accumulate(terms)[-1]
    np.add.at(grad_out, flat, candidate_terms)
    grad_nil_unit = sums[2:]
    grads = {"nil": 0.0 + (grad_nil_unit - nil_unit * (nil_unit @ grad_nil_unit)) / nil_norm,
             "scale": sums[1:2]}
    encoder.backward(cache, grad_out, grads)
    return float(sums[0] / batch), grads


def mine_candidates(
    queries: Sequence[TaggedQuery],
    index: DenseIndex,
    encoder,
    k: int = 10,
    style: str = "args",
) -> list[CrossExample]:
    """Scorer training rows for labeled queries: top-k retrieval, then the target.

    Each query is formatted once, at ``SCORER_MAX_LEN`` tokens; that row is
    both what retrieval encodes and the example's ``query_tokens``. An
    in-KB gold that misses the top k takes the place of the last-ranked
    candidate, and the target points at the gold. A NIL-gold query keeps
    its candidates and targets index 0.
    """
    rows = [format_query(q, style, SCORER_MAX_LEN) for q in queries]
    results = retrieve_many(index, encoder.encode_many(rows), k, [q.base.query_id for q in queries])
    examples: list[CrossExample] = []
    for query, row, result in zip(queries, rows, results):
        gold, ids = query.base.gold, result.ids
        target = 0
        if gold != NIL:
            if gold not in ids:
                ids = (*ids[:-1], gold)
            target = ids.index(gold) + 1
        examples.append(CrossExample(query.base.query_id, tuple(row), ids, target))
    return examples


def apply_kb_pruning(
    queries: Sequence[TaggedQuery],
    pruned: Sequence[NegativeExample],
    index: DenseIndex,
) -> tuple[list[TaggedQuery], DenseIndex]:
    """Training queries and mining index of the KB-pruning baseline.

    Each KB-pruning negative replaces its origin query with its NIL
    relabeling, so no query trains toward both NIL and its old gold, and
    the entries of the pruned labels leave the index.
    """
    if not pruned:
        return list(queries), index
    origins = {n.origin_query_id for n in pruned}
    labels = {q.base.gold for q in queries if q.base.query_id in origins}
    kept = [q for q in queries if q.base.query_id not in origins]
    rows = [i for i, entry_id in enumerate(index.ids) if entry_id not in labels]
    ids = tuple(index.ids[i] for i in rows)
    smaller = DenseIndex(ids, index.matrix[rows], index.encoder_fingerprint)
    return kept + [n.generated for n in pruned], smaller


def negative_examples(
    negatives: Sequence[NegativeExample],
    style: str = "args",
) -> list[CrossExample]:
    """Scorer training rows for synthetic negatives: target is always NIL."""
    rows: list[CrossExample] = []
    for negative in negatives:
        rows.append(
            CrossExample(
                query_id=negative.generated.base.query_id,
                query_tokens=tuple(format_query(negative.generated, style, SCORER_MAX_LEN)),
                candidate_ids=negative.paired_candidate_ids,
                target=0,
            )
        )
    return rows


def train_crossencoder(
    positives: Sequence[CrossExample],
    negatives: Sequence[NegativeExample],
    scorer: TinyCrossScorer,
    cfg: TrainConfig,
    kb: KnowledgeBase,
    style: str = "args",
) -> TrainReport:
    """Train the cross scorer on interleaved in-KB and out-of-KB rows.

    The example order is canonicalized before the seeded shuffle, so it
    depends only on cfg.seed, never on insertion order.
    """
    rows = list(positives) + negative_examples(negatives, style)
    if not rows:
        raise ValueError("no training examples")
    rows.sort(key=lambda r: r.query_id)
    queries, candidates = cross_id_rows(scorer.encoder, rows, kb)
    return _sgd_epochs(scorer.params(), len(rows), cfg, lambda chunk: crossencoder_batch_loss(
        scorer, [rows[i] for i in chunk], [queries[i] for i in chunk], candidates
    ))
