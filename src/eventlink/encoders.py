"""Text-encoder adapters mapping token sequences to unit vectors.

The package ships one adapter, a tiny trainable encoder (embedding table,
mean pool, affine map, L2 normalization) whose analytic gradients back the
desk-scale training loops; seeded and untrained, it also serves tests as
a fixture encoder. It emits unit-norm vectors, so dot product equals
cosine everywhere downstream; a zero vector that would have to be
normalized raises ``DegenerateNormError`` instead of NaN.

Every adapter has ``encode`` for one sequence and ``encode_many`` for a
list of them. ``encode_many(rows)`` equals ``np.stack([encode(r) for r in
rows])`` bit for bit, so index building, the query lists of ``retrieve``,
``link``, candidate mining and negative pairing, and cross scoring's
queries and candidates encode in one call each, and goldens and oracles
that recompute rows one at a time still pin every bit. ``forward`` of
``TinyEncoder`` serves ``encode``; ``encode_many`` stacks its ``gemv`` and
``ddot`` in ``np.matmul``, which hands each item to the same kernel.

Training runs on batched kernels over token ids that the trainers map
once per run (``TinyEncoder.id_rows``): ``TinyEncoder.forward_batch``
encodes a whole step's id rows through one bag-count matrix over the
step's distinct ids, and ``TinyEncoder.backward`` turns that batch cache
into every parameter gradient with a few matmuls. The embedding gradient
is row-sparse, ``(uniq, rows)``: the step's distinct ids and one gradient
row each, so no step touches the rest of the table. The bag and affine
matmuls are ``gemm`` calls, which block and order sums their own way, so
these kernels round differently from ``forward`` and serve training only.

Adapters may sub-tokenize internally but must treat marker tokens as
atomic. ``encode`` is safe for concurrent calls on frozen parameters.
"""

from __future__ import annotations

import json
from itertools import chain, repeat
from typing import Protocol, Sequence

import numpy as np

from . import artifacts

OOV_TOKEN = "[OOV]"

CHECKPOINT_VERSION = 1


class DegenerateNormError(ValueError):
    """A vector that must be L2-normalized has zero norm."""


class EncoderAdapter(Protocol):
    dim: int

    def encode(self, tokens: Sequence[str]) -> np.ndarray: ...

    def encode_many(self, rows: Sequence[Sequence[str]]) -> np.ndarray:
        """``(len(rows), dim)``, equal bit for bit to stacking ``encode`` of each row."""


class TinyEncoder:
    """Trainable bag encoder: token embeddings, mean pool, affine, L2 norm.

    Unknown tokens map to the ``[OOV]`` embedding. Parameters live in
    float64 numpy arrays. ``forward`` encodes one sequence;
    ``forward_batch`` encodes many id rows and returns the cache from which
    ``backward`` makes the analytic gradients the training loops use.
    """

    def __init__(
        self,
        vocab: Sequence[str],
        dim: int,
        seed: int | None = 0,
        rng: np.random.Generator | None = None,
    ):
        if dim < 2:
            raise ValueError("dim must be at least 2")
        vocab = list(dict.fromkeys(vocab))
        if OOV_TOKEN not in vocab:
            vocab.append(OOV_TOKEN)
        self.vocab = vocab
        self.dim = dim
        self._ids = {token: i for i, token in enumerate(vocab)}
        self._oov = self._ids[OOV_TOKEN]
        if rng is None:
            rng = np.random.default_rng(seed)
        self.embed = rng.normal(0.0, 1.0 / np.sqrt(dim), (len(vocab), dim))
        self.weight = np.eye(dim) + rng.normal(0.0, 0.01, (dim, dim))
        self.bias = np.zeros(dim)

    def token_ids(self, tokens: Sequence[str]) -> list[int]:
        return [self._ids.get(t, self._oov) for t in tokens]

    def id_rows(self, rows: Sequence[Sequence[str]]) -> list[np.ndarray]:
        """The token ids of every row as an ``np.intp`` array, the input of ``forward_batch``."""
        return [np.array(self.token_ids(row), dtype=np.intp) for row in rows]

    def params(self) -> dict[str, np.ndarray]:
        return {"embed": self.embed, "weight": self.weight, "bias": self.bias}

    def zero_grads(self) -> dict[str, np.ndarray]:
        """Zeroed dense gradients; ``backward`` sets the row-sparse ``embed`` one."""
        return {"weight": np.zeros_like(self.weight), "bias": np.zeros_like(self.bias)}

    def forward(self, tokens: Sequence[str]) -> np.ndarray:
        """Encode one sequence (the inference path)."""
        if not tokens:
            raise ValueError("cannot encode an empty token sequence")
        ids = self.token_ids(tokens)
        mean = self.embed[ids].mean(axis=0)
        pre = self.weight @ mean + self.bias
        norm = np.linalg.norm(pre)
        if norm == 0.0:
            raise DegenerateNormError("encoder pre-activation has zero norm")
        return pre / norm

    def forward_batch(self, id_rows: Sequence[np.ndarray]) -> tuple[np.ndarray, dict]:
        """Encode every id row at once: ``(B, dim)`` unit rows and the batch cache.

        ``bag[r, u]`` counts distinct id ``uniq[u]`` in row ``r``, divided
        by the row's length, so ``bag @ embed[uniq]`` mean-pools every row.
        """
        lengths = np.array([len(ids) for ids in id_rows])
        if not lengths.all():
            raise ValueError("cannot encode an empty token sequence")
        uniq, col = distinct_ids(np.concatenate(id_rows), len(self.vocab))
        batch, width = len(id_rows), len(uniq)
        cell = np.repeat(np.arange(batch) * width, lengths) + col
        counts = np.bincount(cell, minlength=batch * width).reshape(batch, width)
        bag = counts / lengths[:, None]
        means = bag @ self.embed[uniq]
        pre = means @ self.weight.T + self.bias
        norms = np.linalg.norm(pre, axis=1)
        if not norms.all():
            raise DegenerateNormError("encoder pre-activation has zero norm")
        out = pre / norms[:, None]
        return out, {"uniq": uniq, "bag": bag, "means": means, "norms": norms, "out": out}

    def backward(self, cache: dict, grad_out: np.ndarray, grads: dict) -> None:
        """Gradients of one ``forward_batch`` given its ``(B, dim)`` output gradients.

        Adds into the dense ``grads`` of ``zero_grads`` and sets
        ``grads["embed"]`` to ``(uniq, rows)``, row ``rows[u]`` being the
        gradient of ``embed[uniq[u]]``. Each row starts from ``0.0``, as a
        sum into a zeroed table does, so a ``-0.0`` gradient is ``+0.0``.
        """
        out, norms = cache["out"], cache["norms"]
        radial = np.einsum("ij,ij->i", out, grad_out)
        grad_pre = (grad_out - out * radial[:, None]) / norms[:, None]
        grads["weight"] += grad_pre.T @ cache["means"]
        grads["bias"] += grad_pre.sum(axis=0)
        grads["embed"] = (cache["uniq"], 0.0 + cache["bag"].T @ (grad_pre @ self.weight))

    def encode(self, tokens: Sequence[str]) -> np.ndarray:
        return self.forward(tokens)

    def encode_many(self, rows: Sequence[Sequence[str]]) -> np.ndarray:
        """Encode every row; equal bit for bit to stacking ``forward`` of each row.

        The mean pool sums position by position over the rows sorted longest
        first, so the rows still running at a position are a prefix, and
        each row adds its embeddings in token order starting from 0.0, as
        ``mean`` does. No padded matrix is built. The affine map and norm are
        stacked matmuls whose ``(d, d) @ (d, 1)`` and ``(1, d) @ (d, 1)`` items
        numpy hands to the ``gemv`` and ``ddot`` of ``forward``, bit for bit.
        """
        lengths = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
        if not lengths.all():
            raise ValueError("cannot encode an empty token sequence")
        flat = np.fromiter(map(self._ids.get, chain.from_iterable(rows), repeat(self._oov)),
                           dtype=np.intp, count=lengths.sum())
        order = np.argsort(-lengths, kind="stable")
        sorted_lengths = lengths[order]
        starts = (np.cumsum(lengths) - lengths)[order]
        # how many rows are longer than each position: a prefix of the sorted rows
        running = np.searchsorted(-sorted_lengths, -np.arange(lengths.max(initial=0)))
        sums = np.zeros((len(rows), self.dim))
        for position, m in enumerate(running):
            sums[:m] += self.embed[flat[starts[:m] + position]]
        means = np.empty_like(sums)
        means[order] = sums / sorted_lengths[:, None]
        pre = np.matmul(self.weight, means[:, :, None])[:, :, 0]
        pre += self.bias
        norms = np.sqrt(np.matmul(pre[:, None, :], pre[:, :, None]))[:, 0, 0]
        if not norms.all():
            raise DegenerateNormError("encoder pre-activation has zero norm")
        return pre / norms[:, None]

    def state_dict(self, array=np.ndarray.tolist) -> dict:
        """The checkpoint state, each parameter array encoded by ``array`` (nested lists)."""
        return {
            "format_version": CHECKPOINT_VERSION,
            "kind": "tiny",
            "dim": self.dim,
            "vocab": list(self.vocab),
            "embed": array(self.embed),
            "weight": array(self.weight),
            "bias": array(self.bias),
        }

    @classmethod
    def from_state_dict(cls, state: dict) -> "TinyEncoder":
        enc = cls.__new__(cls)
        enc.vocab = list(state["vocab"])
        enc.dim = int(state["dim"])
        enc._ids = {token: i for i, token in enumerate(enc.vocab)}
        enc._oov = enc._ids[OOV_TOKEN]
        enc.embed = checkpoint_array(state, "embed", (len(enc.vocab), enc.dim))
        enc.weight = checkpoint_array(state, "weight", (enc.dim, enc.dim))
        enc.bias = checkpoint_array(state, "bias", (enc.dim,))
        return enc


def distinct_ids(ids: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(ids, return_inverse=True)`` for ids in ``[0, size)``, by marking a table."""
    where = np.zeros(size, dtype=np.intp)
    where[ids] = 1
    uniq = np.flatnonzero(where)
    where[uniq] = np.arange(len(uniq))
    return uniq, where[ids]


def checkpoint_array(state: dict, name: str, shape: tuple[int, ...]) -> np.ndarray:
    """``state[name]`` as a float64 array; any shape but ``shape`` is a ``ValueError``."""
    arr = np.array(state[name], dtype=float)
    if arr.shape != shape:
        raise ValueError(f"checkpoint array {name!r} has shape {list(arr.shape)}, "
                         f"expected {list(shape)}")
    return arr


def save_encoder(encoder, path) -> None:
    """Write an encoder or scorer checkpoint atomically."""
    artifacts.atomic_write_text(path, json.dumps(encoder.state_dict(), sort_keys=True))


def load_checkpoint(path, builders: dict):
    """Read a checkpoint, embedded ``_manifest`` optional, and build it with ``builders[kind]``.

    Another kind, malformed JSON or a missing or malformed field is a
    ``ValueError`` naming the file.
    """
    def build(state: dict):
        kind = state.get("kind")
        if kind not in builders:
            raise ValueError(f"checkpoint kind {kind!r}, expected one of {sorted(builders)}")
        return builders[kind](state)

    return artifacts.read_document(path, build)


def load_encoder(path):
    return load_checkpoint(path, {
        "tiny": TinyEncoder.from_state_dict,
    })


def _array_digest(arr: np.ndarray) -> dict:
    data = np.ascontiguousarray(arr, dtype="<f8")
    digest = artifacts.digest_bytes(data.tobytes())
    return {"dtype": "<f8", "shape": list(data.shape), "sha256": digest}


def encoder_fingerprint(encoder) -> str:
    """Content hash of an encoder or scorer checkpoint.

    ``json_digest`` of its state with each parameter array given by dtype,
    shape and the sha256 of its ``<f8`` bytes; no float becomes text.
    """
    return artifacts.json_digest(encoder.state_dict(_array_digest))
