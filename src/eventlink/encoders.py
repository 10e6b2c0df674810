"""Text-encoder adapters mapping token sequences to unit vectors.

The package ships one adapter, a tiny trainable encoder (embedding table,
mean pool, affine map, L2 normalization) whose analytic gradients back the
desk-scale training loops; seeded and untrained, it also serves tests as
a fixture encoder. It emits unit-norm vectors, so dot product equals
cosine everywhere downstream; a vector that would have to be normalized
but whose norm is zero, beyond the float range or NaN raises
``DegenerateNormError`` instead of giving NaN or a row of zeros.

Every adapter has ``encode_many`` for a list of sequences. On
``TinyEncoder`` it equals ``np.stack([forward(r) for r in rows])`` bit for
bit, ``forward`` being the per-row reference, so index building, the query
lists of ``retrieve``, ``link``, candidate mining and negative pairing, and
cross scoring's queries and candidates encode in one call each, and
goldens and oracles that recompute rows one at a time still pin every bit:
``encode_many`` stacks the ``gemv`` and ``ddot`` of ``forward`` in
``np.matmul``, which hands each item to the same kernel. It works in
blocks of rows holding at most ``CACHE_ELEMENTS`` values, which stay in
cache: one ``(n, d)`` temporary of the 10k-entry KB is 5 MB, read from
memory afresh on each whole-matrix pass.

Training runs on batched kernels over token ids that the trainers map
once per run (``TinyEncoder.id_rows``): ``TinyEncoder.forward_batch``
encodes a whole step's id rows through one bag-count matrix over the
step's distinct ids, and ``TinyEncoder.backward`` turns that batch cache
into every parameter gradient with a few matmuls. The embedding gradient
is row-sparse, ``(uniq, rows)``: the step's distinct ids and one gradient
row each, so no step touches the rest of the table. The bag and affine
matmuls are ``gemm`` calls, which block and order sums their own way, so
these kernels round differently from ``forward`` and serve training only.
``backward`` sets each gradient to ``0.0 + ...``, a sum from 0.0. Sums
that keep example order avoid numpy's 1-D ``add.reduce`` (pairwise from
8 terms) and Python 3.12's ``sum()`` (compensated).

Adapters may sub-tokenize internally but must treat marker tokens as
atomic. ``encode_many`` is safe for concurrent calls on frozen parameters.

A model's ``params()`` lists its arrays, and everything else about its
checkpoint derives from it: ``checkpoint_state`` (version, kind, dim,
vocab and each array), ``save_checkpoint``, and ``load_checkpoint``, which
checks the version and kind before the class builds the model.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import Protocol, Sequence

import numpy as np

from . import artifacts

OOV_TOKEN = "[OOV]"

CHECKPOINT_VERSION = 1

# Values in one block of rows that a kernel works on at a time: 2**15 float64
# values (256 KB) stay in cache, where a whole-matrix temporary is paged in
# afresh on every pass. ``encode_many``, ``retrieval.pair_dots`` and the checks
# of ``retrieval.DenseIndex`` use it.
CACHE_ELEMENTS = 2 ** 15

_DEGENERATE = "encoder pre-activation norm is zero or not finite"


class DegenerateNormError(ValueError):
    """A vector that must be L2-normalized has a norm that is zero, infinite or NaN."""


class EncoderAdapter(Protocol):
    dim: int

    def encode_many(self, rows: Sequence[Sequence[str]]) -> np.ndarray:
        """``(len(rows), dim)`` unit rows, one per token sequence."""


class TinyEncoder:
    """Trainable bag encoder: token embeddings, mean pool, affine, L2 norm.

    Unknown tokens map to the ``[OOV]`` embedding. Parameters live in
    float64 numpy arrays. ``forward`` encodes one sequence;
    ``forward_batch`` encodes many id rows and returns the cache from which
    ``backward`` makes the analytic gradients the training loops use.
    """

    kind = "tiny"

    def __init__(self, vocab: Sequence[str], dim: int, seed: int | np.random.SeedSequence = 0):
        if dim < 2:
            raise ValueError("dim must be at least 2")
        vocab = list(dict.fromkeys(vocab))
        if OOV_TOKEN not in vocab:
            vocab.append(OOV_TOKEN)
        self.vocab = vocab
        self.dim = dim
        self._ids = {token: i for i, token in enumerate(vocab)}
        self._oov = self._ids[OOV_TOKEN]
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

    def forward(self, tokens: Sequence[str]) -> np.ndarray:
        """Encode one sequence: the per-row reference ``encode_many`` equals bit for bit.

        The tests compare against it and ``bench/tracing.py`` wraps it by name; kept here, as
        moving it beside the tests would not make less code.
        """
        if not tokens:
            raise ValueError("cannot encode an empty token sequence")
        ids = self.token_ids(tokens)
        with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN norm is refused below
            mean = self.embed[ids].mean(axis=0)
            pre = self.weight @ mean + self.bias
            norm = np.linalg.norm(pre)
        if not 0.0 < norm < np.inf:
            raise DegenerateNormError(_DEGENERATE)
        return pre / norm

    def forward_batch(self, id_rows: Sequence[np.ndarray]) -> tuple[np.ndarray, dict]:
        """Encode every id row at once: ``(B, dim)`` unit rows and the batch cache.

        ``bag[r, u]`` counts distinct id ``uniq[u]`` in row ``r``, divided
        by the row's length, so ``bag @ embed[uniq]`` mean-pools every row.
        """
        lengths = np.fromiter(map(len, id_rows), np.intp, count=len(id_rows))
        if not lengths.all():
            raise ValueError("cannot encode an empty token sequence")
        uniq, col = distinct_ids(np.concatenate(id_rows), len(self.vocab))
        batch, width = len(id_rows), len(uniq)
        cell = np.repeat(np.arange(0, batch * width, width), lengths) + col
        counts = np.bincount(cell, minlength=batch * width).reshape(batch, width)
        bag = counts / lengths[:, None]
        means = bag @ self.embed[uniq]
        pre = means @ self.weight.T + self.bias
        # the body of np.linalg.norm(pre, axis=1, keepdims=True) without its Python wrapper
        norms = np.sqrt(np.add.reduce(pre * pre, axis=1, keepdims=True))
        if not norms.all():
            raise DegenerateNormError("encoder pre-activation has zero norm")
        out = pre / norms
        return out, {"uniq": uniq, "bag": bag, "means": means, "norms": norms, "out": out}

    def backward(self, cache: dict, grad_out: np.ndarray, grads: dict) -> None:
        """Gradients of one ``forward_batch`` given its ``(B, dim)`` output gradients.

        Sets ``grads["weight"]`` and ``grads["bias"]``, and sets
        ``grads["embed"]`` to ``(uniq, rows)``, row ``rows[u]`` being the
        gradient of ``embed[uniq[u]]``. Each is ``0.0 + ...``: the bits of a
        sum into a zeroed array, so a ``-0.0`` gradient is ``+0.0``.
        """
        out = cache["out"]
        radial = np.einsum("ij,ij->i", out, grad_out)
        grad_pre = (grad_out - out * radial[:, None]) / cache["norms"]
        grads["weight"] = 0.0 + grad_pre.T @ cache["means"]
        grads["bias"] = 0.0 + np.add.reduce(grad_pre, axis=0)
        grads["embed"] = (cache["uniq"], 0.0 + cache["bag"].T @ (grad_pre @ self.weight))

    def encode_many(self, rows: Sequence[Sequence[str]]) -> np.ndarray:
        """Encode every row; equal bit for bit to stacking ``forward`` of each row.

        Rows are sorted longest first and encoded in blocks of at most
        ``CACHE_ELEMENTS`` values (512 rows at dim 64), so a block's sums and
        pre-activations stay in cache: one ``(n, d)`` temporary of the
        10k-entry KB is 5 MB, which each whole-matrix pass reads from memory
        afresh. The ``(n, d)`` output is the only array of all rows. In a
        block, the mean pool sums position by position, so the rows still
        running at a position are a prefix, and each row adds its embeddings
        in token order starting from 0.0, as ``mean`` does; no padded matrix
        is built. The affine map and norm are stacked matmuls whose
        ``(d, d) @ (d, 1)`` and ``(1, d) @ (d, 1)`` items numpy hands to the
        ``gemv`` and ``ddot`` of ``forward``, bit for bit. A block holding a
        norm that is not positive and finite is refused.
        """
        lengths = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
        if not lengths.all():
            raise ValueError("cannot encode an empty token sequence")
        flat = np.fromiter(map(self._ids.get, chain.from_iterable(rows), repeat(self._oov)),
                           dtype=np.intp, count=lengths.sum())
        order = np.argsort(-lengths, kind="stable")
        sorted_lengths = lengths[order]
        starts = (np.cumsum(lengths) - lengths)[order]
        out = np.empty((len(rows), self.dim))
        step = max(1, CACHE_ELEMENTS // self.dim)
        with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN norm is refused below
            for lo in range(0, len(rows), step):
                block_lengths, block_starts = sorted_lengths[lo:lo + step], starts[lo:lo + step]
                # how many rows of the block are longer than each position: a prefix
                running = np.searchsorted(-block_lengths, -np.arange(block_lengths[0]))
                sums = np.zeros((len(block_lengths), self.dim))
                for position, m in enumerate(running.tolist()):
                    sums[:m] += self.embed[flat[block_starts[:m] + position]]
                sums /= block_lengths[:, None]
                pre = np.matmul(self.weight, sums[:, :, None])[:, :, 0]
                pre += self.bias
                norms = np.sqrt(np.matmul(pre[:, None, :], pre[:, :, None]))[:, 0, 0]
                if not 0.0 < norms.min() <= norms.max() < np.inf:  # both NaN if any norm is
                    raise DegenerateNormError(_DEGENERATE)
                pre /= norms[:, None]
                out[order[lo:lo + step]] = pre
        return out

    def state_dict(self, array=np.ndarray.tolist) -> dict:
        return checkpoint_state(self, array)

    @classmethod
    def from_state_dict(cls, state: dict) -> "TinyEncoder":
        vocab, dim = state["vocab"], state["dim"]
        if type(vocab) is not list or not all(type(token) is str for token in vocab):
            raise ValueError("checkpoint vocab is not a list of strings")
        if type(dim) is not int or dim < 2:
            raise ValueError(f"checkpoint dim {dim!r} is not an integer of at least 2")
        enc = cls.__new__(cls)
        enc.vocab, enc.dim = list(vocab), dim
        enc._ids = {token: i for i, token in enumerate(enc.vocab)}
        if len(enc._ids) < len(enc.vocab):  # the first token not at its last position repeats
            repeat = next(t for i, t in enumerate(enc.vocab) if enc._ids[t] != i)
            raise ValueError(f"checkpoint vocab repeats the token {repeat!r}")
        if OOV_TOKEN not in enc._ids:
            raise ValueError(f"checkpoint vocab has no {OOV_TOKEN!r} token")
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
    """``state[name]``, JSON numbers of shape ``shape``, as a float64 array; else a ``ValueError``."""
    arr = np.array(state[name])
    if arr.dtype.kind not in "fiu":
        raise ValueError(f"checkpoint array {name!r} holds a value that is not a number")
    if arr.shape != shape:
        raise ValueError(f"checkpoint array {name!r} has shape {list(arr.shape)}, "
                         f"expected {list(shape)}")
    return arr.astype(float, copy=False)


def checkpoint_state(model, array=np.ndarray.tolist) -> dict:
    """A model's checkpoint: version, kind, dim, vocab and each ``params()`` array encoded by ``array``."""
    return {"format_version": CHECKPOINT_VERSION, "kind": model.kind, "dim": model.dim,
            "vocab": list(model.vocab), **{name: array(p) for name, p in model.params().items()}}


def save_checkpoint(model, path) -> None:
    """Write an encoder or scorer checkpoint atomically: the bytes of
    ``json.dumps(model.state_dict(), sort_keys=True)``.

    Each ``params()`` array is written by ``artifacts.json_array``, a row at a
    time, with no Python float per value. A parameter array holding a
    non-finite value, which no reader accepts, is refused before anything
    is written: ``checkpoint array 'weight' holds a non-finite value``.
    """
    for name, p in model.params().items():
        if not np.isfinite(p).all():
            raise ValueError(f"checkpoint array {name!r} holds a non-finite value")
    artifacts.atomic_write_bytes(path, artifacts.json_object(model.state_dict(artifacts.json_array)))


def load_checkpoint(path, cls):
    """Read a ``cls`` checkpoint, embedded ``_manifest`` optional, and build it with ``cls.from_state_dict``.

    Another format_version or kind, malformed JSON (``NaN``, ``Infinity`` and
    numbers beyond the double range included) or a missing or malformed
    field is a ``ValueError`` naming the file; ``true`` or ``1.0`` is no integer.
    """
    def build(state: dict):
        version = state.get("format_version")
        if type(version) is not int or version != CHECKPOINT_VERSION:
            raise ValueError(f"checkpoint format_version {version!r} is not supported, "
                             f"expected {CHECKPOINT_VERSION}")
        if (kind := state.get("kind")) != cls.kind:
            raise ValueError(f"checkpoint kind {kind!r}, expected {cls.kind!r}")
        return cls.from_state_dict(state)

    return artifacts.read_document(path, build)


def load_encoder(path) -> TinyEncoder:
    return load_checkpoint(path, TinyEncoder)


def _array_digest(arr: np.ndarray) -> dict:
    data = np.ascontiguousarray(arr, dtype="<f8")
    return {"dtype": "<f8", "shape": list(data.shape), "sha256": artifacts.digest_bytes(data)}


def encoder_fingerprint(encoder) -> str:
    """Content hash of an encoder or scorer checkpoint.

    ``json_digest`` of its state with each parameter array given by dtype,
    shape and the sha256 of its ``<f8`` bytes; no float becomes text.
    """
    return artifacts.json_digest(encoder.state_dict(_array_digest))
