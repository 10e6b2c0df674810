import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eventlink import encoders
from eventlink.encoders import (
    OOV_TOKEN,
    DegenerateNormError,
    TinyEncoder,
    distinct_ids,
    encoder_fingerprint,
    load_checkpoint,
    load_encoder,
    save_checkpoint,
)
from eventlink.llm import token_hash
from eventlink.rerank import TinyCrossScorer

from conftest import ORJSON_EDGE_FLOATS, dense_grads


def test_marker_tokens_distinct_from_corpus():
    corpus = [f"word{i}" for i in range(40)]
    markers = ["[M_s]", "[M_e]", "[SEP]", "[TITLE_SEP]", "[Victim_s]", "[Victim_e]"]
    enc = TinyEncoder(corpus + markers, 64, seed=11)
    vectors = {t: enc.forward([t]) for t in corpus + markers}
    for marker in markers:
        for token in corpus + [m for m in markers if m != marker]:
            cos = float(vectors[marker] @ vectors[token])
            assert abs(cos) < 0.99, (marker, token)


@given(
    st.lists(st.sampled_from(["war", "city", "[M_s]", "north", "a"]), min_size=1, max_size=12)
)
@settings(max_examples=100)
def test_unit_norm_everywhere(tokens):
    norm = float(np.linalg.norm(TinyEncoder(["war", "city", "a"], 16, seed=3).forward(tokens)))
    assert norm == pytest.approx(1.0, abs=1e-6)


def test_token_hash_is_stable():
    assert token_hash("invaded") == token_hash("invaded")
    assert token_hash("invaded") != token_hash("Invaded")


def test_tiny_seeded_init_deterministic():
    a = TinyEncoder(["a", "b"], 8, seed=4)
    b = TinyEncoder(["a", "b"], 8, seed=4)
    assert np.array_equal(a.embed, b.embed)
    assert np.array_equal(a.forward(["a", "b"]), b.forward(["a", "b"]))


def test_tiny_unknown_tokens_map_to_oov():
    enc = TinyEncoder(["a", "b"], 8, seed=4)
    unknown = enc.forward(["zzz", "qqq"])
    oov = enc.forward([OOV_TOKEN, OOV_TOKEN])
    np.testing.assert_allclose(unknown, oov, atol=1e-12)


def test_tiny_empty_sequence_error():
    enc = TinyEncoder(["a"], 8, seed=0)
    with pytest.raises(ValueError, match="empty token sequence"):
        enc.forward([])
    with pytest.raises(ValueError, match="empty token sequence"):
        enc.encode_many([["a"], []])
    assert enc.encode_many([]).shape == (0, 8)


def test_fingerprint_tracks_parameters():
    enc = TinyEncoder(["a", "b"], 8, seed=2)
    before = encoder_fingerprint(enc)
    enc.embed[0, 0] += 1.0
    assert encoder_fingerprint(enc) != before


# --- fingerprints from array bytes -------------------------------------------

# finite doubles, with signed zeros and subnormals drawn often
_ELEMENTS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -1e-310]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def tiny_models(draw, kinds=(TinyEncoder,), elements=_ELEMENTS):
    """A model of one of ``kinds`` whose every parameter is drawn from ``elements``."""
    vocab = draw(st.lists(st.text(min_size=1, max_size=5), min_size=1, max_size=6, unique=True))
    model = draw(st.sampled_from(kinds))(vocab, draw(st.integers(2, 5)), seed=0)
    for arr in model.params().values():
        values = draw(st.lists(elements, min_size=arr.size, max_size=arr.size))
        arr[...] = np.array(values, dtype=float).reshape(arr.shape)
    return model


def _edge_model(kind):
    """A ``kind`` model of dim 8 each of whose arrays ends in the edge floats: its last row holds
    all 8 of them (``scale``, of one value, the first)."""
    model = kind(["a", "b", "c"], len(ORJSON_EDGE_FLOATS), seed=2)
    for arr in model.params().values():
        arr.reshape(-1)[-len(ORJSON_EDGE_FLOATS):] = ORJSON_EDGE_FLOATS[:arr.size]
    return model


@given(model=tiny_models((TinyEncoder, TinyCrossScorer),
                         st.one_of(_ELEMENTS, st.sampled_from(ORJSON_EDGE_FLOATS))))
@example(model=_edge_model(TinyEncoder))
@example(model=_edge_model(TinyCrossScorer))
@settings(max_examples=100, deadline=None)
def test_checkpoint_round_trip(tmp_path_factory, model):
    # the file holds json's bytes of the state, and a load restores every bit of every array
    path = tmp_path_factory.mktemp("ckpt") / "model.json"
    save_checkpoint(model, path)
    assert path.read_bytes() == json.dumps(model.state_dict(), sort_keys=True).encode()
    loaded = load_checkpoint(path, type(model))
    assert type(loaded) is type(model) and loaded.vocab == model.vocab
    assert {name: arr.tobytes() for name, arr in loaded.params().items()} == {
        name: arr.tobytes() for name, arr in model.params().items()}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["embed", "weight", "bias", "nil", "scale"])
def test_save_checkpoint_refuses_a_non_finite_value(tmp_path, name, value):
    # refused before anything is written: orjson would write it as null, json as NaN
    scorer = TinyCrossScorer(["a", "b"], 4, seed=0)
    scorer.params()[name].reshape(-1)[-1] = value
    with pytest.raises(ValueError) as info:
        save_checkpoint(scorer, tmp_path / "scorer.json")
    assert str(info.value) == f"checkpoint array {name!r} holds a non-finite value"
    assert list(tmp_path.iterdir()) == []


def _element(draw, enc):
    """A parameter array of ``enc`` and the flat index of one of its elements."""
    arr = enc.params()[draw(st.sampled_from(["embed", "weight", "bias"]))]
    return arr.reshape(-1), draw(st.integers(0, arr.size - 1))


@given(enc=tiny_models())
@settings(max_examples=60, deadline=None)
def test_fingerprint_survives_save_and_load(tmp_path_factory, enc):
    path = tmp_path_factory.mktemp("fp") / "enc.json"
    save_checkpoint(enc, path)
    assert encoder_fingerprint(load_encoder(path)) == encoder_fingerprint(enc)


@given(enc=tiny_models(), data=st.data())
@settings(max_examples=100, deadline=None)
def test_fingerprint_sees_one_ulp(enc, data):
    flat, i = _element(data.draw, enc)
    before = encoder_fingerprint(enc)
    toward = data.draw(st.sampled_from([np.inf, -np.inf]))
    if flat[i] == np.copysign(np.finfo(float).max, toward):
        toward = -toward  # the neighbour on that side is infinite, step inward instead
    flat[i] = np.nextafter(flat[i], toward)
    assert encoder_fingerprint(enc) != before


@given(enc=tiny_models(), data=st.data())
@settings(max_examples=100, deadline=None)
def test_fingerprint_sees_the_sign_of_zero(enc, data):
    flat, i = _element(data.draw, enc)
    flat[i] = 0.0
    before = encoder_fingerprint(enc)
    flat[i] = -0.0
    assert encoder_fingerprint(enc) != before


@given(enc=tiny_models(), data=st.data())
@settings(max_examples=100, deadline=None)
def test_fingerprint_sees_vocabulary_order(enc, data):
    state = enc.state_dict()
    i, j = data.draw(st.lists(st.integers(0, len(enc.vocab) - 1), min_size=2, max_size=2,
                              unique=True))
    state["vocab"][i], state["vocab"][j] = state["vocab"][j], state["vocab"][i]
    assert encoder_fingerprint(TinyEncoder.from_state_dict(state)) != encoder_fingerprint(enc)


# --- batched training kernels -------------------------------------------------

KERNEL_VOCAB = ["war", "city", "north", "harbor", "[M_s]"]


def _reference_forward(enc, tokens):
    # per-sequence mean pool, affine map and L2 norm, written out independently
    ids = [enc.vocab.index(t) if t in enc.vocab else enc.vocab.index(OOV_TOKEN) for t in tokens]
    mean = enc.embed[ids].mean(axis=0)
    pre = enc.weight @ mean + enc.bias
    norm = np.linalg.norm(pre)
    return pre / norm, (ids, mean, norm)


def _reference_backward(enc, tokens, grad_out, grads):
    out, (ids, mean, norm) = _reference_forward(enc, tokens)
    grad_pre = (grad_out - out * (out @ grad_out)) / norm
    grads["weight"] += np.outer(grad_pre, mean)
    grads["bias"] += grad_pre
    share = enc.weight.T @ grad_pre / len(ids)
    for idx in ids:
        grads["embed"][idx] += share


@given(
    rows=st.lists(
        st.lists(st.sampled_from(KERNEL_VOCAB + ["zzz", "qqq"]), min_size=1, max_size=9),
        min_size=1, max_size=6,
    ),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_batched_kernels_match_per_sequence_reference(rows, seed):
    enc = TinyEncoder(KERNEL_VOCAB, 8, seed=seed)
    grad_out = np.random.default_rng(seed).normal(size=(len(rows), 8))
    out, cache = enc.forward_batch(enc.id_rows(rows))
    expected = np.stack([_reference_forward(enc, row)[0] for row in rows])
    np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)
    for row, got in zip(rows, out):
        np.testing.assert_allclose(got, enc.forward(row), rtol=0, atol=1e-12)
    grads = {}
    enc.backward(cache, grad_out, grads)
    grads = dense_grads(enc.params(), grads)
    reference = {name: np.zeros_like(array) for name, array in enc.params().items()}
    for row, g in zip(rows, grad_out):
        _reference_backward(enc, row, g, reference)
    for name in reference:
        np.testing.assert_allclose(grads[name], reference[name], rtol=0, atol=1e-12)


def test_backward_gradients_of_signed_zeros_are_positive_zeros():
    # every term of bias component 0 is -0.0: column 0 of grad_out is -0.0 where every
    # out is positive, the rest +0.0, so the radial part is +0.0. A sum into zeroed
    # arrays reads +0.0 there, as backward must; a sum started from its first term,
    # such as functools.reduce(np.add, rows), reads -0.0 without backward's `0.0 +`
    enc = TinyEncoder(KERNEL_VOCAB, 8, seed=5)
    enc.bias[:] = 100.0
    out, cache = enc.forward_batch(enc.id_rows([["war", "city"], ["north"], ["harbor", "zzz"]]))
    assert (out > 0.0).all()
    grad_out = np.zeros_like(out)
    grad_out[:, 0] = -0.0
    grads = {}
    enc.backward(cache, grad_out, grads)
    for name, grad in dense_grads(enc.params(), grads).items():
        assert grad.tobytes() == np.zeros_like(grad).tobytes(), name


@given(ids=st.lists(st.integers(0, 40), min_size=1, max_size=60), spare=st.integers(0, 5))
def test_distinct_ids_equal_np_unique(ids, spare):
    ids = np.array(ids, dtype=np.intp)
    uniq, inverse = distinct_ids(ids, int(ids.max()) + 1 + spare)
    expected, expected_inverse = np.unique(ids, return_inverse=True)
    assert (uniq.dtype, inverse.dtype) == (expected.dtype, expected_inverse.dtype)
    np.testing.assert_array_equal(uniq, expected)
    np.testing.assert_array_equal(inverse, expected_inverse)


def test_forward_batch_empty_row_error():
    with pytest.raises(ValueError):
        enc = TinyEncoder(["a"], 8, seed=0)
        enc.forward_batch(enc.id_rows([["a"], []]))


def _degenerate(enc):
    enc.weight[:] = 0.0
    enc.bias[:] = 0.0
    return enc


def test_forward_zero_norm_raises_named_error():
    enc = _degenerate(TinyEncoder(["a"], 8, seed=0))
    with pytest.raises(DegenerateNormError):
        enc.forward(["a"])
    with pytest.raises(DegenerateNormError):
        enc.encode_many([["a"], ["a", "b"]])


@pytest.mark.parametrize("scale", [1e300, np.nan])
def test_norm_beyond_the_float_range_or_nan_raises_named_error(scale):
    # a weight of 1e300 leaves every pre-activation finite but squares it past the float
    # range: the norm is inf, and dividing by it would give a row of zeros
    enc = TinyEncoder(["a", "b", "c"], 4, seed=0)
    enc.weight *= scale
    with pytest.raises(DegenerateNormError, match="^encoder pre-activation norm is zero or not finite$"):
        enc.forward(["a"])
    with pytest.raises(DegenerateNormError, match="^encoder pre-activation norm is zero or not finite$"):
        enc.encode_many([["a"], ["a", "b"]])


def test_forward_batch_zero_norm_raises_named_error():
    enc = _degenerate(TinyEncoder(["a"], 8, seed=0))
    with pytest.raises(DegenerateNormError):
        enc.forward_batch(enc.id_rows([["a"], ["a", "b"]]))


# --- batch inference ---------------------------------------------------------

@st.composite
def _rows_over_vocab(draw):
    """A vocabulary and rows over it plus unknown tokens: 1-30 tokens, maybe one long outlier."""
    vocab = draw(st.lists(st.text("abcdefgh", min_size=1, max_size=3),
                          min_size=1, max_size=15, unique=True))
    token = st.sampled_from(vocab + [OOV_TOKEN, "zz-unknown", "[M_s]"])
    rows = draw(st.lists(st.lists(token, min_size=1, max_size=30), min_size=1, max_size=8))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))),
                    draw(st.lists(token, min_size=31, max_size=300)))
    if draw(st.booleans()):
        rows.append(rows[draw(st.integers(0, len(rows) - 1))])
    return vocab, rows


def _encode_row_by_row(enc, rows):
    """The per-row reference: one ``np.dot`` for the affine map and one for the norm per row."""
    out = []
    for row in rows:
        mean = enc.embed[enc.token_ids(row)].mean(axis=0)
        pre = np.dot(enc.weight, mean) + enc.bias
        out.append(pre / np.sqrt(np.dot(pre, pre)))
    return np.stack(out)


@given(case=_rows_over_vocab(), dim=st.integers(2, 130), seed=st.integers(0, 2**16),
       rows_per_block=st.sampled_from([1, 2, 3, None]))
@example(case=(["a"], [["a", "b"]]), dim=64, seed=0, rows_per_block=None)
@example(case=(["a", "b"], [["a"], ["b", "a", "b"], ["a"], ["a", "a"], ["b", "a", "b"]]),
         dim=3, seed=1, rows_per_block=2)
@example(case=(["a", "b"], [["a"], ["b"] * 300, ["zz"], ["a"]]), dim=130, seed=2, rows_per_block=1)
@settings(max_examples=150, deadline=None)
def test_encode_many_is_bit_identical_to_stacked_rows(case, dim, seed, rows_per_block):
    vocab, rows = case
    tiny = TinyEncoder(vocab, dim, seed=seed)
    expected = np.stack([tiny.forward(row) for row in rows])
    with pytest.MonkeyPatch.context() as patch:
        if rows_per_block is not None:
            patch.setattr(encoders, "CACHE_ELEMENTS", rows_per_block * dim)
        assert tiny.encode_many(rows).tobytes() == expected.tobytes()
        assert tiny.encode_many(rows).tobytes() == _encode_row_by_row(tiny, rows).tobytes()


def test_encode_many_is_bit_identical_across_cache_blocks():
    # at dim 64 a block holds 512 rows, so 1,300 rows make 3 blocks; lengths from 1 to 300
    # leave later blocks shorter longest rows than the first
    rng = np.random.default_rng(3101)
    vocab = [f"w{i}" for i in range(400)]
    tokens = np.array(vocab + [OOV_TOKEN, "zz-unknown", "[M_s]"])
    lengths = [1, 300, *rng.integers(1, 301, size=1297).tolist()]
    rows = [tokens[rng.integers(0, len(tokens), size=n)].tolist() for n in lengths]
    rows.insert(700, rows[5])  # a repeated row
    tiny = TinyEncoder(vocab, 64, seed=7)
    assert len(rows) > 2 * (encoders.CACHE_ELEMENTS // tiny.dim)
    got = tiny.encode_many(rows)
    assert got.tobytes() == np.stack([tiny.forward(row) for row in rows]).tobytes()
    assert got.tobytes() == _encode_row_by_row(tiny, rows).tobytes()
