import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from eventlink.encoders import TinyEncoder
from eventlink.kb import RETRIEVER_MAX_LEN, TITLE_SEP
from eventlink import retrieval
from eventlink.retrieval import (
    CandidateSet, DenseIndex, _norms, _shortlist, build_index, retrieve, retrieve_many,
)
from eventlink.training import build_vocab

from conftest import kb_of


def _index_from_matrix(matrix):
    ids = tuple(f"E{i}" for i in range(matrix.shape[0]))
    return DenseIndex(ids=ids, matrix=np.asarray(matrix, dtype=float), encoder_fingerprint="t")


def _brute_force(matrix, q, k):
    # independent oracle: all dot products, full sort, same tie rule
    scores = [float(np.dot(row, q)) for row in matrix]
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))[:k]
    return [f"E{i}" for i in order], [scores[i] for i in order]


def _adversarial_matrix(rng, n, d, spread_norms):
    """Rows built to defeat a single matrix-vector pass: exact duplicates,
    one-ulp neighbours, and (optionally) row norms from 1e-150 to 1e150."""
    base = rng.normal(size=(max(1, n // 4), d))
    if spread_norms:
        base *= 10.0 ** rng.uniform(-150, 150, size=(len(base), 1))
    matrix = base[rng.integers(0, len(base), size=n)]
    matrix[-1] = matrix[0]  # bit-identical rows far apart
    nudged = rng.random(n) < 0.25
    toward = np.where(rng.random((n, 1)) < 0.5, -np.inf, np.inf)
    matrix[nudged] = np.nextafter(matrix[nudged], toward[nudged])
    return matrix


def test_orthogonal_basis():
    index = _index_from_matrix(np.eye(3))
    result = retrieve(index, np.array([0.0, 1.0, 0.0]), 1)
    assert result.ids == ("E1",)
    assert result.scores[0] == pytest.approx(1.0)


def test_k_equals_n_matches_full_sort():
    rng = np.random.default_rng(0)
    matrix = rng.normal(size=(12, 5))
    q = rng.normal(size=5)
    index = _index_from_matrix(matrix)
    got = retrieve(index, q, 12)
    ids, scores = _brute_force(matrix, q, 12)
    assert list(got.ids) == ids
    np.testing.assert_allclose(got.scores, scores, atol=1e-9)


def test_matches_brute_force_oracle_randomized():
    rng = np.random.default_rng(42)
    for _ in range(100):
        n = int(rng.integers(2, 40))
        d = int(rng.integers(2, 16))
        k = int(rng.integers(1, n + 1))
        matrix = rng.normal(size=(n, d))
        if rng.random() < 0.3:
            matrix[rng.integers(0, n)] = matrix[rng.integers(0, n)]  # force ties
        if rng.random() < 0.3:
            matrix = _adversarial_matrix(rng, n, d, spread_norms=rng.random() < 0.5)
        q = rng.normal(size=d)
        index = DenseIndex(
            ids=tuple(f"E{i}" for i in range(n)), matrix=matrix, encoder_fingerprint="t"
        )
        got = retrieve(index, q, k)
        ids, scores = _brute_force(matrix, q, k)
        assert list(got.ids) == ids
        assert list(got.scores) == scores  # same per-row products, same bits


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 5000),
    d=st.integers(1, 64),
    k_rule=st.sampled_from(["one", "all", "any"]),
    spread_norms=st.booleans(),
)
def test_matches_oracle_on_adversarial_matrices(seed, n, d, k_rule, spread_norms):
    rng = np.random.default_rng(seed)
    matrix = _adversarial_matrix(rng, n, d, spread_norms)
    q = rng.normal(size=d)
    k = {"one": 1, "all": n, "any": int(rng.integers(1, n + 1))}[k_rule]
    got = retrieve(_index_from_matrix(matrix), q, k)
    ids, scores = _brute_force(matrix, q, k)
    assert list(got.ids) == ids
    assert list(got.scores) == scores


@pytest.mark.parametrize("scale", [1.0, 1e-140, 1e140])
def test_shortlist_keeps_rows_rounding_cannot_separate(scale):
    # A row, its copy grown by a few ulps and its exact copy score within
    # rounding error of one another at any magnitude, so the block's matrix
    # product alone cannot tell which is first: the shortlist for k=1 must
    # keep all three, although their matrix-product values differ. The
    # other queries of the block get shortlists of their own.
    rng = np.random.default_rng(11)
    row = rng.normal(size=64)
    matrix = scale * np.vstack([rng.normal(size=(3, 64)), row, rng.normal(size=(50, 64)), row, row])
    for _ in range(4):
        matrix[54] = np.nextafter(matrix[54], np.copysign(np.inf, row))
    assert len(set((matrix @ row)[[3, 54, 55]].tolist())) > 1
    index = _index_from_matrix(matrix)
    block = np.vstack([rng.normal(size=64), row, -row, matrix[20] / scale])
    shortlists = [np.flatnonzero(kept) for kept in _shortlist(index, block, 1)]
    assert len(shortlists) == len(block)
    assert {3, 54, 55} <= set(shortlists[1].tolist())
    for q, rows, got in zip(block, shortlists, retrieve_many(index, block, 1, ["a", "b", "c", "d"])):
        ids, scores = _brute_force(matrix, q, 1)
        assert int(ids[0][1:]) in rows.tolist()
        assert list(got.ids) == ids and list(got.scores) == scores


def _overflowing_matrix(rng, n, d):
    # Rows near 1e160 of one sign score +inf or -inf against a positive query
    # near 1e160, and small rows score finitely, so |row| * |q| overflows and
    # the shortlist must fall back to every row; no product mixes signs, so
    # none is NaN.
    matrix = rng.uniform(0.5, 1.0, size=(n, d))
    matrix[0::3] *= 1e160
    matrix[1::3] *= -1e160
    return matrix


def test_overflowing_products_fall_back_to_every_row():
    # every row is shortlisted and scored, and a score beyond the float range is refused
    # naming the query, as no reader of candidate files accepts one
    rng = np.random.default_rng(5)
    matrix = _overflowing_matrix(rng, 12, 8)
    q = 1e160 * rng.uniform(0.5, 1.0, size=8)
    index = _index_from_matrix(matrix)
    assert index.max_row_norm * float(q.max()) == np.inf
    for k in (1, 4, 12):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.flatnonzero(_shortlist(index, q[None], k)[0]).tolist() == list(range(12))
            with pytest.raises(ValueError, match="^query 'q' has a non-finite score$"):
                retrieve(index, q, k, query_id="q")


def test_a_finite_row_of_huge_norm_gives_a_refused_score():
    # both rows are finite, but the first one's dot product with a unit query overflows
    index = _index_from_matrix(np.array([[1.5e308, 1.5e308, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]]))
    query = np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2.0)
    with pytest.raises(ValueError, match="^query 'q1' has a non-finite score$"):
        retrieve_many(index, np.stack([np.eye(4)[3], query]), 1, ["q0", "q1"])


def _retrieve_many_matches_oracles(index, matrix, queries, k):
    query_ids = [f"q{i}" for i in range(len(queries))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = retrieve_many(index, queries, k, query_ids)
        one_by_one = [retrieve(index, q, k, query_id=i) for q, i in zip(queries, query_ids)]
    assert got == one_by_one
    for q, result in zip(queries, got):
        with np.errstate(over="ignore"):
            ids, scores = _brute_force(matrix, q, k)
        assert list(result.ids) == ids
        assert np.array(result.scores).tobytes() == np.array(scores).tobytes()  # -0.0 is not 0.0


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 2000),
    d=st.integers(1, 130),
    m=st.integers(0, 9),
    k_rule=st.sampled_from(["one", "all", "any"]),
    spread_norms=st.booleans(),
    rows_per_block=st.sampled_from([1, 2, 3, None]),
    pairs_per_gather=st.sampled_from([1, 5, None]),
    fallback=st.booleans(),
)
@example(seed=1, n=40, d=8, m=0, k_rule="one", spread_norms=False, rows_per_block=1,
         pairs_per_gather=None, fallback=False)
@example(seed=2, n=40, d=8, m=1, k_rule="all", spread_norms=True, rows_per_block=None,
         pairs_per_gather=1, fallback=False)
@example(seed=3, n=300, d=16, m=9, k_rule="one", spread_norms=False, rows_per_block=2,
         pairs_per_gather=5, fallback=True)
@example(seed=4, n=30, d=130, m=6, k_rule="all", spread_norms=False, rows_per_block=None,
         pairs_per_gather=5, fallback=False)
def test_retrieve_many_matches_oracles(seed, n, d, m, k_rule, spread_norms, rows_per_block,
                                       pairs_per_gather, fallback):
    rng = np.random.default_rng(seed)
    matrix = _adversarial_matrix(rng, n, d, spread_norms)
    index = _index_from_matrix(matrix)
    queries = rng.normal(size=(m, d))
    queries[1::3] *= 10.0 ** rng.uniform(-150, 150, size=(len(queries[1::3]), 1))
    # a query whose |row| * |q| reaches the fallback, yet whose products stay finite
    if fallback and m and index.max_row_norm >= 1.0:
        queries[0] /= np.linalg.norm(queries[0])
        queries[0] *= retrieval._FLOAT_MAX / 3 / index.max_row_norm
        assert index.max_row_norm * retrieval._norms(queries[:1])[0] >= retrieval._FLOAT_MAX / 4
    k = {"one": 1, "all": n, "any": int(rng.integers(1, n + 1))}[k_rule]
    with pytest.MonkeyPatch.context() as patch:
        if rows_per_block is not None:
            patch.setattr(retrieval, "_BLOCK_ELEMENTS", rows_per_block * n)
        if pairs_per_gather is not None:
            patch.setattr(retrieval, "_GATHER_ELEMENTS", pairs_per_gather * d)
        _retrieve_many_matches_oracles(index, matrix, queries, k)


@pytest.mark.parametrize("rows_per_block", [1, 2, 4])
def test_retrieve_many_block_mixes_overflowing_and_ordinary_queries(monkeypatch, rows_per_block):
    rng = np.random.default_rng(9)
    matrix = _overflowing_matrix(rng, 15, 6)
    matrix[7] = matrix[4]  # a tie, broken by KB position
    index = _index_from_matrix(matrix)
    queries = rng.normal(size=(4, 6))
    queries[2] = 1e160 * rng.uniform(0.5, 1.0, size=6)  # every product is +-inf or finite
    monkeypatch.setattr(retrieval, "_BLOCK_ELEMENTS", rows_per_block * index.n)
    monkeypatch.setattr(retrieval, "_GATHER_ELEMENTS", rows_per_block * 6)
    for k in (1, 5, 15):
        _retrieve_many_matches_oracles(index, matrix, queries[[0, 1, 3]], k)
        with pytest.raises(ValueError, match="^query 'q2' has a non-finite score$"):
            retrieve_many(index, queries, k, ["q0", "q1", "q2", "q3"])


def test_retrieve_many_rejects_misaligned_ids_and_bad_shapes():
    index = _index_from_matrix(np.eye(3))
    with pytest.raises(ValueError, match="2 query ids for 1"):
        retrieve_many(index, np.ones((1, 3)), 1, ["a", "b"])
    with pytest.raises(ValueError, match="dimension"):
        retrieve_many(index, np.ones(3), 1, ["a"])
    with pytest.raises(ValueError, match="non-finite"):
        retrieve_many(index, np.array([[1.0, np.nan, 0.0]]), 1, ["a"])


def test_prefix_property():
    rng = np.random.default_rng(7)
    index = _index_from_matrix(rng.normal(size=(20, 6)))
    q = rng.normal(size=6)
    previous = retrieve(index, q, 1).ids
    for k in range(2, 21):
        current = retrieve(index, q, k).ids
        assert current[: len(previous)] == previous
        previous = current


def test_positive_scaling_keeps_order():
    rng = np.random.default_rng(3)
    index = _index_from_matrix(rng.normal(size=(15, 4)))
    q = rng.normal(size=4)
    base = retrieve(index, q, 15).ids
    for factor in (0.1, 2.0, 1000.0):
        assert retrieve(index, q * factor, 15).ids == base


def test_dimension_mismatch():
    index = _index_from_matrix(np.eye(3))
    with pytest.raises(ValueError, match="dimension"):
        retrieve(index, np.zeros(5), 1)


def test_k_bounds():
    index = _index_from_matrix(np.eye(3))
    with pytest.raises(ValueError):
        retrieve(index, np.zeros(3), 0)
    with pytest.raises(ValueError):
        retrieve(index, np.zeros(3), 4)


def _untrained(kb, dim, seed):
    """A seeded untrained encoder over the KB's tokens."""
    return TinyEncoder(build_vocab(kb, []), dim, seed=seed)


def test_build_index_shape_and_determinism(small_kb):
    encoder = _untrained(small_kb, 64, seed=1)
    index = build_index(small_kb, encoder)
    assert index.matrix.shape == (3, 64)
    assert index.ids == ("E1", "E2", "E3")
    again = build_index(small_kb, _untrained(small_kb, 64, seed=1))
    assert np.array_equal(index.matrix, again.matrix)


def test_build_index_rows_match_direct_encoding(small_kb):
    # a 400-token entry whose tokens past the retriever's budget are all "harbor"
    long = ("E4", "Long siege", " ".join(["war"] * 300 + ["harbor"] * 100))
    kb = kb_of([*zip(small_kb.ids, small_kb.titles, small_kb.descriptions), long])
    whole = long[1].split() + [TITLE_SEP] + long[2].split()
    assert len(whole) > RETRIEVER_MAX_LEN
    texts = [[*title.split(), TITLE_SEP, *description.split()][:RETRIEVER_MAX_LEN]
             for title, description in zip(kb.titles, kb.descriptions)]
    # every other distinct token but "harbor" is left out of the vocabulary, so it encodes as [OOV]
    vocab = sorted({*sorted({token for text in texts for token in text})[::2], "harbor"})
    encoder = TinyEncoder(vocab, 32, seed=2)
    index = build_index(kb, encoder)
    expected = np.stack([encoder.forward(text) for text in texts])
    assert index.matrix.tobytes() == expected.tobytes()
    assert not np.array_equal(index.matrix[-1], encoder.forward(whole))


def test_index_save_load_round_trip(tmp_path, small_kb):
    encoder = _untrained(small_kb, 16, seed=5)
    index = build_index(small_kb, encoder)
    path = tmp_path / "index.json"
    index.save(path)
    loaded = DenseIndex.load(path)
    assert loaded.ids == index.ids
    assert loaded.encoder_fingerprint == index.encoder_fingerprint
    np.testing.assert_array_equal(loaded.matrix, index.matrix)


@settings(max_examples=30, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 6)),
              elements=st.floats(allow_nan=False, allow_infinity=False)))
@example(np.array([[-0.0, 0.0, 5e-324, -2.5e-310], [1e308, -1e-308, np.nextafter(1.0, 2.0), np.pi]]))
def test_index_round_trip_is_bit_exact(tmp_path_factory, matrix):
    path = tmp_path_factory.mktemp("index") / "index.json"
    index = DenseIndex(
        ids=tuple(f"E{i}" for i in range(len(matrix))), matrix=matrix, encoder_fingerprint="f"
    )
    index.save(path, manifest={"command": "index"})
    loaded = DenseIndex.load(path)
    assert loaded.matrix.tobytes() == matrix.tobytes()
    assert loaded.ids == index.ids and loaded.encoder_fingerprint == "f"
    head, body = path.read_bytes().split(b"\n", 1)
    header = json.loads(head)
    assert header.pop("_manifest") == {"command": "index"}
    assert header == {"encoder_fingerprint": "f", "format_version": 3, "ids": list(index.ids),
                      "matrix": {"dtype": "<f8", "shape": list(matrix.shape)}}
    assert body == matrix.astype("<f8").tobytes()
    again = path.with_name("again.json")
    loaded.save(again, manifest={"command": "index"})
    assert again.read_bytes() == path.read_bytes()


# signed zeros, subnormals, one ulp above 1.0 and values near the ends of the double range
_EDGE_ROWS = np.array([[-0.0, 0.0, 5e-324, -2.5e-310], [1e300, -1e300, np.nextafter(1.0, 2.0), -np.pi],
                       [-5e-324, 1e-300, -1e300, 2.0 ** -1022]])


def test_index_round_trip_is_aligned_and_bit_exact_at_every_header_offset(tmp_path):
    # the fingerprint's length moves the body's file offset through every residue mod 8
    offsets = set()
    for length in range(1, 9):
        path = tmp_path / f"index-{length}.json"
        index = DenseIndex(("E0", "E1", "E2"), _EDGE_ROWS, "f" * length)
        index.save(path, manifest={"command": "index"})
        offsets.add((path.read_bytes().index(b"\n") + 1) % 8)
        loaded = DenseIndex.load(path)
        assert loaded.matrix.flags.aligned and loaded.matrix.dtype == np.float64
        assert loaded.matrix.tobytes() == _EDGE_ROWS.tobytes()
        assert loaded.encoder_fingerprint == index.encoder_fingerprint
        assert loaded.max_row_norm == index.max_row_norm
    assert offsets == set(range(8))


def test_index_of_a_strided_matrix_saves_the_bytes_of_its_contiguous_copy(tmp_path):
    contiguous, fortran = tmp_path / "c.json", tmp_path / "f.json"
    DenseIndex(("E0", "E1", "E2"), _EDGE_ROWS, "f").save(contiguous)
    DenseIndex(("E0", "E1", "E2"), np.asfortranarray(_EDGE_ROWS), "f").save(fortran)
    assert fortran.read_bytes() == contiguous.read_bytes()


@pytest.mark.parametrize("change, found", [(lambda body: body[:-1], 95), (lambda body: body + b"\0", 97)],
                         ids=["one-byte-short", "one-byte-long"])
def test_index_body_of_the_wrong_length_is_refused_naming_the_file(tmp_path, change, found):
    path = tmp_path / "index.json"
    DenseIndex(("E0", "E1", "E2"), _EDGE_ROWS, "f").save(path)
    head, _, body = path.read_bytes().partition(b"\n")
    path.write_bytes(head + b"\n" + change(body))
    with pytest.raises(ValueError) as info:
        DenseIndex.load(path)
    assert str(info.value) == f"{path}: matrix shape [3, 4] needs 96 bytes, found {found}"


def _linalg_norms(x):
    """``_norms`` as ``np.linalg.norm`` computes it: the whole-matrix reference."""
    scale = np.abs(x).max(axis=-1, keepdims=True)
    scale[scale == 0.0] = 1.0
    with np.errstate(over="ignore"):
        return scale[..., 0] * np.linalg.norm(x / scale, axis=-1)


@settings(max_examples=60, deadline=None)
@given(matrix=arrays(np.float64, st.tuples(st.integers(1, 12), st.integers(1, 5)),
                     elements=st.floats(allow_nan=False, allow_infinity=False)),
       rows_per_block=st.integers(1, 4))
@example(matrix=np.zeros((5, 2)), rows_per_block=2)
@example(matrix=np.array([[1e308, 1e308], [0.0, -0.0], [5e-324, 0.0]]), rows_per_block=1)
def test_max_row_norm_over_blocks_is_the_whole_matrix_maximum(matrix, rows_per_block):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(retrieval, "CACHE_ELEMENTS", rows_per_block * matrix.shape[1])
        index = _index_from_matrix(matrix)
    assert _norms(matrix).tobytes() == _linalg_norms(matrix).tobytes()
    assert index.max_row_norm.hex() == float(_norms(matrix).max()).hex()


def test_max_row_norm_across_cache_blocks_and_a_non_finite_value_in_the_last_block():
    # 1,300 rows at dim 64 are two full blocks and a partial one of 276 rows
    rng = np.random.default_rng(32)
    matrix = _adversarial_matrix(rng, 1300, 64, spread_norms=True)
    assert 2 * (retrieval.CACHE_ELEMENTS // 64) < len(matrix) < 3 * (retrieval.CACHE_ELEMENTS // 64)
    assert _norms(matrix).tobytes() == _linalg_norms(matrix).tobytes()
    assert _index_from_matrix(matrix).max_row_norm.hex() == float(_norms(matrix).max()).hex()
    for value in (np.nan, np.inf, -np.inf):
        bad = matrix.copy()
        bad[-1, -1] = value
        with pytest.raises(ValueError, match="non-finite"):
            _index_from_matrix(bad)


def test_index_rejects_non_finite_and_misshapen_matrices():
    with pytest.raises(ValueError, match="non-finite"):
        _index_from_matrix(np.array([[1.0, np.inf]]))
    with pytest.raises(ValueError, match="one row per id"):
        DenseIndex(ids=("a",), matrix=np.eye(2), encoder_fingerprint="t")


def test_candidate_set_validation():
    with pytest.raises(ValueError, match="non-increasing"):
        CandidateSet("q", ("a", "b"), (0.1, 0.5))
    with pytest.raises(ValueError, match="distinct"):
        CandidateSet("q", ("a", "a"), (0.5, 0.1))
    with pytest.raises(ValueError, match="align"):
        CandidateSet("q", ("a",), (0.5, 0.1))


def test_retrieve_many_orders_tied_scores_by_kb_position():
    # equal scores, zeros included, go to the lower KB position in each query's list
    matrix = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, -1.0], [1.0, 0.0], [-0.0, 1.0]])
    queries = np.array([[1.0, 0.0], [-1.0, 0.0]])
    got = retrieve_many(_index_from_matrix(matrix), queries, 5, ["a", "b"])
    assert got[0].ids == ("E1", "E3", "E0", "E2", "E4")
    assert got[1].ids == ("E0", "E2", "E4", "E1", "E3")
    for q, result in zip(queries, got):
        expected = np.array(_brute_force(matrix, q, 5)[1])
        assert np.array(result.scores).tobytes() == expected.tobytes()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 130), pairs=st.integers(0, 60),
       gather_elements=st.sampled_from([1, 130, 2 ** 15]))
def test_pair_dots_matches_np_dot_per_pair(seed, d, pairs, gather_elements):
    rng = np.random.default_rng(seed)
    left, right = rng.normal(size=(7, d)), rng.normal(size=(5, d))
    i, j = rng.integers(0, 7, size=pairs), rng.integers(0, 5, size=pairs)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(retrieval, "_GATHER_ELEMENTS", gather_elements)
        got = retrieval.pair_dots(left, right, i, j)
    expected = np.array([np.dot(left[a], right[b]) for a, b in zip(i, j)], dtype=float)
    assert got.tobytes() == expected.tobytes()
