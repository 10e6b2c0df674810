import numpy as np
import pytest

from eventlink.encoders import HashingEncoder
from eventlink.kb import KnowledgeBase
from eventlink.retrieval import CandidateSet, DenseIndex, build_index, retrieve


def _index_from_matrix(matrix):
    ids = tuple(f"E{i}" for i in range(matrix.shape[0]))
    return DenseIndex(ids=ids, matrix=np.asarray(matrix, dtype=float), encoder_fingerprint="t")


def _brute_force(matrix, q, k):
    # independent oracle: all dot products, full sort, same tie rule
    scores = [float(np.dot(row, q)) for row in matrix]
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))[:k]
    return [f"E{i}" for i in order], [scores[i] for i in order]


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
        q = rng.normal(size=d)
        index = DenseIndex(
            ids=tuple(f"E{i}" for i in range(n)), matrix=matrix, encoder_fingerprint="t"
        )
        got = retrieve(index, q, k)
        ids, scores = _brute_force(matrix, q, k)
        assert list(got.ids) == ids
        np.testing.assert_allclose(got.scores, scores, atol=1e-9)


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


def test_build_index_shape_and_determinism(small_kb):
    encoder = HashingEncoder(64, seed=1)
    index = build_index(small_kb, encoder, max_len=300)
    assert index.matrix.shape == (3, 64)
    assert index.ids == ("E1", "E2", "E3")
    again = build_index(small_kb, HashingEncoder(64, seed=1), max_len=300)
    assert np.array_equal(index.matrix, again.matrix)


def test_build_index_rows_match_direct_encoding(small_kb):
    from eventlink.kb import candidate_text

    encoder = HashingEncoder(32, seed=2)
    index = build_index(small_kb, encoder, max_len=50)
    for i, entry in enumerate(small_kb):
        np.testing.assert_array_equal(
            index.matrix[i], encoder.encode(candidate_text(entry, 50))
        )


def test_build_index_empty_kb():
    with pytest.raises(ValueError, match="empty"):
        build_index(KnowledgeBase([]), HashingEncoder(8, 0))


def test_index_save_load_round_trip(tmp_path, small_kb):
    encoder = HashingEncoder(16, seed=5)
    index = build_index(small_kb, encoder, max_len=20)
    path = tmp_path / "index.json"
    index.save(path)
    loaded = DenseIndex.load(path)
    assert loaded.ids == index.ids
    assert loaded.encoder_fingerprint == index.encoder_fingerprint
    np.testing.assert_array_equal(loaded.matrix, index.matrix)


def test_candidate_set_validation():
    with pytest.raises(ValueError, match="non-increasing"):
        CandidateSet("q", ("a", "b"), (0.1, 0.5))
    with pytest.raises(ValueError, match="distinct"):
        CandidateSet("q", ("a", "a"), (0.5, 0.1))
    with pytest.raises(ValueError, match="align"):
        CandidateSet("q", ("a",), (0.5, 0.1))
