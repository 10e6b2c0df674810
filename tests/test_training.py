import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eventlink.encoders import DegenerateNormError, TinyEncoder, distinct_ids

from eventlink.extraction import EventQuery, Span, TaggedQuery
from eventlink.formatting import format_query
from eventlink.kb import NIL, RETRIEVER_MAX_LEN, SCORER_MAX_LEN, KBEntry, KBError, KnowledgeBase
from eventlink.llm import StorytellerMock
from eventlink.neggen import (
    PROVENANCE_KB_PRUNING,
    STYLE_ARGUMENT_AWARE,
    NegativeExample,
    generate_negatives,
    kb_pruning_negatives,
)
from eventlink.rerank import TinyCrossScorer, score_pairs, select_learned_nil, softmax
from eventlink.retrieval import CandidateSet, build_index, retrieve_many
from eventlink.toy import build_toy_data
from eventlink.training import (
    CrossExample,
    TrainConfig,
    TrainingError,
    _sgd_epochs,
    _sgd_step,
    apply_kb_pruning,
    biencoder_batch_loss,
    build_vocab,
    cross_id_rows,
    crossencoder_batch_loss,
    mine_candidates,
    negative_examples,
    train_biencoder,
    train_crossencoder,
)

from conftest import dense_grads

VOCAB = ["war", "city", "north", "harbor", "siege", "[M_s]", "[M_e]", "[TITLE_SEP]"]


def _fd_check(params, loss_fn, analytic, h=1e-5, tol=1e-4):
    """Central finite differences against analytic gradients, coordinatewise."""
    for name, array in params.items():
        grad = analytic[name]
        flat = array.ravel()
        grad_flat = grad.ravel()
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + h
            up = loss_fn()
            flat[i] = original - h
            down = loss_fn()
            flat[i] = original
            fd = (up - down) / (2 * h)
            a = grad_flat[i]
            if abs(a) < 1e-10 and abs(fd) < 1e-8:
                continue
            rel = abs(a - fd) / max(abs(a) + abs(fd), 1e-8)
            assert rel < tol, (name, i, a, fd, rel)


_EDGE = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310]),
    st.floats(-1e6, 1e6),
)


@given(data=st.data(), vocab=st.integers(1, 10), dim=st.integers(1, 4),
       lr=st.floats(5e-324, 1e3))
@settings(max_examples=200, deadline=None)
def test_row_sparse_sgd_step_equals_dense_step_bit_for_bit(data, vocab, dim, lr):
    embed = np.array(data.draw(st.lists(_EDGE, min_size=vocab * dim, max_size=vocab * dim)))
    embed = embed.reshape(vocab, dim)
    tokens = data.draw(st.lists(st.integers(0, vocab - 1), min_size=1, max_size=20))
    uniq, _ = distinct_ids(np.array(tokens, dtype=np.intp), vocab)
    size = len(uniq) * dim
    rows = np.array(data.draw(st.lists(_EDGE, min_size=size, max_size=size))).reshape(-1, dim)
    full = np.zeros_like(embed)
    full[uniq] += rows  # the zeroed full gradient table, summed into
    dense = embed.copy()
    dense -= lr * full
    sparse = embed.copy()
    # the pair as TinyEncoder.backward makes it: every row starts from 0.0
    _sgd_step({"embed": sparse}, {"embed": (uniq, 0.0 + rows)}, lr)
    assert sparse.tobytes() == dense.tobytes()


def test_biencoder_gradients_match_finite_differences():
    encoder = TinyEncoder(VOCAB, 6, seed=0)
    queries = encoder.id_rows([["war", "city"], ["north", "war", "[M_s]"], ["harbor"]])
    cands = encoder.id_rows([["city", "city"], ["north"], ["siege", "war"]])
    _, grads = biencoder_batch_loss(encoder, queries, cands)
    _fd_check(
        encoder.params(),
        lambda: biencoder_batch_loss(encoder, queries, cands)[0],
        dense_grads(encoder.params(), grads),
    )


def test_crossencoder_gradients_match_finite_differences():
    kb = KnowledgeBase(
        [KBEntry(f"E{i}", f"city {i}", f"war north {i}") for i in range(3)]
    )
    scorer = TinyCrossScorer(VOCAB, 6, seed=0)
    examples = [
        CrossExample("a", ("war", "city"), ("E0", "E1"), 1),
        CrossExample("b", ("north",), ("E1", "E2"), 0),
        CrossExample("c", ("harbor", "siege"), ("E2", "E0"), 2),
    ]
    rows = cross_id_rows(scorer.encoder, examples, kb)
    _, grads = crossencoder_batch_loss(scorer, examples, *rows)
    _fd_check(
        scorer.params(),
        lambda: crossencoder_batch_loss(scorer, examples, *rows)[0],
        dense_grads(scorer.params(), grads),
    )


def test_crossencoder_gradients_with_shared_candidates_and_ragged_lists():
    kb = KnowledgeBase(
        [KBEntry(f"E{i}", f"city {i}", f"war north {i}") for i in range(4)]
    )
    scorer = TinyCrossScorer(VOCAB, 6, seed=3)
    # E1 appears in all three examples and E0 in two; lists have 3, 1 and 2 entries
    examples = [
        CrossExample("a", ("war", "city", "war"), ("E0", "E1", "E3"), 3),
        CrossExample("b", ("north", "zzz"), ("E1",), 0),
        CrossExample("c", ("harbor",), ("E1", "E0"), 1),
    ]
    rows = cross_id_rows(scorer.encoder, examples, kb)
    _, grads = crossencoder_batch_loss(scorer, examples, *rows)
    _fd_check(
        scorer.params(),
        lambda: crossencoder_batch_loss(scorer, examples, *rows)[0],
        dense_grads(scorer.params(), grads),
    )


def _per_example_cross_loss(scorer, examples, query_rows, candidate_rows):
    """The cross loss one example at a time, each sum in example order from 0.0."""
    encoder = scorer.encoder
    nil_norm = np.linalg.norm(scorer.nil_embedding)
    nil_unit = scorer.nil_embedding / nil_norm
    scale = float(scorer.scale[0])
    batch = len(examples)
    ids = list(dict.fromkeys(cid for example in examples for cid in example.candidate_ids))
    slots = {cid: batch + i for i, cid in enumerate(ids)}
    out, cache = encoder.forward_batch([*query_rows, *(candidate_rows[cid] for cid in ids)])
    # backward sets the encoder's gradients; the scorer's own are sums into zeroed arrays
    grads = {"nil": np.zeros_like(scorer.nil_embedding), "scale": np.zeros_like(scorer.scale)}
    grad_out = np.zeros_like(out)
    grad_nil_unit = np.zeros_like(nil_unit)
    total = 0.0
    for i, example in enumerate(examples):
        slot = [slots[cid] for cid in example.candidate_ids]
        partners = np.vstack([nil_unit, out[slot]])
        raw = partners @ out[i]
        probs = softmax(scale * raw)
        total += -np.log(probs[example.target])
        grad_logits = probs
        grad_logits[example.target] -= 1.0
        grad_logits /= batch
        grads["scale"][0] += grad_logits @ raw
        grad_out[i] += scale * (grad_logits @ partners)
        np.add.at(grad_out, slot, scale * np.outer(grad_logits[1:], out[i]))
        grad_nil_unit += scale * grad_logits[0] * out[i]
    encoder.backward(cache, grad_out, grads)
    grads["nil"] += (grad_nil_unit - nil_unit * (nil_unit @ grad_nil_unit)) / nil_norm
    return float(total / batch), grads


@st.composite
def _cross_batches(draw):
    """Ragged candidate lists (0 to 6 of 8 entries, shared across examples) and valid targets."""
    examples = []
    for i in range(draw(st.integers(1, 9))):
        ids = draw(st.lists(st.sampled_from([f"E{j}" for j in range(8)]), max_size=6,
                            unique=True))
        queries = st.lists(st.sampled_from(VOCAB + ["zzz"]), min_size=1, max_size=6)
        examples.append(CrossExample(f"q{i}", tuple(draw(queries)), tuple(ids),
                                     draw(st.integers(0, len(ids)))))
    return examples


@given(examples=_cross_batches(), seed=st.integers(0, 2**16),
       scale=st.sampled_from([1.0, 10.0, 100.0]), dim=st.sampled_from([2, 6, 64]))
@settings(max_examples=150, deadline=None)
def test_batched_cross_loss_equals_per_example_loss_bit_for_bit(examples, seed, scale, dim):
    kb = KnowledgeBase([KBEntry(f"E{j}", f"city {j}", "war north " * j) for j in range(8)])
    scorer = TinyCrossScorer(VOCAB, dim, seed=seed)
    scorer.scale[0] = scale
    rows = cross_id_rows(scorer.encoder, examples, kb)
    loss, grads = crossencoder_batch_loss(scorer, examples, *rows)
    expected_loss, expected = _per_example_cross_loss(scorer, examples, *rows)
    assert np.float64(loss).tobytes() == np.float64(expected_loss).tobytes()
    got, want = dense_grads(scorer.params(), grads), dense_grads(scorer.params(), expected)
    assert {name: got[name].tobytes() for name in got} == {
        name: want[name].tobytes() for name in want}


def _parent_biencoder_loss(encoder, query_rows, candidate_rows):
    """The in-batch loss as first written: ``np.linalg.norm``, ``np.vstack``, zeroed gradients summed into."""
    id_rows = [*query_rows, *candidate_rows]
    lengths = np.array([len(ids) for ids in id_rows])
    uniq, col = distinct_ids(np.concatenate(id_rows), len(encoder.vocab))
    rows, width = len(id_rows), len(uniq)
    cell = np.repeat(np.arange(rows) * width, lengths) + col
    bag = np.bincount(cell, minlength=rows * width).reshape(rows, width) / lengths[:, None]
    means = bag @ encoder.embed[uniq]
    pre = means @ encoder.weight.T + encoder.bias
    norms = np.linalg.norm(pre, axis=1)
    out = pre / norms[:, None]
    batch = len(query_rows)
    q_mat, c_mat = out[:batch], out[batch:]
    probs = softmax(q_mat @ c_mat.T)
    diagonal = np.arange(batch)
    loss = -np.log(probs[diagonal, diagonal]).sum() / batch
    grad_logits = probs
    grad_logits[diagonal, diagonal] -= 1.0
    grad_logits /= batch
    grad_out = np.vstack([grad_logits @ c_mat, grad_logits.T @ q_mat])
    radial = np.einsum("ij,ij->i", out, grad_out)
    grad_pre = (grad_out - out * radial[:, None]) / norms[:, None]
    grads = {name: np.zeros_like(array) for name, array in encoder.params().items()}
    grads["weight"] += grad_pre.T @ means
    grads["bias"] += grad_pre.sum(axis=0)
    grads["embed"][uniq] += bag.T @ (grad_pre @ encoder.weight)
    return float(loss), grads


@st.composite
def _bi_batches(draw):
    """Ragged id rows over ``VOCAB`` and ``[OOV]``, 1 to 9 query/gold pairs."""
    batch = draw(st.integers(1, 9))
    rows = st.lists(st.integers(0, len(VOCAB)), min_size=1, max_size=12)
    return [draw(st.lists(rows, min_size=batch, max_size=batch)) for _ in range(2)]


@given(batches=_bi_batches(), seed=st.integers(0, 2**16), dim=st.sampled_from([2, 6, 64]),
       tiny_rows=st.sets(st.integers(0, len(VOCAB))))
@settings(max_examples=150, deadline=None)
def test_biencoder_loss_equals_reference_bit_for_bit(batches, seed, dim, tiny_rows):
    encoder = TinyEncoder(VOCAB, dim, seed=seed)
    # Subnormal embedding rows make products that round to -0.0, so some raw
    # gradients hold -0.0 before the sum from 0.0; the bias keeps a row of them
    # away from a zero norm.
    encoder.embed[sorted(tiny_rows)] *= 5e-324
    encoder.bias[:] = np.random.default_rng(seed).normal(0.0, 0.1, dim)
    queries, golds = ([np.array(row, dtype=np.intp) for row in rows] for rows in batches)
    loss, grads = biencoder_batch_loss(encoder, queries, golds)
    expected_loss, expected = _parent_biencoder_loss(encoder, queries, golds)
    assert np.float64(loss).tobytes() == np.float64(expected_loss).tobytes()
    got = dense_grads(encoder.params(), grads)
    assert {name: got[name].tobytes() for name in expected} == {
        name: expected[name].tobytes() for name in expected}


def test_cross_step_encodes_each_distinct_candidate_once(monkeypatch):
    kb = KnowledgeBase([KBEntry(f"E{i}", f"city {i}", "war") for i in range(3)])
    scorer = TinyCrossScorer(VOCAB, 6, seed=0)
    examples = [
        CrossExample("a", ("war",), ("E0", "E1"), 1),
        CrossExample("b", ("city",), ("E1", "E2"), 2),
        CrossExample("c", ("north",), ("E2", "E0"), 0),
    ]
    batches = []
    original = TinyEncoder.forward_batch

    def counting(self, rows):
        batches.append(len(rows))
        return original(self, rows)

    monkeypatch.setattr(TinyEncoder, "forward_batch", counting)
    crossencoder_batch_loss(scorer, examples, *cross_id_rows(scorer.encoder, examples, kb))
    assert batches == [3 + 3]


def test_train_biencoder_runs_one_backward_per_step(small_toy, monkeypatch):
    data, vocab = small_toy
    pairs = _biencoder_pairs(data)
    cfg = TrainConfig.biencoder_defaults(learning_rate=0.3, batch_size=8, epochs=3, seed=0)
    calls = []
    original = TinyEncoder.backward

    def counting(self, cache, grad_out, grads):
        calls.append(grad_out.shape[0])
        return original(self, cache, grad_out, grads)

    monkeypatch.setattr(TinyEncoder, "backward", counting)
    train_biencoder(pairs, TinyEncoder(vocab, 16, seed=0), cfg)
    steps_per_epoch = -(-len(pairs) // cfg.batch_size)
    assert len(calls) == cfg.epochs * steps_per_epoch
    # every backward covers a whole step: queries plus their gold candidates
    assert sum(calls) == cfg.epochs * 2 * len(pairs)


def test_crossencoder_zero_nil_embedding_raises_named_error():
    kb = KnowledgeBase([KBEntry("E0", "city", "war")])
    scorer = TinyCrossScorer(VOCAB, 6, seed=0)
    scorer.nil_embedding[:] = 0.0
    examples = [CrossExample("a", ("war",), ("E0",), 1)]
    with pytest.raises(DegenerateNormError):
        crossencoder_batch_loss(scorer, examples, *cross_id_rows(scorer.encoder, examples, kb))


def test_cross_step_with_unknown_candidate_is_kb_error():
    kb = KnowledgeBase([KBEntry("E0", "city", "war")])
    scorer = TinyCrossScorer(VOCAB, 6, seed=0)
    examples = [CrossExample("a", ("war",), ("E0", "E9"), 1)]
    # candidates are mapped to token ids once per run, before any step
    with pytest.raises(KBError, match="'E9' not found"):
        crossencoder_batch_loss(scorer, examples, *cross_id_rows(scorer.encoder, examples, kb))


def test_batch_size_one_loss_is_exactly_zero():
    encoder = TinyEncoder(VOCAB, 6, seed=0)
    loss, grads = biencoder_batch_loss(
        encoder, encoder.id_rows([["war"]]), encoder.id_rows([["city"]])
    )
    assert loss == 0.0
    assert all(np.all(g == 0.0) for g in dense_grads(encoder.params(), grads).values())


def test_inseparable_batch_has_positive_loss():
    encoder = TinyEncoder(VOCAB, 6, seed=0)
    loss, _ = biencoder_batch_loss(
        encoder, encoder.id_rows([["war"], ["war"]]), encoder.id_rows([["city"], ["north"]])
    )
    assert loss > 0.0


def test_losses_nonnegative():
    encoder = TinyEncoder(VOCAB, 6, seed=1)
    rng = np.random.default_rng(0)
    for _ in range(10):
        qs = encoder.id_rows([[rng.choice(VOCAB)] for _ in range(3)])
        cs = encoder.id_rows([[rng.choice(VOCAB)] for _ in range(3)])
        loss, _ = biencoder_batch_loss(encoder, qs, cs)
        assert loss >= 0.0


@pytest.fixture(scope="module")
def small_toy():
    data = build_toy_data(n_entries=20, n_train=60, n_test=10, seed=11)
    vocab = build_vocab(data.kb, data.train)
    return data, vocab


def _biencoder_pairs(data):
    """Each formatted train query and its gold's candidate text at the retriever's budget."""
    rows = data.kb.rows(t.base.gold for t in data.train)
    golds = data.kb.candidate_texts(RETRIEVER_MAX_LEN, rows)
    return list(zip([format_query(t, "args", 300) for t in data.train], golds))


def test_evelink_vocab_contains_sep_and_other_styles_are_unchanged(small_toy):
    data, vocab = small_toy
    assert "[SEP]" not in vocab
    assert "[SEP]" in build_vocab(data.kb, data.train, style="evelink")
    for style in ("args", "blink"):
        assert build_vocab(data.kb, data.train, style=style) == vocab


def test_training_progress_on_toy_pairs(small_toy):
    from eventlink.formatting import format_query

    data, vocab = small_toy
    encoder = TinyEncoder(vocab, 32, seed=0)
    pairs = _biencoder_pairs(data)
    cfg = TrainConfig.biencoder_defaults(
        learning_rate=0.3, batch_size=8, epochs=10, seed=0
    )
    report = train_biencoder(pairs, encoder, cfg)
    assert len(report.epoch_losses) == 10
    assert report.epoch_losses[-1] < report.epoch_losses[0]
    assert all(np.isfinite(l) for l in report.epoch_losses)


def test_train_biencoder_requires_enough_data(small_toy):
    data, vocab = small_toy
    encoder = TinyEncoder(vocab, 8, seed=0)
    with pytest.raises(ValueError, match="at least"):
        train_biencoder([], encoder, TrainConfig.biencoder_defaults(batch_size=4))


def test_training_reproducible(small_toy):
    from eventlink.formatting import format_query

    data, vocab = small_toy
    pairs = _biencoder_pairs(data)
    cfg = TrainConfig.biencoder_defaults(learning_rate=0.3, batch_size=8, epochs=3, seed=5)
    first = TinyEncoder(vocab, 16, seed=5)
    train_biencoder(pairs, first, cfg)
    second = TinyEncoder(vocab, 16, seed=5)
    train_biencoder(pairs, second, cfg)
    for name in ("embed", "weight", "bias"):
        np.testing.assert_array_equal(first.params()[name], second.params()[name])


def test_run_ending_with_a_non_finite_parameter_is_training_error():
    # every step's loss is finite, but the last update overflows, silently
    # inside the run's errstate block
    params = {"w": np.array([1e308])}
    cfg = TrainConfig(learning_rate=1.0, batch_size=1, epochs=1)
    with pytest.raises(TrainingError, match="non-finite parameter 'w' after the last step"):
        _sgd_epochs(params, 1, cfg, lambda chunk: (0.5, {"w": np.array([-1e308])}))


# --- candidate mining ---------------------------------------------------------

@pytest.fixture(scope="module")
def mined_stack(small_toy):
    data, vocab = small_toy
    encoder = TinyEncoder(vocab, 32, seed=1)
    index = build_index(data.kb, encoder)
    return data, encoder, index


def _retrieved(queries, index, encoder, k, max_len=SCORER_MAX_LEN):
    rows = [format_query(q, "args", max_len) for q in queries]
    return retrieve_many(index, encoder.encode_many(rows), k, [q.base.query_id for q in queries])


def test_mine_gold_present_unchanged(mined_stack):
    data, encoder, index = mined_stack
    rows = mine_candidates(data.train, index, encoder, k=10)
    assert [row.query_id for row in rows] == [q.base.query_id for q in data.train]
    for query, row, result in zip(data.train, rows, _retrieved(data.train, index, encoder, 10)):
        assert row.query_tokens == tuple(format_query(query, "args", SCORER_MAX_LEN))
        assert len(row.candidate_ids) == 10
        assert row.candidate_ids[row.target - 1] == query.base.gold
        if query.base.gold in result.ids:
            assert row.candidate_ids == result.ids


def test_positive_examples_target_points_at_gold(mined_stack):
    # mine_candidates' rows are the scorer's in-KB training examples
    data, encoder, index = mined_stack
    rows = mine_candidates(data.train, index, encoder, k=10)
    for query, row in zip(data.train, rows):
        assert row.candidate_ids[row.target - 1] == query.base.gold


def test_mine_gold_missing_injected_at_last_rank(mined_stack):
    data, encoder, index = mined_stack
    rows = mine_candidates(data.train, index, encoder, k=3)
    results = _retrieved(data.train, index, encoder, 3)
    injected = [(q, row, result) for q, row, result in zip(data.train, rows, results)
                if q.base.gold not in result.ids]
    assert injected, "expected at least one miss at k=3 with an untrained encoder"
    for query, row, result in injected:
        assert row.candidate_ids == (*result.ids[:-1], query.base.gold)
        assert row.target == 3


def test_mine_formats_a_long_query_once_at_the_scorer_budget(mined_stack):
    # the scorer's window holds only "the" around the mention; the retriever's
    # wider one also reaches words of one entry's description
    data, encoder, index = mined_stack
    [row] = data.kb.rows(["E003"])
    near, far = ("the",) * 130, tuple(data.kb.descriptions[row].split())
    left = ("filler",) * 50 + far + near
    tokens = (*left, "fighting", *near, *far) + ("filler",) * 50
    base = EventQuery("long", tokens, Span(len(left), len(left)), pos="noun", gold=NIL)
    query = TaggedQuery(base=base, event_type="Conflict", arguments=())
    assert len(tokens) > RETRIEVER_MAX_LEN
    [row] = mine_candidates([query], index, encoder, k=5)
    [result] = _retrieved([query], index, encoder, 5)
    [wider] = _retrieved([query], index, encoder, 5, RETRIEVER_MAX_LEN)
    assert wider.ids != result.ids
    assert row.candidate_ids == result.ids and row.target == 0
    assert row.query_tokens == tuple(format_query(query, "args", SCORER_MAX_LEN))


def test_mine_nil_query_gets_plain_candidates(mined_stack):
    data, encoder, index = mined_stack
    from dataclasses import replace

    nil_query = replace(
        data.train[0],
        base=replace(data.train[0].base, query_id="nilq", gold=NIL),
    )
    [row] = mine_candidates([nil_query], index, encoder, k=5)
    [result] = _retrieved([nil_query], index, encoder, 5)
    assert row.candidate_ids == result.ids and row.target == 0


def test_kb_pruning_replaces_origin_queries_and_drops_pruned_rows(mined_stack):
    data, encoder, index = mined_stack
    pruned_labels, relabeled = kb_pruning_negatives(data.train, 0.2, seed=0)
    pruned = [
        NegativeExample(query, query.base.query_id, (), PROVENANCE_KB_PRUNING)
        for query, before in zip(relabeled, data.train)
        if before.base.gold in pruned_labels
    ]
    queries, smaller = apply_kb_pruning(data.train, pruned, index)
    ids = [q.base.query_id for q in queries]
    assert len(ids) == len(set(ids)) == len(data.train)
    golds = {q.base.query_id: q.base.gold for q in queries}
    for query in data.train:
        expected = NIL if query.base.gold in pruned_labels else query.base.gold
        assert golds[query.base.query_id] == expected
    assert not pruned_labels & set(smaller.ids)
    assert smaller.n == index.n - len(pruned_labels)
    for entry_id, row in zip(smaller.ids, smaller.matrix):
        np.testing.assert_array_equal(row, index.matrix[index.ids.index(entry_id)])
    rows = mine_candidates(queries, smaller, encoder, k=10)
    assert all(not pruned_labels & set(row.candidate_ids) for row in rows)
    unchanged, same_index = apply_kb_pruning(data.train, [], index)
    assert unchanged == list(data.train) and same_index is index


# --- cross-encoder training -----------------------------------------------------

def _negatives(data, encoder, index, count, seed=3):
    negatives, _ = generate_negatives(
        data.train, index, encoder, StorytellerMock(seed=0),
        STYLE_ARGUMENT_AWARE, count, seed=seed,
    )
    return negatives


def test_all_negative_training_prefers_nil(mined_stack):
    data, encoder, index = mined_stack
    negatives = _negatives(data, encoder, index, 20)
    train_negs, held_negs = negatives[:14], negatives[14:]
    scorer = TinyCrossScorer(build_vocab(data.kb, data.train), 32, seed=0)
    cfg = TrainConfig.crossencoder_defaults(
        learning_rate=0.1, batch_size=4, epochs=5, seed=0
    )
    train_crossencoder([], train_negs, scorer, cfg, data.kb)
    rows = negative_examples(held_negs, "args")
    cand_sets = [
        CandidateSet(row.query_id, row.candidate_ids,
                     tuple(float(len(row.candidate_ids) - i) for i in range(len(row.candidate_ids))))
        for row in rows
    ]
    score_lists = score_pairs(scorer, [row.query_tokens for row in rows], cand_sets, data.kb)
    nil_hits = sum(select_learned_nil(scores, cands).prediction == NIL
                   for scores, cands in zip(score_lists, cand_sets))
    assert nil_hits / len(rows) > 0.9


def test_zero_negatives_is_plain_reranker_training(mined_stack):
    data, encoder, index = mined_stack
    positives = mine_candidates(data.train, index, encoder, k=5)
    scorer = TinyCrossScorer(build_vocab(data.kb, data.train), 32, seed=0)
    cfg = TrainConfig.crossencoder_defaults(
        learning_rate=0.1, batch_size=4, epochs=2, seed=0
    )
    report = train_crossencoder(positives, [], scorer, cfg, data.kb)
    assert len(report.epoch_losses) == 2
    assert np.isfinite(scorer.nil_embedding).all()


def test_cross_training_shuffle_ignores_insertion_order(mined_stack):
    data, encoder, index = mined_stack
    positives = mine_candidates(data.train[:12], index, encoder, k=5)
    negatives = _negatives(data, encoder, index, 6)
    cfg = TrainConfig.crossencoder_defaults(
        learning_rate=0.1, batch_size=4, epochs=2, seed=7
    )
    vocab = build_vocab(data.kb, data.train)
    a = TinyCrossScorer(vocab, 16, seed=7)
    train_crossencoder(positives, negatives, a, cfg, data.kb)
    b = TinyCrossScorer(vocab, 16, seed=7)
    train_crossencoder(list(reversed(positives)), list(reversed(negatives)), b, cfg, data.kb)
    for name, array in a.params().items():
        np.testing.assert_array_equal(array, b.params()[name])


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig.biencoder_defaults(learning_rate=0.0)
    for lr in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            TrainConfig.crossencoder_defaults(learning_rate=lr)
    with pytest.raises(ValueError):
        TrainConfig.crossencoder_defaults(epochs=-1)


def test_cross_training_ignores_negative_order(mined_stack):
    data, encoder, index = mined_stack
    positives = mine_candidates(data.train, index, encoder, k=5)
    negatives = _negatives(data, encoder, index, 12)
    cfg = TrainConfig.crossencoder_defaults(
        learning_rate=0.1, batch_size=4, epochs=1, seed=7,
    )
    vocab = build_vocab(data.kb, data.train)
    a = TinyCrossScorer(vocab, 16, seed=7)
    train_crossencoder(positives, negatives, a, cfg, data.kb)
    b = TinyCrossScorer(vocab, 16, seed=7)
    # the example order is canonical: permuting the input negatives changes nothing
    train_crossencoder(positives, list(reversed(negatives)), b, cfg, data.kb)
    for name, array in a.params().items():
        np.testing.assert_array_equal(array, b.params()[name])


def test_train_config_defaults_match_documented_values():
    bi = TrainConfig.biencoder_defaults()
    assert (bi.learning_rate, bi.batch_size, bi.epochs, bi.seed) == (1e-5, 48, 15, 0)
    cross = TrainConfig.crossencoder_defaults()
    assert (cross.learning_rate, cross.batch_size, cross.epochs, cross.seed) == (2e-5, 6, 20, 0)
    assert list(bi.to_dict()) == ["learning_rate", "batch_size", "epochs", "seed"]
    assert (RETRIEVER_MAX_LEN, SCORER_MAX_LEN) == (300, 256)
