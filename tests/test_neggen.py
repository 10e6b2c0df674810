import json
from pathlib import Path

import pytest

from eventlink.encoders import TinyEncoder
from eventlink.extraction import Argument, EventQuery, Span, TaggedQuery
from eventlink.kb import NIL
from eventlink.llm import TRANSPORT_RETRIES, LLMTransportError, ScriptedClient
from eventlink.neggen import (
    STYLE_ARGUMENT_AWARE,
    STYLE_PLAIN,
    NegativeExample,
    PassageParseError,
    build_prompt,
    generate_negatives,
    kb_pruning_negatives,
    parse_completion,
    passage_to_tagged,
    sample_filter,
    tagged_passage,
)
from eventlink.retrieval import build_index
from eventlink.toy import StorytellerMock, build_toy_data
from eventlink.training import build_vocab


def _tagged(tokens, mention, pos="verb", n_args=2, gold="E1"):
    toks = tuple(tokens.split())
    args = []
    positions = [i for i in range(len(toks)) if not mention.overlaps(Span(i, i))]
    for i in positions[:n_args]:
        args.append(Argument(Span(i, i), f"R{i}"))
    base = EventQuery("q", toks, mention, pos=pos, gold=gold)
    return TaggedQuery(base, "Type", tuple(args))


# --- sample_filter -----------------------------------------------------------

def test_filter_keeps_common_verb_with_two_args():
    q = _tagged("Germany invaded the Soviet Union", Span(1, 1), n_args=2)
    assert sample_filter([q]) == [q]


def test_filter_excludes_proper_noun_mention():
    q = _tagged("the battle of Waterloo ended", Span(3, 3), n_args=2)
    assert sample_filter([q]) == []


def test_filter_excludes_numeric_mention():
    q = _tagged("the 1848 revolutions spread", Span(1, 1), n_args=2)
    assert sample_filter([q]) == []


def test_filter_excludes_fewer_than_two_args():
    q = _tagged("Germany invaded the Soviet Union", Span(1, 1), n_args=1)
    assert sample_filter([q]) == []


def test_filter_sentence_initial_capital_is_not_proper_noun():
    q = _tagged("Invasions swept the coast this year", Span(0, 0), n_args=2)
    assert sample_filter([q]) == [q]


def test_filter_idempotent():
    pool = [
        _tagged("Germany invaded the Soviet Union", Span(1, 1), n_args=2),
        _tagged("the battle of Waterloo ended", Span(3, 3), n_args=2),
        _tagged("armies clashed near the river", Span(1, 1), n_args=3),
    ]
    once = sample_filter(pool)
    assert sample_filter(once) == once


# --- parse_completion ---------------------------------------------------------

GOOD_COMPLETION = (
    "Plan 1: swap the details.\n"
    "Following Plan 1, we can generate this passage after Step 1: "
    "<A> Xan </A> <mention> invaded </mention> <B> Yor </B> .\n"
    "Plan 2: polish.\n"
    "Following Plan 2, we can generate this passage after Step 2: "
    "<A> Xan </A> <mention> invaded </mention> <B> Yorland </B> ."
)


def test_parse_two_step_completion(invasion_tagged):
    segments = parse_completion(GOOD_COMPLETION, STYLE_ARGUMENT_AWARE)
    assert segments == {
        "plan_edit": "swap the details.",
        "passage_after_edit": "<A> Xan </A> <mention> invaded </mention> <B> Yor </B> .",
        "plan_polish": "polish.",
        "passage_after_polish": "<A> Xan </A> <mention> invaded </mention> <B> Yorland </B> .",
    }
    decoded = passage_to_tagged(segments["passage_after_polish"], invasion_tagged, "n")
    assert decoded.base.tokens == ("Xan", "invaded", "Yorland", ".")
    assert decoded.base.mention == Span(1, 1)


def test_parse_rejects_missing_mention_tags(invasion_tagged):
    completion = GOOD_COMPLETION.replace("</mention>", "")
    passage = parse_completion(completion, STYLE_ARGUMENT_AWARE)["passage_after_polish"]
    with pytest.raises(PassageParseError, match="^mention tags removed$"):
        passage_to_tagged(passage, invasion_tagged, "n")


def test_parse_rejects_unbalanced_role_tags(invasion_tagged):
    completion = GOOD_COMPLETION.replace("</B> .", ".")
    passage = parse_completion(completion, STYLE_ARGUMENT_AWARE)["passage_after_polish"]
    with pytest.raises(PassageParseError, match="unterminated tags"):
        passage_to_tagged(passage, invasion_tagged, "n")


def test_parse_rejects_missing_segments(toy_stack):
    # the plain pattern alone does not satisfy the two-step format
    assert parse_completion("New passage: a <mention> b </mention>", STYLE_ARGUMENT_AWARE) is None
    data, encoder, index = toy_stack
    for style, reason in ((STYLE_ARGUMENT_AWARE, "missing plan or passage segments"),
                          (STYLE_PLAIN, "missing generated passage")):
        assert parse_completion("no structure at all", style) is None
        _, records = generate_negatives(
            data.train, index, encoder, ScriptedClient(["no structure at all"]), style, 1,
        )
        assert [(r.status, r.reason) for r in records if r.completion] == [("rejected", reason)]


def test_parse_plain_style():
    segments = parse_completion(
        "New passage: the fleet <mention> sank </mention> off Qarr .", STYLE_PLAIN
    )
    assert segments == {"passage_after_polish": "the fleet <mention> sank </mention> off Qarr ."}


def _completion(passage, style):
    if style == STYLE_PLAIN:
        return f"New passage: {passage}"
    return GOOD_COMPLETION.replace(
        "<A> Xan </A> <mention> invaded </mention> <B> Yorland </B> .", passage
    )


class _EchoClient:
    """Answers every prompt with its origin's own passage, unchanged."""

    def __init__(self, pool, style):
        roles = style == STYLE_ARGUMENT_AWARE
        self.answers = {build_prompt(q, style): _completion(tagged_passage(q, roles), style)
                        for q in sample_filter(pool)}

    def complete(self, prompt):
        return self.answers[prompt]


def test_parse_rejects_unchanged_passage(toy_stack):
    data, encoder, index = toy_stack
    for style in (STYLE_ARGUMENT_AWARE, STYLE_PLAIN):
        negatives, records = generate_negatives(
            data.train, index, encoder, _EchoClient(data.train, style), style, 2, seed=1,
        )
        assert negatives == []
        assert len(records) == len(sample_filter(data.train))
        assert all(r.status == "rejected" and r.reason == "unchanged" for r in records)


# Each malformed final passage and the reason its generation record logs,
# the same in both styles.
_MALFORMED = {
    "no tags": ("Xan clashed Yorland .", "mention tags removed"),
    "two mentions": ("<A> Xan </A> <mention> clashed </mention> <mention> fought </mention> .",
                     "malformed passage: duplicate mention tags"),
    "close before open": ("<A> Xan </A> </mention> clashed <mention> .",
                          "malformed passage: empty or unopened mention span"),
    "empty mention": ("<A> Xan </A> <mention> </mention> clashed .",
                      "malformed passage: empty or unopened mention span"),
    "unclosed mention": ("<A> Xan </A> <mention> clashed .", "mention tags removed"),
    "nested role": ("<A> Xan <B> Yorland </B> </A> <mention> clashed </mention> .",
                    "malformed passage: nested role tags"),
    "mismatched close": ("<A> Xan </B> <mention> clashed </mention> .",
                         "malformed passage: mismatched closing tag 'B'"),
    "unclosed role": ("<A> Xan </A> <mention> clashed </mention> <B> Yorland .",
                      "malformed passage: unterminated tags in passage"),
    "empty role": ("<A> </A> Xan <mention> clashed </mention> .",
                   "malformed passage: empty role span 'A'"),
    "role close without open": ("Xan </A> <mention> clashed </mention> .",
                                "malformed passage: mismatched closing tag 'A'"),
}


@pytest.mark.parametrize("shape", list(_MALFORMED))
@pytest.mark.parametrize("style", [STYLE_ARGUMENT_AWARE, STYLE_PLAIN])
def test_malformed_passage_is_rejected_with_the_decoder_reason(toy_stack, style, shape):
    data, encoder, index = toy_stack
    passage, reason = _MALFORMED[shape]
    client = ScriptedClient([_completion(passage, style)])
    negatives, records = generate_negatives(
        data.train, index, encoder, client, style, 1, seed=0,
    )
    assert negatives == []
    # the one completion is rejected, then the dry script ends the run
    assert sorted((r.status, r.reason, r.passage_after_polish) for r in records) == [
        ("rejected", reason, passage),
        ("skipped", "scripted client has no completions left", None),
    ]


def test_plain_style_rejects_role_tags_that_argument_aware_accepts(toy_stack):
    data, encoder, index = toy_stack
    passage = "<Attacker> Xan </Attacker> <mention> clashed </mention> ."
    reasons = {}
    for style in (STYLE_ARGUMENT_AWARE, STYLE_PLAIN):
        client = ScriptedClient([_completion(passage, style)])
        negatives, records = generate_negatives(
            data.train, index, encoder, client, style, 1, seed=0,
        )
        assert [n.generated.arguments for n in negatives] == (
            [(Argument(Span(0, 0), "Attacker"),)] if style == STYLE_ARGUMENT_AWARE else [])
        reasons[style] = sorted((r.status, r.reason) for r in records)
    assert reasons == {
        STYLE_ARGUMENT_AWARE: [("accepted", None)],
        STYLE_PLAIN: [
            ("rejected", "malformed passage: role tags in a plain-style passage"),
            ("skipped", "scripted client has no completions left"),
        ],
    }


# --- passage_to_tagged ----------------------------------------------------------

def test_passage_round_trip(invasion_tagged):
    passage = tagged_passage(invasion_tagged, include_roles=True)
    rebuilt = passage_to_tagged(passage, invasion_tagged, "q::neg")
    assert rebuilt.base.tokens == invasion_tagged.base.tokens
    assert rebuilt.base.mention == invasion_tagged.base.mention
    assert rebuilt.base.gold == NIL
    assert rebuilt.arguments == invasion_tagged.arguments
    assert rebuilt.event_type == invasion_tagged.event_type


def test_passage_to_tagged_rejects_nested_tags(invasion_tagged):
    with pytest.raises(PassageParseError):
        passage_to_tagged("<A> x <B> y </B> z </A> <mention> hit </mention>", invasion_tagged, "n")


def test_passage_to_tagged_rejects_unterminated(invasion_tagged):
    with pytest.raises(PassageParseError):
        passage_to_tagged("<mention> hit </mention> <A> x", invasion_tagged, "n")


# --- generate_negatives ---------------------------------------------------------

@pytest.fixture(scope="module")
def toy_stack():
    data = build_toy_data(n_entries=20, n_train=60, n_test=10, seed=11)
    vocab = build_vocab(data.kb, data.train)
    encoder = TinyEncoder(vocab, 32, seed=1)
    index = build_index(data.kb, encoder, 300)
    return data, encoder, index


def test_generate_negatives_pipeline(toy_stack):
    data, encoder, index = toy_stack
    negatives, records = generate_negatives(
        data.train, index, encoder, StorytellerMock(seed=2),
        STYLE_ARGUMENT_AWARE, 12, seed=3,
    )
    assert len(negatives) == 12
    for negative in negatives:
        assert negative.generated.base.gold == NIL
        assert len(negative.paired_candidate_ids) == 10
        assert negative.provenance == STYLE_ARGUMENT_AWARE
        assert len(negative.generated.arguments) >= 2
    assert all(r.status == "accepted" for r in records)
    origin_ids = [n.origin_query_id for n in negatives]
    assert origin_ids == sorted(origin_ids)


def test_generate_negatives_origin_pairing_may_contain_gold(toy_stack):
    data, encoder, index = toy_stack
    negatives, _ = generate_negatives(
        data.train, index, encoder, StorytellerMock(seed=2),
        STYLE_ARGUMENT_AWARE, 20, seed=3,
    )
    by_id = {q.base.query_id: q for q in data.train}
    hits = sum(
        by_id[n.origin_query_id].base.gold in n.paired_candidate_ids for n in negatives
    )
    assert hits > 0  # pairing uses the origin query, so its gold can appear


def test_generate_negatives_reproducible(toy_stack):
    data, encoder, index = toy_stack
    first, first_records = generate_negatives(
        data.train, index, encoder, StorytellerMock(seed=2),
        STYLE_ARGUMENT_AWARE, 8, seed=9,
    )
    second, second_records = generate_negatives(
        data.train, index, encoder, StorytellerMock(seed=2),
        STYLE_ARGUMENT_AWARE, 8, seed=9,
    )
    assert [n.to_record() for n in first] == [n.to_record() for n in second]
    assert [r.to_record() for r in first_records] == [r.to_record() for r in second_records]


class _TagDropper:
    def complete(self, prompt):
        return (
            "Plan 1: x\nFollowing Plan 1, we can generate this passage after Step 1: no tags\n"
            "Plan 2: y\nFollowing Plan 2, we can generate this passage after Step 2: no tags"
        )


def test_generate_negatives_all_rejected(toy_stack):
    data, encoder, index = toy_stack
    negatives, records = generate_negatives(
        data.train, index, encoder, _TagDropper(), STYLE_ARGUMENT_AWARE, 5, seed=1,
    )
    assert negatives == []
    assert records and all(r.status == "rejected" for r in records)
    assert all(r.reason == "mention tags removed" for r in records)


class _FlakyClient:
    def __init__(self):
        self.calls = 0

    def complete(self, prompt):
        self.calls += 1
        raise LLMTransportError("connection reset")


def test_generate_negatives_transport_failures_logged(toy_stack):
    data, encoder, index = toy_stack
    client = _FlakyClient()
    negatives, records = generate_negatives(
        data.train, index, encoder, client, STYLE_PLAIN, 3, seed=1,
    )
    assert negatives == []
    assert all(r.status == "skipped" for r in records)
    assert all(r.reason == "connection reset" for r in records)
    assert client.calls == len(records) * (TRANSPORT_RETRIES + 1)


def test_plain_style_negatives_have_no_arguments(toy_stack):
    data, encoder, index = toy_stack
    negatives, _ = generate_negatives(
        data.train, index, encoder, StorytellerMock(seed=2), STYLE_PLAIN, 4, seed=3,
    )
    assert len(negatives) == 4
    for negative in negatives:
        assert negative.generated.arguments == ()
        assert negative.provenance == STYLE_PLAIN


# Written by the code that preceded the shared marker walk and retry loop;
# the scripted case's log was cut to one skipped record once a dry script
# began ending the run.
_GOLDEN = Path(__file__).parent / "data" / "neggen_golden.jsonl"

_SCRIPTED_ACCEPTED = (
    "Plan 1: swap the details.\n"
    "Following Plan 1, we can generate this passage after Step 1: "
    "<A> Xan </A> <mention> clashed </mention> <B> Yor </B> .\n"
    "Plan 2: polish.\n"
    "Following Plan 2, we can generate this passage after Step 2: "
    "<A> Xan </A> <mention> clashed </mention> <B> Yorland </B> ."
)
_SCRIPTED_NESTED = _SCRIPTED_ACCEPTED.replace(
    "<A> Xan </A> <mention> clashed </mention> <B> Yorland </B>",
    "<A> Xan <B> Yorland </B> </A> <mention> clashed </mention>",
)


def test_generation_matches_golden_file_byte_for_byte():
    # both styles from the storyteller, then a script with one accepted and
    # one malformed completion that runs dry, so every log status is pinned
    data = build_toy_data(n_entries=20, n_train=10, n_test=2, seed=11)
    encoder = TinyEncoder(build_vocab(data.kb, data.train), 32, seed=1)
    index = build_index(data.kb, encoder, 300)
    cases = [
        ("storyteller-" + STYLE_ARGUMENT_AWARE, StorytellerMock(seed=2), STYLE_ARGUMENT_AWARE),
        ("storyteller-" + STYLE_PLAIN, StorytellerMock(seed=2), STYLE_PLAIN),
        ("scripted-" + STYLE_ARGUMENT_AWARE,
         ScriptedClient([_SCRIPTED_ACCEPTED, _SCRIPTED_NESTED]), STYLE_ARGUMENT_AWARE),
    ]
    lines, statuses = [], set()
    for name, client, style in cases:
        negatives, records = generate_negatives(
            data.train, index, encoder, client, style, 3, seed=3
        )
        lines += [json.dumps({"case": name, "negative": n.to_record()}, sort_keys=True)
                  for n in negatives]
        lines += [json.dumps({"case": name, "log": r.to_record()}, sort_keys=True)
                  for r in records]
        statuses.update(r.status for r in records)
    assert statuses == {"accepted", "rejected", "skipped"}
    assert ("\n".join(lines) + "\n").encode("utf-8") == _GOLDEN.read_bytes()


def test_negative_example_invariants(invasion_tagged):
    from dataclasses import replace

    nil_query = replace(invasion_tagged, base=replace(invasion_tagged.base, gold=NIL))
    with pytest.raises(ValueError, match="NIL"):
        NegativeExample(invasion_tagged, "q", ("E1",), STYLE_ARGUMENT_AWARE)
    with pytest.raises(ValueError, match="paired"):
        NegativeExample(nil_query, "q", (), STYLE_ARGUMENT_AWARE)
    NegativeExample(nil_query, "q", (), "kb_pruning")  # allowed for pruning


def test_negative_record_round_trip(invasion_tagged):
    from dataclasses import replace

    nil_query = replace(invasion_tagged, base=replace(invasion_tagged.base, gold=NIL))
    negative = NegativeExample(nil_query, "q", ("E1", "E2"), STYLE_ARGUMENT_AWARE)
    assert NegativeExample.from_record(negative.to_record()) == negative


# --- kb_pruning ------------------------------------------------------------------

def test_kb_pruning_exact_ceiling():
    queries = [
        _tagged(f"army {i} moved north this year", Span(2, 2), gold=f"E{i % 10}")
        for i in range(30)
    ]
    pruned, relabeled = kb_pruning_negatives(queries, 0.1, seed=4)
    assert len(pruned) == 1  # ceil(0.1 * 10)
    for before, after in zip(queries, relabeled):
        if before.base.gold in pruned:
            assert after.base.gold == NIL
        else:
            assert after == before


def test_kb_pruning_relabels_exactly_the_pruned(toy_stack):
    data, _, _ = toy_stack
    pruned, relabeled = kb_pruning_negatives(data.train, 0.1, seed=0)
    changed = {
        after.base.query_id
        for before, after in zip(data.train, relabeled)
        if after.base.gold != before.base.gold
    }
    expected = {q.base.query_id for q in data.train if q.base.gold in pruned}
    assert changed == expected


def test_kb_pruning_fraction_bounds():
    with pytest.raises(ValueError):
        kb_pruning_negatives([], 0.0, 0)
    with pytest.raises(ValueError):
        kb_pruning_negatives([], 1.0, 0)
