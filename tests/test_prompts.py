from pathlib import Path

import pytest

from eventlink.extraction import Argument, EventQuery, Span, TaggedQuery
from eventlink.neggen import (
    STYLE_ARGUMENT_AWARE,
    STYLE_PLAIN,
    build_prompt,
    default_exemplars,
    negative_prompt_template,
    render_exemplar,
    strip_role_tags,
    tagged_passage,
)
from eventlink.rerank import build_rerank_prompt, rerank_prompt_template
from eventlink.retrieval import CandidateSet

from conftest import kb_of

DATA = Path(__file__).parent / "data"


def _golden(name: str) -> str:
    return (DATA / name).read_text(encoding="utf-8")


@pytest.fixture
def fixture_tagged():
    base = EventQuery(
        query_id="fix-1",
        tokens=tuple("In 1941 , Germany invaded the Soviet Union during the war .".split()),
        mention=Span(4, 4),
        pos="verb",
        gold="E7",
    )
    return TaggedQuery(
        base,
        "Attack",
        (
            Argument(Span(3, 3), "Assailant"),
            Argument(Span(5, 7), "Victim"),
            Argument(Span(1, 1), "Time"),
        ),
    )


@pytest.fixture
def kb10():
    return kb_of(
        [(f"E{i}", f"Battle {i}", f"An account of battle number {i} .") for i in range(10)]
    )


def test_templates_match_golden_transcriptions():
    assert negative_prompt_template(STYLE_ARGUMENT_AWARE) == _golden(
        "template_negative_argument_aware.golden.txt"
    )
    assert negative_prompt_template(STYLE_PLAIN) == _golden("template_negative_plain.golden.txt")
    assert rerank_prompt_template(allow_nil=False) == _golden("template_rerank.golden.txt")
    assert rerank_prompt_template(allow_nil=True) == _golden("template_rerank_nil.golden.txt")


def test_argument_aware_template_carries_key_lines():
    template = negative_prompt_template(STYLE_ARGUMENT_AWARE)
    assert template.startswith("You are a storyteller")
    assert 'don\'t remove any argument role tags in the form of "<role> </role>"' in template
    assert 'event is of the type "{event type}"' in template
    # the type sentence belongs to the argument-aware prompt only
    assert "event is of the type" not in negative_prompt_template(STYLE_PLAIN)


def test_rerank_nil_template_carries_nil_sentence():
    template = rerank_prompt_template(allow_nil=True)
    assert "The passage should be labeled as NIL." in template
    assert "The passage should be labeled as NIL." not in rerank_prompt_template(allow_nil=False)


def test_build_prompt_byte_exact_argument_aware(fixture_tagged):
    assert build_prompt(fixture_tagged, STYLE_ARGUMENT_AWARE) == _golden(
        "prompt_negative_args.golden.txt"
    )


def test_build_prompt_byte_exact_plain(fixture_tagged):
    assert build_prompt(fixture_tagged, STYLE_PLAIN) == _golden("prompt_negative_plain.golden.txt")


def test_build_prompt_no_leftover_placeholders(fixture_tagged):
    for style in (STYLE_ARGUMENT_AWARE, STYLE_PLAIN):
        filled = build_prompt(fixture_tagged, style)
        assert "{Example 1}" not in filled
        assert "{Example 2}" not in filled
        assert "Passage: {}" not in filled
        assert "{event mention text span}" not in filled
    # the literal doubled braces describing the answer format must survive
    assert "{{passage after Step 2}}" in build_prompt(fixture_tagged, STYLE_ARGUMENT_AWARE)


def test_prompts_share_passage_text_across_styles(fixture_tagged):
    args_prompt = build_prompt(fixture_tagged, STYLE_ARGUMENT_AWARE)
    plain_prompt = build_prompt(fixture_tagged, STYLE_PLAIN)
    tagged = tagged_passage(fixture_tagged, include_roles=True)
    plain = tagged_passage(fixture_tagged, include_roles=False)
    assert tagged in args_prompt
    assert plain in plain_prompt
    assert strip_role_tags(tagged) == plain


def test_tagged_passage_shapes(fixture_tagged):
    tagged = tagged_passage(fixture_tagged, include_roles=True)
    assert "<mention> invaded </mention>" in tagged
    assert "<Victim> the Soviet Union </Victim>" in tagged
    plain = tagged_passage(fixture_tagged, include_roles=False)
    assert "<Victim>" not in plain
    assert "<mention> invaded </mention>" in plain


def test_exemplars_render_identically_modulo_tags():
    for exemplar in default_exemplars():
        args_block = render_exemplar(exemplar, STYLE_ARGUMENT_AWARE)
        plain_block = render_exemplar(exemplar, STYLE_PLAIN)
        stripped = strip_role_tags(exemplar.passage)
        assert stripped in plain_block
        assert exemplar.passage in args_block


def test_build_prompt_requires_event_type(fixture_tagged):
    from dataclasses import replace

    untyped = replace(fixture_tagged, event_type="")
    with pytest.raises(ValueError, match="event type"):
        build_prompt(untyped, STYLE_ARGUMENT_AWARE)


def test_rerank_prompt_byte_exact(kb10):
    cands = CandidateSet(
        "fix-1", tuple(f"E{i}" for i in range(10)), tuple(float(10 - i) for i in range(10))
    )
    passage = "Germany invaded the Soviet Union ."
    assert build_rerank_prompt(passage, cands, kb10, allow_nil=False) == _golden(
        "prompt_rerank.golden.txt"
    )
    assert build_rerank_prompt(passage, cands, kb10, allow_nil=True) == _golden(
        "prompt_rerank_nil.golden.txt"
    )


def test_rerank_prompt_document_block_shape(kb10):
    cands = CandidateSet(
        "fix-1", tuple(f"E{i}" for i in range(10)), tuple(float(10 - i) for i in range(10))
    )
    filled = build_rerank_prompt("some passage", cands, kb10, allow_nil=False)
    assert "{actual input}" not in filled
    for i in range(1, 11):
        assert f"Document {i}: Battle {i - 1}" in filled
    assert filled.rstrip().endswith("Short passage containing an event: some passage")
