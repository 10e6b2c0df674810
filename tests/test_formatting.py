import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eventlink.extraction import (
    Argument,
    EventQuery,
    NamedEntityAnnotation,
    Span,
    TaggedQuery,
    resolve_overlaps,
)
from eventlink.formatting import (
    context_window,
    format_arguments,
    format_evelink,
    format_query,
    group_markers,
    strip_markers,
)

DATA = Path(__file__).parent / "data"


def q(tokens, mention, **kw):
    return EventQuery("q", tuple(tokens.split()), mention, **kw)


def blink(query, max_len):
    return format_query(TaggedQuery(query), "blink", max_len)


# --- blink -------------------------------------------------------------------

def test_blink_basic():
    query = q("Germany invaded Poland", Span(1, 1))
    assert blink(query, 300) == ["Germany", "[M_s]", "invaded", "[M_e]", "Poland"]


def test_blink_boundary_mention():
    query = q("Germany invaded Poland", Span(0, 0))
    assert blink(query, 300) == ["[M_s]", "Germany", "[M_e]", "invaded", "Poland"]


def test_blink_window_tie_is_left_heavy():
    # both width-4 windows hold the marked mention; the tie rule places
    # the mention right of center, so the left window wins
    query = q("Germany invaded Poland", Span(1, 1))
    marked = ["Germany", "[M_s]", "invaded", "[M_e]", "Poland"]
    valid = [marked[s : s + 4] for s in (0, 1)]
    out = blink(query, 4)
    assert out in valid
    assert out == ["Germany", "[M_s]", "invaded", "[M_e]"]


def test_blink_budget_too_small_for_mention():
    query = q("a b c", Span(0, 1))
    with pytest.raises(ValueError):
        blink(query, 3)


def test_blink_window_clamps_at_edges():
    query = q("a b c d e f", Span(0, 0))
    assert blink(query, 4) == ["[M_s]", "a", "[M_e]", "b"]
    query = q("a b c d e f", Span(5, 5))
    assert blink(query, 4) == ["e", "[M_s]", "f", "[M_e]"]


# --- format_evelink ----------------------------------------------------------

def test_evelink_basic():
    query = q("Germany invaded Poland", Span(1, 1))
    entities = [NamedEntityAnnotation(Span(0, 0), "GPE")]
    assert format_evelink(query, entities, 300) == [
        "Germany", "[M_s]", "invaded", "[M_e]", "Poland",
        "[SEP]", "[GPE_s]", "Germany", "[GPE_e]",
    ]


def test_evelink_zero_entities():
    query = q("Germany invaded Poland", Span(1, 1))
    assert format_evelink(query, [], 300) == blink(query, 300) + ["[SEP]"]


def test_evelink_budget_allows_one_entity():
    query = q("Germany invaded Poland", Span(1, 1))
    entities = [
        NamedEntityAnnotation(Span(0, 0), "GPE"),
        NamedEntityAnnotation(Span(2, 2), "GPE"),
    ]
    assert format_evelink(query, entities, 9) == [
        "Germany", "[M_s]", "invaded", "[M_e]", "Poland",
        "[SEP]", "[GPE_s]", "Germany", "[GPE_e]",
    ]


def test_evelink_query_text_beats_entities():
    query = q("Germany invaded Poland", Span(1, 1))
    entities = [NamedEntityAnnotation(Span(0, 0), "GPE")]
    assert format_evelink(query, entities, 7) == [
        "Germany", "[M_s]", "invaded", "[M_e]", "Poland", "[SEP]",
    ]


def test_evelink_windows_base_when_everything_dropped():
    query = q("a b c d e f g h i j", Span(0, 0))
    out = format_evelink(query, [NamedEntityAnnotation(Span(9, 9), "ORG")], 8)
    assert out == ["[M_s]", "a", "[M_e]", "b", "c", "d", "e", "[SEP]"]


def test_evelink_entity_out_of_bounds():
    query = q("a b", Span(0, 0))
    with pytest.raises(ValueError, match="entity"):
        format_evelink(query, [NamedEntityAnnotation(Span(5, 5), "ORG")], 50)


# --- format_arguments --------------------------------------------------------

def test_arguments_inline_serialization(invasion_tagged):
    assert format_arguments(invasion_tagged, 300) == [
        "[Assailant_s]", "Germany", "[Assailant_e]",
        "[M_s]", "invaded", "[M_e]",
        "[Victim_s]", "the", "Soviet", "Union", "[Victim_e]",
    ]


def test_arguments_zero_args_equals_blink(invasion_tagged):
    # the blink style ignores the arguments of a tagged query
    untagged = TaggedQuery(invasion_tagged.base, "Attack", ())
    for max_len in (4, 5, 7, 300):
        blink_out = format_query(invasion_tagged, "blink", max_len)
        assert format_arguments(untagged, max_len) == blink_out


def _two_group_query():
    base = q("a b c d e f g h i j", Span(4, 4))
    return TaggedQuery(
        base,
        "T",
        (Argument(Span(0, 1), "X"), Argument(Span(8, 9), "Y")),
    )


def test_arguments_truncation_drops_whole_groups():
    # centered width-10 window straddles the left group, which is then
    # dropped whole; neither group can be re-included within budget
    tagged = _two_group_query()
    assert format_arguments(tagged, 10) == [
        "c", "d", "[M_s]", "e", "[M_e]", "f", "g", "h",
    ]


def test_arguments_truncation_keeps_near_group_drops_far():
    # width 12 re-includes the whole near group; the group farther from
    # the mention stays dropped
    tagged = _two_group_query()
    assert format_arguments(tagged, 12) == [
        "[X_s]", "a", "b", "[X_e]", "c", "d", "[M_s]", "e", "[M_e]", "f", "g", "h",
    ]


def test_arguments_never_splits_group():
    tagged = _two_group_query()
    for max_len in range(5, 17):
        out = format_arguments(tagged, max_len)
        for name in ("X", "Y"):
            assert (f"[{name}_s]" in out) == (f"[{name}_e]" in out)


# --- strip_markers and shared helpers ---------------------------------------

def test_strip_markers_identity_without_markers():
    assert strip_markers(["plain", "words"]) == ["plain", "words"]


def test_strip_markers_round_trip(invasion_tagged):
    out = format_arguments(invasion_tagged, 300)
    assert strip_markers(out) == list(invasion_tagged.base.tokens)


def test_context_window_whole_query_when_short():
    assert context_window(("a", "b", "c"), Span(1, 1), 16) == ["a", "b", "c"]


def test_context_window_centering():
    tokens = tuple(f"t{i}" for i in range(20))
    out = context_window(tokens, Span(10, 10), 4)
    # mention sits right of center on ties
    assert out == ["t8", "t9", "t10", "t11"]


def test_context_window_inside_wide_mention():
    tokens = tuple(f"t{i}" for i in range(20))
    # an odd surplus drops one more token on the right, as ties lean left
    assert context_window(tokens, Span(2, 8), 4) == ["t3", "t4", "t5", "t6"]
    assert context_window(tokens, Span(2, 7), 4) == ["t3", "t4", "t5", "t6"]
    assert context_window(tokens, Span(0, 19), 1) == ["t9"]


def test_format_query_dispatch(invasion_tagged):
    assert format_query(invasion_tagged, "blink", 300) == format_arguments(
        TaggedQuery(invasion_tagged.base), 300
    )
    assert format_query(invasion_tagged, "args", 300) == format_arguments(invasion_tagged, 300)
    with pytest.raises(ValueError, match="style"):
        format_query(invasion_tagged, "nope", 300)


# --- golden fixture ----------------------------------------------------------

def test_formatting_golden_fixture():
    fixture = json.loads((DATA / "formatting_golden.json").read_text(encoding="utf-8"))
    assert len(fixture) == 20
    for case in fixture:
        base = EventQuery(
            query_id=case["query_id"],
            tokens=tuple(case["tokens"]),
            mention=Span(case["mention_start"], case["mention_end"]),
        )
        tagged = TaggedQuery(
            base=base,
            event_type="T",
            arguments=tuple(
                Argument(Span(a["start"], a["end"]), a["role"]) for a in case["arguments"]
            ),
        )
        entities = [
            NamedEntityAnnotation(Span(e["start"], e["end"]), e["entity_type"])
            for e in case["entities"]
        ]
        max_len = case["max_len"]
        assert blink(base, max_len) == case["blink"], case["query_id"]
        assert format_evelink(base, entities, max_len) == case["evelink"], case["query_id"]
        assert format_arguments(tagged, max_len) == case["args"], case["query_id"]


# --- properties --------------------------------------------------------------

_WORDS = ["war", "city", "fleet", "north", "council", "river", "siege", "spring"]


@st.composite
def tagged_query_cases(draw):
    n = draw(st.integers(min_value=3, max_value=24))
    tokens = tuple(draw(st.sampled_from(_WORDS)) for _ in range(n))
    m_start = draw(st.integers(0, n - 1))
    m_end = draw(st.integers(m_start, min(n - 1, m_start + 2)))
    mention = Span(m_start, m_end)
    raw_args = []
    for _ in range(draw(st.integers(0, 3))):
        a_start = draw(st.integers(0, n - 1))
        a_end = draw(st.integers(a_start, min(n - 1, a_start + 3)))
        raw_args.append(Argument(Span(a_start, a_end), draw(st.sampled_from("ABC"))))
    arguments = resolve_overlaps(raw_args, mention, n)
    base = EventQuery("q", tokens, mention)
    tagged = TaggedQuery(base, "T", arguments)
    max_len = draw(st.integers(len(mention) + 2, n + 12))
    return tagged, max_len


def _is_contiguous_window(window, tokens):
    if not window:
        return False
    text = "\x00" + "\x00".join(tokens) + "\x00"
    return "\x00" + "\x00".join(window) + "\x00" in text


@given(tagged_query_cases())
@settings(max_examples=200)
def test_property_marked_formats(case):
    tagged, max_len = case
    for out in (blink(tagged.base, max_len), format_arguments(tagged, max_len)):
        assert len(out) <= max_len
        assert out.count("[M_s]") == 1 and out.count("[M_e]") == 1
        assert out.index("[M_s]") < out.index("[M_e]")
        stripped = strip_markers(out)
        assert _is_contiguous_window(stripped, tagged.base.tokens)
    out = format_arguments(tagged, max_len)
    for arg in tagged.arguments:
        start, end = group_markers(arg.role)
        assert (start in out) == (end in out)
