import pytest

from eventlink.extraction import (
    Argument,
    EventQuery,
    ExtractionError,
    RoleLexicon,
    RuleExtractor,
    Span,
    TaggedQuery,
    extract,
    query_from_record,
    query_to_record,
    resolve_overlaps,
    tagged_from_record,
    tagged_to_record,
)


class _StubExtractor:
    def __init__(self, event_type, arguments):
        self._out = (event_type, arguments)

    def tag(self, query):
        return self._out


class _FailingExtractor:
    def tag(self, query):
        raise RuntimeError("backend unavailable")


def test_span_validation():
    with pytest.raises(ValueError):
        Span(2, 1)
    with pytest.raises(ValueError):
        Span(-1, 0)
    assert len(Span(2, 4)) == 3


def test_mention_must_fit_tokens():
    with pytest.raises(ValueError):
        EventQuery("q", ("a", "b"), Span(1, 2))


def test_tagged_invariants_reject_overlap(invasion_query):
    with pytest.raises(ValueError, match="mention"):
        TaggedQuery(invasion_query, "T", (Argument(Span(1, 2), "R"),))
    with pytest.raises(ValueError, match="overlap"):
        TaggedQuery(
            invasion_query,
            "T",
            (Argument(Span(2, 3), "R"), Argument(Span(3, 4), "S")),
        )


def test_extract_keeps_base_untouched(invasion_query):
    stub = _StubExtractor("Attack", [Argument(Span(0, 0), "Assailant")])
    tagged = extract(stub, invasion_query)
    assert tagged.base is invasion_query
    assert tagged.event_type == "Attack"
    assert tagged.arguments == (Argument(Span(0, 0), "Assailant"),)


def test_extract_empty_output_is_legal(invasion_query):
    tagged = extract(_StubExtractor("", []), invasion_query)
    assert tagged.event_type == "UNKNOWN"
    assert tagged.arguments == ()


def test_extract_overlapping_spans_keep_longest(invasion_query):
    stub = _StubExtractor(
        "Attack",
        [Argument(Span(2, 2), "Short"), Argument(Span(2, 4), "Long")],
    )
    tagged = extract(stub, invasion_query)
    assert tagged.arguments == (Argument(Span(2, 4), "Long"),)


def test_extract_drops_mention_overlap(invasion_query):
    stub = _StubExtractor("Attack", [Argument(Span(0, 1), "Bad")])
    assert extract(stub, invasion_query).arguments == ()


def test_extract_failure_carries_query_id(invasion_query):
    with pytest.raises(ExtractionError, match="q-invasion"):
        extract(_FailingExtractor(), invasion_query)


def test_resolve_overlaps_tie_earlier_start():
    mention = Span(9, 9)
    args = [Argument(Span(2, 3), "B"), Argument(Span(1, 2), "A")]
    kept = resolve_overlaps(args, mention, 10)
    assert kept == (Argument(Span(1, 2), "A"),)


def test_rule_extractor_exact_case_insensitive(invasion_query):
    lexicon = RoleLexicon(roles={"germany": "Assailant"}, triggers={"invaded": "Attack"})
    tagged = extract(RuleExtractor(lexicon), invasion_query)
    assert tagged.event_type == "Attack"
    assert tagged.arguments == (Argument(Span(0, 0), "Assailant"),)


def test_rule_extractor_no_match():
    lexicon = RoleLexicon(roles={"germany": "Assailant"}, triggers={})
    query = EventQuery("q", ("France", "fell"), Span(1, 1))
    tagged = extract(RuleExtractor(lexicon), query)
    assert tagged.arguments == ()
    assert tagged.event_type == "UNKNOWN"


def test_rule_extractor_adjacent_matches_disjoint():
    lexicon = RoleLexicon(roles={"red": "A", "blue": "B"}, triggers={})
    query = EventQuery("q", ("red", "blue", "won"), Span(2, 2))
    tagged = extract(RuleExtractor(lexicon), query)
    assert tagged.arguments == (
        Argument(Span(0, 0), "A"),
        Argument(Span(1, 1), "B"),
    )


def test_rule_extractor_longest_phrase_first(invasion_query):
    lexicon = RoleLexicon(
        roles={"the soviet union": "Victim", "soviet": "Wrong"},
        triggers={},
    )
    tagged = extract(RuleExtractor(lexicon), invasion_query)
    assert tagged.arguments == (Argument(Span(2, 4), "Victim"),)


def test_rule_extractor_deterministic(invasion_query):
    lexicon = RoleLexicon(
        roles={"germany": "Assailant", "the soviet union": "Victim"},
        triggers={"invaded": "Attack"},
    )
    extractor = RuleExtractor(lexicon)
    first = extract(extractor, invasion_query)
    second = extract(extractor, invasion_query)
    assert first == second


def test_record_round_trip(invasion_tagged):
    record = tagged_to_record(invasion_tagged)
    assert record["mention_start"] == 1 and record["pos"] == "verb"
    assert tagged_from_record(record) == invasion_tagged


def test_query_record_round_trip(invasion_query):
    assert query_from_record(query_to_record(invasion_query)) == invasion_query


def test_query_record_missing_field():
    with pytest.raises(KeyError, match="mention_start"):
        query_from_record({"query_id": "q", "tokens": ["a"]})
