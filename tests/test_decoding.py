"""Record decoding: refusals worded exactly, and value semantics of the record types."""

import dataclasses
import json

import pytest

from eventlink import cli
from eventlink.cli import main
from eventlink.extraction import Argument, EventQuery, NamedEntityAnnotation, Span, TaggedQuery
from eventlink.kb import KBEntry, KBError
from eventlink.rerank import LinkDecision
from eventlink.retrieval import CandidateSet

from conftest import kb_of


def _entry(**fields):
    return {"id": "E1", "title": "T", "description": "d", **fields}


def _query(**fields):
    return {"query_id": "q1", "tokens": ["a", "b", "c", "d", "e"], "mention_start": 2,
            "mention_end": 2, "pos": "verb", "gold": "E1", "event_type": "Attack",
            "arguments": [], **fields}


def _write(path, lines):
    """One line per item: a JSON value, or the raw text of a ``str`` starting with ``RAW:``."""
    path.write_text("".join((item[4:] if isinstance(item, str) and item.startswith("RAW:")
                             else json.dumps(item)) + "\n" for item in lines), encoding="utf-8")
    return path


# (lines of the KB file, the line refused, the message after "line N: ")
_KB_REFUSALS = {
    "id not a string": ([_entry(id=5)], 1, "field 'id' must be a string"),
    "title null": ([_entry(title=None)], 1, "field 'title' must be a string"),
    "description a list": ([_entry(description=["x"])], 1, "field 'description' must be a string"),
    "description missing": ([{"id": "E1", "title": "T"}], 1, "missing key 'description'"),
    "bad id before a missing title": ([{"id": 5, "description": "d"}], 1,
                                      "field 'id' must be a string"),
    "empty id": ([_entry(id="")], 1, "entry id must be non-empty"),
    "NIL id": ([_entry(id="NIL")], 1, "entry id 'NIL' is reserved for the out-of-KB label"),
    "empty title": ([_entry(title="")], 1, "entry 'E1': title must be non-empty"),
    "duplicate id": ([_entry(), _entry(title="U")], 2, "duplicate entry id 'E1'"),
    "duplicate before a malformed line": ([_entry(), _entry(), "RAW:{oops"], 2,
                                          "duplicate entry id 'E1'"),
    "bad type before a duplicate": ([_entry(), _entry(id=3), _entry()], 2,
                                    "field 'id' must be a string"),
    "not an object": ([_entry(), ["E2"]], 2, "expected a JSON object, found list"),
    # json.dumps refuses an integer this wide, so the line is raw text
    "5,000-digit integer": ([_entry(), 'RAW:{"id": "E2", "title": "T", "description": "d", "n": 1'
                             + "0" * 4999 + "}"], 2,
                            "malformed JSON: number is infinity when parsed as double at column 53"),
}

_QUERY_REFUSALS = {
    "tokens not a list": ([_query(tokens=5)], 1, "tokens 5 is not a list"),
    "tokens a string": ([_query(tokens="abcde")], 1, "tokens 'abcde' is not a list"),
    "token not a string": ([_query(tokens=[1, 2, None, "d", "e"])], 1, "token 1 is not a string"),
    "mention not a number": ([_query(mention_start="x")], 1, "mention_start 'x' is not an integer"),
    "mention a float": ([_query(mention_end=2.9)], 1, "mention_end 2.9 is not an integer"),
    "mention a bool": ([_query(mention_start=True, mention_end=True)], 1,
                       "mention_start True is not an integer"),
    "query id not a string": ([_query(query_id=7)], 1, "query_id 7 is not a string"),
    "pos null": ([_query(pos=None)], 1, "pos None is not a string"),
    "gold not a string": ([_query(gold=1)], 1, "gold 1 is not a string"),
    "entity bound a bool": ([_query(entities=[{"start": True, "end": 1, "entity_type": "GPE"}])], 1,
                            "start True is not an integer"),
    "entity type null": ([_query(entities=[{"start": 0, "end": 0, "entity_type": None}])], 1,
                         "entity_type None is not a string"),
    "argument bound a bool": ([_query(arguments=[{"start": 0, "end": True, "role": "R"}])], 1,
                              "end True is not an integer"),
    "argument bound a float": ([_query(arguments=[{"start": 0.0, "end": 0, "role": "R"}])], 1,
                               "start 0.0 is not an integer"),
    "role not a string": ([_query(arguments=[{"start": 0, "end": 0, "role": 5}])], 1,
                          "role 5 is not a string"),
    "event type null": ([_query(event_type=None)], 1, "event_type None is not a string"),
    "mention out of range": ([_query(mention_start=7, mention_end=7)], 1,
                             "query 'q1': mention span (7, 7) outside 5 tokens"),
    "negative mention": ([_query(mention_start=-1)], 1, "invalid span (-1, 2)"),
    "empty tokens": ([_query(tokens=[], mention_start=0, mention_end=0)], 1,
                     "query 'q1': empty token sequence"),
    "tokens missing": ([{"query_id": "q"}], 1, "missing field 'tokens'"),
    "bad pos": ([_query(pos="adj")], 1, "query 'q1': pos must be one of ('verb', 'noun', 'other')"),
    "entity out of range": ([_query(entities=[{"start": 9, "end": 9, "entity_type": "GPE"}])], 1,
                            "query 'q1': entity span out of bounds"),
    "argument out of range": ([_query(arguments=[{"start": 6, "end": 6, "role": "R"}])], 1,
                              "argument span Span(start=6, end=6) outside query tokens"),
    "argument over the mention": ([_query(arguments=[{"start": 1, "end": 2, "role": "R"}])], 1,
                                  "argument span Span(start=1, end=2) overlaps the mention"),
    "overlapping arguments": (
        [_query(arguments=[{"start": 4, "end": 4, "role": "S"}, {"start": 3, "end": 4, "role": "R"}])],
        1, "argument spans Span(start=3, end=4) and Span(start=4, end=4) overlap"),
    "nested arguments": (
        [_query(tokens=list("abcdefgh"), arguments=[{"start": 4, "end": 4, "role": "S"},
                                                    {"start": 3, "end": 6, "role": "R"}])],
        1, "argument spans Span(start=3, end=6) and Span(start=4, end=4) overlap"),
    "empty role": ([_query(arguments=[{"start": 0, "end": 0, "role": ""}])], 1,
                   "argument role must be non-empty"),
    "argument not an object": ([_query(arguments=[[0, 0, "R"]])], 1,
                               "list indices must be integers or slices, not str"),
    "not an object": ([_query(), "q2"], 2, "expected a JSON object, found str"),
}


def _refusal(tmp_path, capsys, argv):
    out = tmp_path / "out.jsonl"
    code = main([*argv, "--out", str(out)])
    assert not out.exists()
    return code, capsys.readouterr().err


@pytest.mark.parametrize("case", _KB_REFUSALS)
def test_load_kb_refusals_keep_their_wording(tmp_path, capsys, case):
    lines, line, message = _KB_REFUSALS[case]
    path = _write(tmp_path / "kb.jsonl", lines)
    code, err = _refusal(tmp_path, capsys, ["build-kb", "--in", str(path)])
    assert (code, err) == (2, f"data error: {path}: line {line}: {message}\n")


@pytest.mark.parametrize("case", _QUERY_REFUSALS)
def test_load_tagged_refusals_keep_their_wording(tmp_path, capsys, case):
    lines, line, message = _QUERY_REFUSALS[case]
    path = _write(tmp_path / "queries.jsonl", lines)
    code, err = _refusal(tmp_path, capsys, ["format", "--in", str(path)])
    assert (code, err) == (2, f"data error: {path}: line {line}: {message}\n")


def test_load_tagged_distinct_names_the_repeated_query_id(tmp_path):
    path = _write(tmp_path / "queries.jsonl", [_query(), _query(query_id="q2"), _query()])
    assert [q.base.query_id for q in cli._load_tagged(path)] == ["q1", "q2", "q1"]
    with pytest.raises(ValueError) as info:
        cli._load_tagged(path, distinct=True)
    assert str(info.value) == f"{path}: line 3: duplicate query_id 'q1'"


def test_kb_entry_constructor_checks_field_types():
    with pytest.raises(KBError, match="^field 'title' must be a string$"):
        KBEntry("E1", b"T", "d")
    with pytest.raises(KBError, match="^field 'description' must be a string$"):
        KBEntry("E1", "T", None)
    with pytest.raises(KBError, match="^test KB: line 3: duplicate entry id 'E1'$"):
        kb_of([("E1", "T", "d"), ("E2", "T", "d"), ("E1", "U", "d")])


# --- value semantics of the slotted record types -----------------------------------------

_QUERY = EventQuery("q", ("a", "b", "c", "d"), Span(1, 1), pos="verb", gold="E1",
                    entities=(NamedEntityAnnotation(Span(0, 0), "GPE"),))
_VALUES = {
    KBEntry: (KBEntry("E1", "T", "d"), dict(title="U"), "KBEntry(id='E1', title='T', description='d')"),
    Span: (Span(1, 2), dict(end=3), "Span(start=1, end=2)"),
    Argument: (Argument(Span(0, 0), "R"), dict(role="S"),
               "Argument(span=Span(start=0, end=0), role='R')"),
    NamedEntityAnnotation: (NamedEntityAnnotation(Span(0, 0), "GPE"), dict(entity_type="ORG"),
                            "NamedEntityAnnotation(span=Span(start=0, end=0), entity_type='GPE')"),
    EventQuery: (_QUERY, dict(gold="NIL"),
                 "EventQuery(query_id='q', tokens=('a', 'b', 'c', 'd'), mention=Span(start=1, end=1), "
                 "pos='verb', gold='E1', entities=(NamedEntityAnnotation(span=Span(start=0, end=0), "
                 "entity_type='GPE'),))"),
    TaggedQuery: (TaggedQuery(_QUERY, "Attack", (Argument(Span(3, 3), "R"),)), dict(event_type="T"),
                  "TaggedQuery(base=" + "EventQuery(query_id='q', tokens=('a', 'b', 'c', 'd'), "
                  "mention=Span(start=1, end=1), pos='verb', gold='E1', entities=("
                  "NamedEntityAnnotation(span=Span(start=0, end=0), entity_type='GPE'),)), "
                  "event_type='Attack', arguments=(Argument(span=Span(start=3, end=3), role='R'),))"),
    CandidateSet: (CandidateSet("q", ("E1", "E2"), (2.0, 1.0)), dict(query_id="r"),
                   "CandidateSet(query_id='q', ids=('E1', 'E2'), scores=(2.0, 1.0))"),
    LinkDecision: (LinkDecision("q", "E1", (0.0, 1.0), "learned_nil"), dict(note="n"),
                   "LinkDecision(query_id='q', prediction='E1', scores=(0.0, 1.0), "
                   "rule='learned_nil', note=None)"),
}


@pytest.mark.parametrize("cls", _VALUES, ids=lambda cls: cls.__name__)
def test_record_types_keep_value_semantics(cls):
    value, change, text = _VALUES[cls]
    assert not hasattr(value, "__dict__")  # slotted: one record holds no per-instance dict
    copy = dataclasses.replace(value)
    assert copy == value and copy is not value and hash(copy) == hash(value)
    changed = dataclasses.replace(value, **change)
    assert changed != value and {value, copy, changed} == {value, changed}
    assert repr(value) == text
    name = next(iter(change))
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, name, change[name])
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(value, name)
    assert getattr(value, name) != change[name]


def test_span_orders_by_start_then_end():
    spans = [Span(2, 3), Span(0, 4), Span(2, 2), Span(1, 1)]
    assert sorted(spans) == [Span(0, 4), Span(1, 1), Span(2, 2), Span(2, 3)]
    assert Span(1, 1) < Span(1, 2) <= Span(1, 2) < Span(2, 2)
    assert max(spans) == Span(2, 3) and not Span(2, 2) > Span(2, 3)


def test_sequence_fields_are_stored_as_plain_tuples():
    query = EventQuery("q", ["a", "b"], Span(0, 0), entities=[NamedEntityAnnotation(Span(1, 1), "X")])
    tagged = TaggedQuery(query, "T", [Argument(Span(1, 1), "R")])
    candidates = CandidateSet("q", ["E1"], [1])
    assert (type(query.tokens), type(query.entities), type(tagged.arguments)) == (tuple,) * 3
    assert (type(candidates.ids), candidates.scores, type(candidates.scores[0])) == (tuple, (1.0,), float)
    assert tagged == TaggedQuery(EventQuery("q", ("a", "b"), Span(0, 0), entities=(
        NamedEntityAnnotation(Span(1, 1), "X"),)), "T", (Argument(Span(1, 1), "R"),))
