import json

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from eventlink import kb as kb_module
from eventlink.kb import (
    NIL,
    TITLE_SEP,
    KBError,
    KnowledgeBase,
    load_kb,
    tokenize,
)

from conftest import kb_of, write_jsonl


def test_load_preserves_order(tmp_path):
    path = tmp_path / "kb.jsonl"
    write_jsonl(
        path,
        [
            {"id": "E1", "title": "First", "description": "one"},
            {"id": "E2", "title": "Second", "description": "two"},
        ],
    )
    kb = load_kb(path)
    assert kb.n == 2
    assert kb.ids == ("E1", "E2")


def test_duplicate_id_rejected_naming_id(tmp_path):
    path = tmp_path / "kb.jsonl"
    write_jsonl(
        path,
        [
            {"id": "E1", "title": "First", "description": "one"},
            {"id": "E1", "title": "Again", "description": "two"},
        ],
    )
    with pytest.raises(KBError, match="E1"):
        load_kb(path)


def test_reserved_nil_id_rejected(tmp_path):
    path = tmp_path / "kb.jsonl"
    write_jsonl(path, [{"id": "NIL", "title": "Bad", "description": "x"}])
    with pytest.raises(KBError, match="reserved"):
        load_kb(path)


def test_malformed_line_names_line_number(tmp_path):
    path = tmp_path / "kb.jsonl"
    path.write_text(
        json.dumps({"id": "E1", "title": "ok", "description": "d"}) + "\nnot json\n",
        encoding="utf-8",
    )
    with pytest.raises(KBError, match="line 2"):
        load_kb(path)


def test_missing_field_rejected(tmp_path):
    path = tmp_path / "kb.jsonl"
    write_jsonl(path, [{"id": "E1", "title": "ok"}])
    with pytest.raises(KBError, match="description"):
        load_kb(path)


def test_manifest_header_skipped(tmp_path):
    path = tmp_path / "kb.jsonl"
    lines = [
        json.dumps({"_manifest": {"command": "build-kb"}}),
        json.dumps({"id": "E1", "title": "First", "description": "one"}),
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert load_kb(path).n == 1


def test_get_entry_lookup(small_kb):
    [row] = small_kb.rows(["E2"])
    assert small_kb.titles[row] == "Harbor uprising"
    for unknown in ("E9", NIL):
        with pytest.raises(KBError, match=f"candidate id '{unknown}' not found in the KB"):
            small_kb.rows([unknown])


def test_entries_resolve_ids_in_order(small_kb):
    assert [small_kb.ids[row] for row in small_kb.rows(["E3", "E1", "E3"])] == ["E3", "E1", "E3"]
    assert small_kb.rows([]) == []
    with pytest.raises(KBError, match="candidate id 'E9' not found in the KB"):
        small_kb.rows(["E1", "E9"])


def test_empty_title_rejected():
    with pytest.raises(KBError, match="^test KB: line 1: entry 'E1': title must be non-empty$"):
        kb_of([("E1", "", "desc")])


def _candidate_text(title, description, max_len):
    return kb_of([("E1", title, description)]).candidate_texts(max_len)[0]


def test_candidate_text_under_limit():
    assert _candidate_text("WWII", "global war", 10) == ["WWII", TITLE_SEP, "global", "war"]


def test_candidate_text_right_truncation():
    assert _candidate_text("WWII", "global war", 3) == ["WWII", TITLE_SEP, "global"]


def test_candidate_text_empty_description():
    assert _candidate_text("WWII", "", 10) == ["WWII", TITLE_SEP]


def test_candidate_text_strip_marker_is_prefix(small_kb):
    for max_len in (4, 6, 9, 50):
        for title, description, text in zip(small_kb.titles, small_kb.descriptions,
                                            small_kb.candidate_texts(max_len), strict=True):
            toks = [t for t in text if t != TITLE_SEP]
            full = tokenize(title) + tokenize(description)
            assert toks == full[: len(toks)]


def test_duplicate_construction_rejected():
    with pytest.raises(KBError, match="^test KB: line 2: duplicate entry id 'E1'$"):
        kb_of([("E1", "A", "d"), ("E1", "A", "d")])


def test_from_records_of_no_records_names_the_source():
    for source in ("kb.jsonl", "test KB"):
        with pytest.raises(KBError, match=f"^{source}: no entries$"):
            KnowledgeBase.from_records([], source)


# --- a KB from a file and from records ----------------------------------------------------

# words and the separators str.split splits on, Unicode and ASCII control ones included
_KB_TEXT = st.text(st.sampled_from(["a", "b", "\u00e9", " ", "\t", "\u2003", "\x1c", "\x85"]),
                   max_size=12)
_ENTRIES = st.lists(st.tuples(_KB_TEXT.filter(len), _KB_TEXT), min_size=1, max_size=6).map(
    lambda fields: [{"id": f"E{i}", "title": title, "description": description}
                    for i, (title, description) in enumerate(fields)])
# records that may break any rule: not an object, a missing or non-string field, an
# empty id or title, the reserved id, or an id repeated from the small pool
_FIELD = st.one_of(_KB_TEXT, st.sampled_from([5, None, ["x"]]))
_ANY_RECORD = st.one_of(
    st.fixed_dictionaries({"id": st.sampled_from(["E0", "E1", "", NIL, 5]),
                           "title": _FIELD, "description": _FIELD}),
    st.dictionaries(st.sampled_from(["id", "title", "description"]), _FIELD),
    st.sampled_from([["E1"], "E1", 5, None]),
)
_RECORDS = st.one_of(_ENTRIES, st.lists(_ANY_RECORD, max_size=6),
                     st.tuples(_ENTRIES, _ANY_RECORD).map(lambda pair: [*pair[0], pair[1]]))


def _kb_or_refusal(build):
    try:
        return build()
    except KBError as exc:
        return exc


@given(records=_RECORDS)
@example(records=[])
@example(records=[{"id": "E1", "title": "A", "description": "d"}, ["E1"]])
@example(records=[{"id": "E1", "title": "A"}])
@example(records=[{"id": "E1", "title": 5, "description": "d"}])
@example(records=[{"id": "", "title": "A", "description": "d"}])
@example(records=[{"id": "E1", "title": "", "description": "d"}])
@example(records=[{"id": NIL, "title": "A", "description": "d"}])
@example(records=[{"id": "E1", "title": "A", "description": "d"},
                  {"id": "E1", "title": "B", "description": "e"}])
@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_loaded_and_constructed_kbs_agree(tmp_path, records):
    path = tmp_path / "kb.jsonl"
    path.write_text("".join(json.dumps(record) + "\n" for record in records), encoding="utf-8")
    loaded = _kb_or_refusal(lambda: load_kb(path))
    built = _kb_or_refusal(lambda: KnowledgeBase.from_records(enumerate(records, start=1), "records"))
    if isinstance(built, KBError):
        # the same wording, line and first refused record, up to the source name
        assert isinstance(loaded, KBError) and str(built).startswith("records: ")
        assert str(loaded) == f"{path}{str(built).removeprefix('records')}"
        return
    assert not isinstance(loaded, KBError), loaded
    ids = [record["id"] for record in records]
    assert (loaded.titles, loaded.descriptions) == (built.titles, built.descriptions)
    for kb in (loaded, built):
        assert kb.n == len(records) and kb.ids == tuple(ids)
        assert kb.records() == records
        assert kb.rows([*ids[::-1], ids[0]]) == [*range(len(ids))[::-1], 0]
        for unknown in (NIL, "E99"):
            with pytest.raises(KBError, match=f"^candidate id '{unknown}' not found in the KB$"):
                kb.rows([ids[0], unknown])


@given(entries=_ENTRIES, data=st.data())
@settings(max_examples=60, deadline=None)
def test_candidate_texts_are_each_entrys_candidate_text(entries, data):
    kb = KnowledgeBase.from_records(enumerate(entries, start=1), "records")
    # uncut: what BM25 indexes and the vocabulary covers
    whole = [e["title"].split() + [TITLE_SEP] + e["description"].split() for e in entries]
    assert kb.candidate_texts() == whole
    rows = data.draw(st.lists(st.integers(0, len(entries) - 1), max_size=8))
    for max_len in (1, 4, 300):
        assert kb.candidate_texts(max_len) == [text[:max_len] for text in whole]
        assert kb.candidate_texts(max_len, rows) == [whole[row][:max_len] for row in rows]
    assert kb.candidate_texts(rows=rows) == [whole[row] for row in rows]


def test_load_kb_builds_no_entry(tmp_path, monkeypatch):
    path = tmp_path / "kb.jsonl"
    write_jsonl(path, [{"id": "E1", "title": "First", "description": "one"}])

    def refuse(*args):
        raise AssertionError("load_kb built a KBEntry")

    monkeypatch.setattr(kb_module, "KBEntry", refuse)
    assert load_kb(path).titles == ("First",)
