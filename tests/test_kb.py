import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eventlink import kb as kb_module
from eventlink.kb import (
    NIL,
    TITLE_SEP,
    KBEntry,
    KBError,
    KnowledgeBase,
    candidate_text,
    load_kb,
    tokenize,
)

from conftest import write_jsonl


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
    assert [e.id for e in kb] == ["E1", "E2"]


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
    assert small_kb.get("E2").title == "Harbor uprising"
    assert small_kb.get("E9") is None
    assert small_kb.get(NIL) is None


def test_entries_resolve_ids_in_order(small_kb):
    assert [e.id for e in small_kb.entries(["E3", "E1", "E3"])] == ["E3", "E1", "E3"]
    assert small_kb.entries([]) == []
    with pytest.raises(KBError, match="candidate id 'E9' not found in the KB"):
        small_kb.entries(["E1", "E9"])


def test_empty_title_rejected():
    with pytest.raises(KBError):
        KBEntry("E1", "", "desc")


def test_candidate_text_under_limit():
    entry = KBEntry("E1", "WWII", "global war")
    assert candidate_text(entry, 10) == ["WWII", TITLE_SEP, "global", "war"]


def test_candidate_text_right_truncation():
    entry = KBEntry("E1", "WWII", "global war")
    assert candidate_text(entry, 3) == ["WWII", TITLE_SEP, "global"]


def test_candidate_text_empty_description():
    entry = KBEntry("E1", "WWII", "")
    assert candidate_text(entry, 10) == ["WWII", TITLE_SEP]


def test_candidate_text_strip_marker_is_prefix(small_kb):
    for entry in small_kb:
        for max_len in (4, 6, 9, 50):
            toks = [t for t in candidate_text(entry, max_len) if t != TITLE_SEP]
            full = tokenize(entry.title) + tokenize(entry.description)
            assert toks == full[: len(toks)]


def test_duplicate_construction_rejected():
    entry = KBEntry("E1", "A", "d")
    with pytest.raises(KBError, match="duplicate"):
        KnowledgeBase([entry, entry])


# --- the two ways of building a KB ----------------------------------------------------------

# words and the separators str.split splits on, Unicode and ASCII control ones included
_KB_TEXT = st.text(st.sampled_from(["a", "b", "\u00e9", " ", "\t", "\u2003", "\x1c", "\x85"]),
                   max_size=12)
_ENTRIES = st.lists(st.tuples(_KB_TEXT.filter(len), _KB_TEXT), min_size=1, max_size=6).map(
    lambda fields: [KBEntry(f"E{i}", title, description)
                    for i, (title, description) in enumerate(fields)])


@given(entries=_ENTRIES)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_loaded_and_constructed_kbs_agree(tmp_path, entries):
    path = tmp_path / "kb.jsonl"
    write_jsonl(path, [{"id": e.id, "title": e.title, "description": e.description}
                       for e in entries])
    ids = [e.id for e in entries]
    loaded, built = load_kb(path), KnowledgeBase(entries)
    assert (loaded.titles, loaded.descriptions) == (built.titles, built.descriptions)
    for kb in (loaded, built):
        assert kb.n == len(entries) and kb.ids == tuple(ids)
        assert list(kb) == entries
        assert kb.records() == [json.loads(line) for line in
                                path.read_text(encoding="utf-8").splitlines()]
        assert [kb.get(entry_id) for entry_id in ids] == entries
        assert kb.get(NIL) is None and kb.get("E99") is None
        assert kb.entries([*ids[::-1], ids[0]]) == [*entries[::-1], entries[0]]
        with pytest.raises(KBError, match="^candidate id 'E99' not found in the KB$"):
            kb.entries([ids[0], "E99"])


@given(entries=_ENTRIES)
@settings(max_examples=60, deadline=None)
def test_candidate_texts_are_each_entrys_candidate_text(entries):
    kb = KnowledgeBase(entries)
    for max_len in (1, 4, 300):
        assert kb.candidate_texts(max_len) == [candidate_text(e, max_len) for e in entries]
    # uncut: what BM25 indexes and the vocabulary covers
    assert kb.candidate_texts() == [e.title.split() + [TITLE_SEP] + e.description.split()
                                    for e in entries]


def test_load_kb_builds_no_entry(tmp_path, monkeypatch):
    path = tmp_path / "kb.jsonl"
    write_jsonl(path, [{"id": "E1", "title": "First", "description": "one"}])

    def refuse(*args):
        raise AssertionError("load_kb built a KBEntry")

    monkeypatch.setattr(kb_module, "KBEntry", refuse)
    assert load_kb(path).titles == ("First",)
