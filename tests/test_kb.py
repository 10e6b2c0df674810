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
    with pytest.raises(KBError):
        KBEntry("E1", "", "desc")


def _candidate_text(title, description, max_len):
    return KnowledgeBase([KBEntry("E1", title, description)]).candidate_texts(max_len)[0]


def test_candidate_text_under_limit():
    assert _candidate_text("WWII", "global war", 10) == ["WWII", TITLE_SEP, "global", "war"]


def test_candidate_text_right_truncation():
    assert _candidate_text("WWII", "global war", 3) == ["WWII", TITLE_SEP, "global"]


def test_candidate_text_empty_description():
    assert _candidate_text("WWII", "", 10) == ["WWII", TITLE_SEP]


def test_candidate_text_strip_marker_is_prefix(small_kb):
    for max_len in (4, 6, 9, 50):
        for entry, text in zip(small_kb, small_kb.candidate_texts(max_len), strict=True):
            toks = [t for t in text if t != TITLE_SEP]
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
        assert kb.rows([*ids[::-1], ids[0]]) == [*range(len(ids))[::-1], 0]
        for unknown in (NIL, "E99"):
            with pytest.raises(KBError, match=f"^candidate id '{unknown}' not found in the KB$"):
                kb.rows([ids[0], unknown])


@given(entries=_ENTRIES, data=st.data())
@settings(max_examples=60, deadline=None)
def test_candidate_texts_are_each_entrys_candidate_text(entries, data):
    kb = KnowledgeBase(entries)
    # uncut: what BM25 indexes and the vocabulary covers
    whole = [e.title.split() + [TITLE_SEP] + e.description.split() for e in entries]
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
