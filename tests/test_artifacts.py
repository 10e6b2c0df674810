import hashlib
import json
import math
import os

import numpy as np
import orjson
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from eventlink import artifacts
from eventlink.artifacts import file_digest, iter_jsonl, read_document, read_json, read_manifest
from eventlink.artifacts import read_records
from eventlink.artifacts import json_line, write_jsonl
from eventlink.encoders import TinyEncoder, load_checkpoint, load_encoder, save_checkpoint
from eventlink.kb import KBError, KnowledgeBase, load_kb
from eventlink.rerank import LinkDecision, TinyCrossScorer
from eventlink.retrieval import CandidateSet, DenseIndex

from conftest import ORJSON_EDGE_FLOATS


class _FailingFile:
    """Writes the first half of the text, then fails like a full disk."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[: len(text) // 2])
        self.fh.flush()
        raise OSError("no space left on device")


@pytest.mark.parametrize("save", [
    lambda path: save_checkpoint(TinyEncoder(["a", "b"], 8, seed=0), path),
    lambda path: save_checkpoint(TinyCrossScorer(["a", "b"], 8, seed=0), path),
    lambda path: DenseIndex(("E0", "E1"), np.eye(2), "t").save(path),
], ids=["encoder", "cross-scorer", "index"])
def test_library_save_failing_partway_leaves_no_file(tmp_path, monkeypatch, save):
    real_fdopen = os.fdopen
    monkeypatch.setattr(os, "fdopen", lambda *a, **kw: _FailingFile(real_fdopen(*a, **kw)))
    target = tmp_path / "artifact.json"
    with pytest.raises(OSError, match="no space"):
        save(target)
    assert os.listdir(tmp_path) == []


# --- readers on truncated, manifest-only and wrong-kind files -------------------

_TEXT = st.text(st.characters(codec="utf-8", exclude_categories=("Cs", "Cc")), min_size=1, max_size=12)
_MANIFEST = {"_manifest": {"command": "build-kb", "config": {}}}


def _outcome(read):
    try:
        return read()
    except ValueError as exc:
        return exc


def _truncated(tmp_path, text, cut):
    path = tmp_path / "cut.txt"
    path.write_bytes(text.encode("utf-8")[:cut])
    return path


def _assert_names_file(error, path):
    assert isinstance(error, ValueError)
    assert not isinstance(error, UnicodeDecodeError)
    assert str(path) in str(error)


@given(records=st.lists(st.dictionaries(_TEXT, _TEXT, min_size=1, max_size=3), min_size=1, max_size=4),
       data=st.data())
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_iter_jsonl_truncated_file_names_file_or_reads_a_prefix(tmp_path, records, data):
    lines = [json.dumps(_MANIFEST)] + [json.dumps(r, ensure_ascii=False) for r in records]
    text = "\n".join(lines) + "\n"
    path = _truncated(tmp_path, text, data.draw(st.integers(0, len(text.encode("utf-8")) - 1)))
    result = _outcome(lambda: [record for _, record in iter_jsonl(path)])
    if isinstance(result, list):
        assert result == records[: len(result)]
    else:
        _assert_names_file(result, path)


def _reference_iter_jsonl(path):
    """A line-by-line reader, the reference for the records and errors of ``iter_jsonl``.

    Each line, less the ASCII whitespace of ``bytes.strip``, is checked as
    UTF-8 first and then decoded by ``orjson``, the one decoder of the
    readers. It skips a manifest-only line 1 and refuses a manifest-only
    line after it.
    """
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped:
                raise ValueError(f"{path}: line {lineno}: blank line")
            try:
                stripped.decode("utf-8")
            except UnicodeDecodeError:
                raise ValueError(f"{path}: line {lineno}: not UTF-8") from None
            try:
                record = orjson.loads(stripped)
            except orjson.JSONDecodeError as exc:
                raise ValueError(f"{path}: line {lineno}: malformed JSON: {exc.msg} "
                                 f"at column {exc.colno}") from exc
            if isinstance(record, dict) and set(record) == {"_manifest"}:
                if lineno == 1:
                    continue
                raise ValueError(f"{path}: line {lineno}: manifest header not on line 1")
            yield lineno, record


def _first_error(reader, path, refuse):
    """What a reader yields until it fails or the caller's parse refuses record ``refuse``.

    Records are compared by ``repr``, so that NaN equals NaN.
    """
    read = []
    try:
        for lineno, record in reader(path):
            if len(read) == refuse:
                return read, f"parse refused line {lineno}"
            read.append(repr((lineno, record)))
    except ValueError as exc:
        return read, str(exc)
    return read, None


# what a line may start or end with: ASCII whitespace that bytes.strip removes, and
# characters that str.strip or str.splitlines would also treat as whitespace or breaks
_EDGES = st.sampled_from([b"", b" ", b"\t", b"\r", b"\x0b", b"\x0c", b"\x1c", b"\x1f",
                          "\x85".encode(), "\u2028".encode(), "\xa0".encode(), b"\xef\xbb\xbf"])
_BODIES = st.one_of(
    st.dictionaries(_TEXT, st.one_of(_TEXT, st.integers(), st.floats()), max_size=3).map(
        lambda record: json.dumps(record, ensure_ascii=False).encode("utf-8")),
    st.sampled_from([b"", b"NaN", b"-Infinity", b"[1, 2]", b'"s"', b"{", b'{"a": 1} x',
                     b'{"_manifest": {}}', '{"a": "\x0c\x1c\x85\u2028"}'.encode(),
                     b'{"a": "\xc3\xa9"}', b"\xff", b'{"a": "\xc3"}', b"\xed\xa0\x80"]),
    st.binary(max_size=4),
)
_LINES = st.lists(st.tuples(_EDGES, _BODIES, _EDGES).map(b"".join), max_size=5)


@given(lines=_LINES, ending=st.sampled_from([b"", b"\n", b"\r\n", b"\n\n", b"\n "]),
       refuse=st.integers(0, 5))
@example(lines=[b'{"a": 1}', b"{", b"\xff"], ending=b"\n", refuse=5)
@example(lines=[b'{"a": 1}', b" \x0c", b"\xff"], ending=b"", refuse=5)
@example(lines=[b'{"a": 1}\r', b"\xef\xbb\xbf{}", "NaN\x85".encode()], ending=b"\n", refuse=5)
@example(lines=[b'{"a": "\x1c"}\x1c', b"{}"], ending=b"\n", refuse=5)
@example(lines=[b'{"a": 1}', b"\xff"], ending=b"\n", refuse=1)
@example(lines=[b"{}", b"{}"], ending=b"\n ", refuse=5)
# a manifest-only line past line 1, once skipped wherever it stood
@example(lines=[b'{"a": 1}', b'{"_manifest": {}}', b"{}"], ending=b"\n", refuse=5)
@example(lines=[b'{"_manifest": {}}', b"{}", b' {"_manifest": {}}'], ending=b"\n", refuse=5)
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_iter_jsonl_matches_the_line_by_line_reader(tmp_path, lines, ending, refuse):
    path = tmp_path / "lines.jsonl"
    path.write_bytes(b"\n".join(lines) + ending)
    assert _first_error(iter_jsonl, path, refuse) == _first_error(_reference_iter_jsonl, path, refuse)


@given(payload=st.dictionaries(_TEXT, st.lists(_TEXT, max_size=3), min_size=1, max_size=3),
       data=st.data())
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_read_json_truncated_file_names_file(tmp_path, payload, data):
    text = json.dumps({**_MANIFEST, **payload}, ensure_ascii=False, indent=2)
    path = _truncated(tmp_path, text, data.draw(st.integers(0, len(text.encode("utf-8")) - 1)))
    _assert_names_file(_outcome(lambda: read_json(path)), path)


_DECODERS = pytest.mark.parametrize("read", [lambda path: read_json(path)[1]["values"],
                                             lambda path: next(iter_jsonl(path))[1]["values"]],
                                    ids=["read_json", "iter_jsonl"])


def _decoded_bits(tmp_path, values, read):
    """The bytes of ``values`` as ``read`` and ``json.loads`` decode the text ``json`` writes.

    The text is one line, so it is a JSON document and a JSON-lines file alike.
    """
    text = json.dumps({"values": values})
    path = tmp_path / "values.json"
    path.write_text(text, encoding="utf-8")
    return (np.array(read(path), dtype=float).tobytes(),
            np.array(json.loads(text)["values"], dtype=float).tobytes())


@_DECODERS
def test_readers_decode_random_doubles_to_the_bits_of_json_loads(tmp_path, read):
    # random 64-bit patterns: every exponent, subnormals and signed zeros among them
    doubles = np.frombuffer(np.random.default_rng(28).bytes(8 * 100_200), dtype="<f8")
    doubles = doubles[np.isfinite(doubles)][:100_000]
    assert len(doubles) == 100_000
    ours, reference = _decoded_bits(tmp_path, doubles.tolist(), read)
    assert reference == doubles.tobytes()
    assert ours == reference


@_DECODERS
@given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=20))
@example(values=[0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308])
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_readers_decode_doubles_to_the_bits_of_json_loads(tmp_path, read, values):
    ours, reference = _decoded_bits(tmp_path, values, read)
    assert ours == reference


def test_generic_readers_accept_a_manifest_only_file(tmp_path):
    # an empty queries file is a valid input, so a manifest alone is an empty artifact
    path = tmp_path / "only.jsonl"
    path.write_text(json.dumps(_MANIFEST) + "\n", encoding="utf-8")
    assert list(iter_jsonl(path)) == []
    assert read_json(path) == (_MANIFEST["_manifest"], {})


@pytest.mark.parametrize("records", [[], [{"a": 1}, {"b": "é"}]], ids=["none", "two"])
def test_write_jsonl_without_a_manifest_reads_back(tmp_path, records):
    path = tmp_path / "records.jsonl"
    write_jsonl(path, map(json_line, records))
    assert read_records(path, dict) == records


def test_manifest_header_is_a_line_whose_only_key_is_the_manifest(tmp_path):
    # read_manifest and iter_jsonl agree on which first line is a header
    path = tmp_path / "records.jsonl"
    record = {**_MANIFEST, "query_id": "q1"}
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    assert read_manifest(path) is None
    assert list(iter_jsonl(path)) == [(1, record)]
    path.write_text(json.dumps(_MANIFEST) + "\n" + json.dumps(record) + "\n", encoding="utf-8")
    assert read_manifest(path) == _MANIFEST["_manifest"]
    assert list(iter_jsonl(path)) == [(2, record)]
    # a bare "\r" between JSON tokens is whitespace inside line 1, not a line end
    header = '{"_manifest":\r' + json.dumps(_MANIFEST["_manifest"]) + "}"
    path.write_bytes((header + "\n" + json.dumps(record) + "\n").encode("utf-8"))
    assert read_manifest(path) == _MANIFEST["_manifest"]
    assert list(iter_jsonl(path)) == [(2, record)]


@given(entries=st.lists(st.tuples(_TEXT, _TEXT), min_size=1, max_size=4, unique_by=lambda e: e[0]),
       data=st.data())
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_load_kb_truncated_file_names_file_or_reads_a_prefix(tmp_path, entries, data):
    records = [{"id": f"E{i}", "title": title, "description": description}
               for i, (title, description) in enumerate(entries)]
    text = "\n".join(json.dumps(r, ensure_ascii=False) for r in [_MANIFEST, *records]) + "\n"
    path = _truncated(tmp_path, text, data.draw(st.integers(0, len(text.encode("utf-8")) - 1)))
    result = _outcome(lambda: load_kb(path))
    if isinstance(result, KnowledgeBase):
        assert result.records() == records[: result.n]
        assert result.n > 0
    else:
        assert isinstance(result, KBError)
        _assert_names_file(result, path)


def _load_scorer(path):
    return load_checkpoint(path, TinyCrossScorer)


@pytest.mark.parametrize("read", [load_kb, _load_scorer, load_encoder, DenseIndex.load],
                         ids=["kb", "scorer", "encoder", "index"])
def test_typed_readers_reject_a_manifest_only_file(tmp_path, read):
    path = tmp_path / "only.json"
    path.write_text(json.dumps(_MANIFEST) + "\n", encoding="utf-8")
    _assert_names_file(_outcome(lambda: read(path)), path)


_CHECKPOINTS = {
    "tiny": lambda: TinyEncoder(["a", "é", "[M_s]"], 4, seed=0),
    "tiny_cross": lambda: TinyCrossScorer(["a", "é", "[M_s]"], 4, seed=0),
}


@given(kind=st.sampled_from(sorted(_CHECKPOINTS)), data=st.data())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_load_checkpoint_truncated_file_names_file(tmp_path, kind, data):
    path = tmp_path / "full.json"
    save_checkpoint(_CHECKPOINTS[kind](), path)
    text = path.read_text(encoding="utf-8")
    cut = _truncated(tmp_path, text, data.draw(st.integers(0, len(text.encode("utf-8")) - 1)))
    for read in (_load_scorer, load_encoder):
        _assert_names_file(_outcome(lambda: read(cut)), cut)


@given(data=st.data())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_load_index_truncated_file_names_file(tmp_path, data):
    # an id holding a newline: JSON escapes it, so the header stays one line
    path = tmp_path / "index.json"
    index = DenseIndex(("E0", "é\n1"), np.array([[1.0, -0.0], [5e-324, 2.0]]), "t")
    index.save(path, manifest=_MANIFEST["_manifest"])
    loaded = DenseIndex.load(path)
    assert loaded.ids == index.ids and loaded.matrix.tobytes() == index.matrix.tobytes()
    full = path.read_bytes()
    cut = tmp_path / "cut.json"
    cut.write_bytes(full[: data.draw(st.integers(0, len(full) - 1))])
    _assert_names_file(_outcome(lambda: DenseIndex.load(cut)), cut)


@given(kind=st.one_of(st.sampled_from(sorted(_CHECKPOINTS)), _TEXT, st.integers(), st.none(),
                      st.lists(st.integers(), max_size=2)),
       version=st.one_of(st.just(1), st.integers(), _TEXT, st.none()))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_load_checkpoint_of_the_wrong_kind_names_file(tmp_path, kind, version):
    # and of the wrong format_version: only kind "tiny_cross" at version 1 loads as a scorer
    path = tmp_path / "ckpt.json"
    state = _CHECKPOINTS["tiny_cross"]().state_dict()
    state["kind"], state["format_version"] = kind, version
    path.write_text(json.dumps(state), encoding="utf-8")
    for loads, read in (("tiny_cross", _load_scorer), ("tiny", load_encoder)):
        if kind != loads or version != 1:
            _assert_names_file(_outcome(lambda: read(path)), path)


@given(data=st.binary(max_size=40), chunk=st.integers(1, 9))
@example(data=b"", chunk=1)
@example(data=b"x" * 18, chunk=9)
@settings(max_examples=60, deadline=None)
def test_file_digest_in_chunks_is_the_sha256_of_the_whole_file(tmp_path_factory, data, chunk):
    path = tmp_path_factory.mktemp("digest") / "file.bin"
    path.write_bytes(data)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(artifacts, "_DIGEST_CHUNK", chunk)
        assert file_digest(path) == hashlib.sha256(data).hexdigest()


# --- read_records and read_document ------------------------------------------

_RECORDS = st.lists(st.dictionaries(_TEXT.filter(lambda key: key != "_manifest"), _TEXT, max_size=3),
                    min_size=1, max_size=5)
_NOT_OBJECTS = st.one_of(st.none(), st.booleans(), st.integers(), _TEXT, st.lists(st.integers(), max_size=2))


def _write_records(tmp_path, records, header):
    lines = [json.dumps(r, ensure_ascii=False) for r in ([_MANIFEST] if header else []) + records]
    path = tmp_path / "records.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@given(records=_RECORDS, header=st.booleans(), data=st.data())
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_read_records_names_file_and_line_of_a_refused_record(tmp_path, records, header, data):
    path = _write_records(tmp_path, records, header)
    k = data.draw(st.integers(0, len(records) - 1))
    error = data.draw(st.sampled_from([KeyError, TypeError, ValueError, AttributeError]))
    seen = []

    def parse(record):
        if len(seen) == k:
            raise error("refused")
        seen.append(record)
        return record

    with pytest.raises(ValueError) as info:
        read_records(path, parse)
    assert str(info.value).startswith(f"{path}: line {k + 1 + header}: ")
    assert seen == records[:k]


@given(records=_RECORDS, header=st.booleans(), value=_NOT_OBJECTS, data=st.data())
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_readers_refuse_a_record_or_document_that_is_not_an_object(tmp_path, records, header, value,
                                                                  data):
    k = data.draw(st.integers(0, len(records) - 1))
    path = _write_records(tmp_path, records[:k] + [value] + records[k + 1:], header)
    seen = []
    with pytest.raises(ValueError) as info:
        read_records(path, seen.append)
    assert str(info.value).startswith(f"{path}: line {k + 1 + header}: ")
    assert seen == records[:k]
    document = tmp_path / "document.json"
    document.write_text(json.dumps(value), encoding="utf-8")
    with pytest.raises(ValueError) as info:
        read_document(document, seen.append)
    assert str(info.value).startswith(f"{document}: ")
    assert seen == records[:k]


@given(records=_RECORDS, header=st.booleans())
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_readers_return_every_accepted_record_in_order(tmp_path, records, header):
    path = _write_records(tmp_path, records, header)
    assert read_records(path, lambda record: record) == records
    document = tmp_path / "document.json"
    document.write_text(json.dumps({**(_MANIFEST if header else {}), **records[0]}), encoding="utf-8")
    assert read_document(document, lambda payload: payload) == records[0]


# --- candidate and decision lines ----------------------------------------------

# any code point, lone surrogates included
_ANY_TEXT = st.text(st.characters(exclude_categories=()), max_size=8)
# a quote, a backslash, control characters, DEL, non-ASCII, non-BMP and lone surrogates
_EDGE_TEXT = '"\\/\x00\x1f\n\x7f\x80\xe9\u2028\U0001F600\ud800\udfff\udbffx'
# in a candidate set's order: NaN is neither above nor below another score, and 0.0 equals -0.0
_EDGE_SCORES = [float("inf"), 1.7976931348623157e308, 5e-324, 0.0, -0.0, -2.2250738585072e-308,
                -1.7976931348623157e308, float("-inf"), float("nan")]
_FINITE_EDGE_SCORES = [score for score in _EDGE_SCORES if math.isfinite(score)]


def _refuses_non_finite(query_id, scores, build):
    """True, after checking the refusal, if ``build()`` must refuse one of ``scores`` naming the query."""
    if all(map(math.isfinite, scores)):
        return False
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == f"query {query_id!r} has a non-finite score"
    return True


@given(query_id=_ANY_TEXT, candidates=st.lists(st.tuples(_ANY_TEXT, st.floats()), max_size=6,
                                               unique_by=lambda candidate: candidate[0]))
@example(query_id=_EDGE_TEXT, candidates=[])
@example(query_id="q", candidates=[(c, 1.0) for c in _EDGE_TEXT])
@example(query_id="q", candidates=[(str(i), score) for i, score in enumerate(_EDGE_SCORES)])
@example(query_id="q", candidates=[(str(i), score) for i, score in enumerate(_FINITE_EDGE_SCORES)])
@example(query_id="q", candidates=[("a", 1.0), ("b", float("nan")), ("c", 2.0)])
@example(query_id="q", candidates=[(str(i), score) for i, score in enumerate(ORJSON_EDGE_FLOATS)])
@settings(max_examples=300, deadline=None)
def test_candidate_line_is_json_dumps_of_its_record(query_id, candidates):
    # a non-finite score is refused, naming the query, whatever the order
    scores = [score for _, score in candidates]
    if any(a < b for a, b in zip(scores, scores[1:])):  # not a set's order: scores descending, NaN last
        candidates = sorted(candidates, key=lambda c: (not math.isnan(c[1]), c[1]), reverse=True)
    record = {"query_id": query_id, "candidates": [{"id": i, "score": s} for i, s in candidates]}
    ids, scores = zip(*candidates) if candidates else ((), ())
    if not _refuses_non_finite(query_id, scores, lambda: CandidateSet(query_id, ids, scores)):
        assert CandidateSet(query_id, ids, scores).to_line() == json.dumps(record, sort_keys=True)


@given(query_id=_ANY_TEXT, prediction=_ANY_TEXT, rule=_ANY_TEXT, scores=st.lists(st.floats(), max_size=6),
       note=st.one_of(st.none(), _ANY_TEXT))
@example(query_id=_EDGE_TEXT, prediction=_EDGE_TEXT, rule=_EDGE_TEXT, scores=[], note=_EDGE_TEXT)
@example(query_id="q", prediction="NIL", rule="learned_nil", scores=_EDGE_SCORES, note=None)
@example(query_id="q", prediction="NIL", rule="learned_nil", scores=_FINITE_EDGE_SCORES, note=None)
@example(query_id="q", prediction="E1", rule="llm", scores=[0.0], note="")
@example(query_id="q", prediction="NIL", rule="learned_nil", scores=ORJSON_EDGE_FLOATS, note=None)
@settings(max_examples=300, deadline=None)
def test_decision_line_is_json_dumps_of_its_record(query_id, prediction, rule, scores, note):
    # a non-finite score is refused, naming the query
    record = {"query_id": query_id, "prediction": prediction, "rule": rule, "scores": scores}
    if note:
        record["note"] = note
    def build():
        return LinkDecision(query_id, prediction, tuple(scores), rule, note)

    if not _refuses_non_finite(query_id, scores, build):
        assert build().to_line() == json.dumps(record, sort_keys=True)


@given(arr=hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=5),
                      elements=st.one_of(st.floats(), st.sampled_from(ORJSON_EDGE_FLOATS))))
@example(arr=np.array([ORJSON_EDGE_FLOATS[::-1], ORJSON_EDGE_FLOATS]))
@example(arr=np.array([[0.5, -0.0], [float("nan"), float("-inf")], [5e-324, 1.0]]))
@settings(max_examples=300, deadline=None)
def test_json_array_is_json_dumps_of_its_list(arr):
    # every row is json's text, NaN and infinities included, whatever orjson writes for it
    assert artifacts.json_array(arr) == json.dumps(arr.tolist()).encode()
