"""Artifact files: JSON-lines records with an embedded run manifest.

Every pipeline output starts with a header line holding a single
``_manifest`` object (command, config, seeds, and sha256 digests of the
inputs that produced it); readers skip it transparently, and refuse such a
line anywhere after line 1. Single-document JSON artifacts embed the
manifest under the same key. Writes go to a temporary file in the target
directory and are renamed into place, so a failed command never leaves a
partial artifact behind. Manifests carry paths exactly as given (never
resolved), keeping reruns byte-identical across working directories.

Every input is parsed through ``read_records`` (JSON lines),
``read_document`` (one JSON document) or ``read_framed`` (a one-line JSON
header, then raw bytes). They refuse a record or header that is not a JSON
object and turn a ``KeyError``, ``TypeError``, ``ValueError`` or
``AttributeError`` of the caller's ``parse`` into one ``ValueError``
naming the file, and the line for JSON lines. ``read_records`` is one loop
over ``iter_jsonl`` with one error handler, so a record costs its ``parse``
call alone; it also refuses a repeated key, such as a query id. A ``parse``
checks each field's type with ``typed``, the one such check, and coerces nothing.

A framed body moves without intermediate copies: ``read_framed`` reads it
once, straight into a fresh numpy byte array, so the doubles viewed in it
are aligned whatever the header's length, and ``write_framed`` writes the
header line and then the body's own buffer.

Every reader decodes with ``orjson``: several times faster than ``json``
on nested float lists, with the same bits for every finite double ``json``
writes. It refuses ``NaN``, ``Infinity``, numbers beyond the double range
and lone surrogate escapes, in a JSON line as in a document, and decodes an
integer wider than 64 bits as a float. It keeps the last value of a
repeated key, so a file a person writes is first checked by
``check_unique_keys``, which decodes it with ``json`` and refuses an
object repeating a key; files eventlink writes have no repeats.

Every writer writes the bytes ``json`` writes, which the goldens pin.
``write_jsonl`` takes lines: a dict record becomes one through
``json_line``, which is ``json.dumps(record, sort_keys=True)``. Candidate
and decision lines, one per query of ``retrieve`` and ``link``, are
formatted by their types (``CandidateSet.to_line``,
``LinkDecision.to_line``) from their fields with ``json_string`` and
``json_floats``, json's text for a string and a float: the same bytes,
without building a dict per line. Checkpoints are ``json_object`` of
their fields, each parameter array written by ``json_array``, a row at
a time, with no Python float per value.

Floats are formatted by ``orjson``, several times faster than ``repr``:
both give the shortest digits that read back to the same double, but
orjson writes an exponent as ``1e16`` and ``1.5e-7`` (``repr``: ``1e+16``
and ``1.5e-07``) and a value in [1e-5, 1e-4) as ``0.00001`` (``repr``:
``1e-05``). So orjson's text holding an ``e`` or ``0.0000``, or a
``null`` (its text of a non-finite value), is formatted again
(``_not_repr``): a float by ``repr`` in ``json_floats``, a row by
``json`` in ``json_array``. Non-finite values are refused before they reach a
writer, since no reader accepts one: ``CandidateSet`` and
``LinkDecision`` refuse a non-finite score, and
``encoders.save_checkpoint`` a non-finite parameter.

``file_digest`` hashes a file in fixed-size chunks, so a manifest costs
no second copy of a stage's largest input.
"""

from __future__ import annotations

import hashlib
import json
import json.scanner
import os
import tempfile
from json.encoder import encode_basestring_ascii as json_string
from typing import Callable, Iterable, Iterator, TypeVar

import numpy as np
import orjson

MANIFEST_KEY = "_manifest"

T = TypeVar("T")

# json.dumps(record, sort_keys=True) without building an encoder per call
json_line = json.JSONEncoder(sort_keys=True).encode

_KINDS = {str: "a string", int: "an integer", float: "a number", list: "a list", dict: "an object"}

# bytes that file_digest reads and hashes at a time, few enough to stay in cache
_DIGEST_CHUNK = 2 ** 16


def typed(value, kind: type, what: str):
    """``value`` if its type is exactly ``kind``: ``str``, ``int``, ``float``, ``list`` or ``dict``.

    Else a ``ValueError`` reading ``{what} {value!r} is not a string`` (``an integer``, ``a number``,
    ``a list``, ``an object``). A bool is no integer; ``float`` takes any other JSON number, as a float.
    """
    if type(value) is kind:
        return value
    if kind is float and type(value) is int:
        return float(value)
    raise ValueError(f"{what} {value!r} is not {_KINDS[kind]}")


def _not_repr(text, e="e", zeros="0.0000", null="n") -> bool:
    """True if ``text``, orjson's of some floats, may not be their ``repr``: it holds an ``e``,
    a ``0.0000`` or a ``null``. Bytes are tested with ``b"e"``, ``b"0.0000"`` and ``b"n"``."""
    return e in text or zeros in text or null in text


def json_floats(values: tuple[float, ...] | list[float]) -> list[str]:
    """``json``'s text of each finite float, its ``repr``, from one ``orjson.dumps`` of them all.

    A value whose orjson text fails ``_not_repr`` is formatted by ``repr``.
    """
    text = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY).decode()
    texts = text[1:-1].split(",") if values else []
    if _not_repr(text):
        return [float.__repr__(v) if _not_repr(t) else t for t, v in zip(texts, values)]
    return texts


def json_array(arr: np.ndarray) -> bytes:
    """The bytes of ``json.dumps(arr.tolist())`` for a C-contiguous float64 array of one or more dimensions.

    Each row is one ``orjson.dumps``, its commas spaced as ``json`` spaces them;
    a row whose text fails ``_not_repr`` is written by ``json`` itself.
    """
    if arr.ndim > 1:
        return b"[" + b", ".join(map(json_array, arr)) + b"]"
    text = orjson.dumps(arr, option=orjson.OPT_SERIALIZE_NUMPY)
    if _not_repr(text, b"e", b"0.0000", b"n"):
        return json.dumps(arr.tolist()).encode()
    return text.replace(b",", b", ")


def json_object(fields: dict) -> bytes:
    """``json.dumps(fields, sort_keys=True)``, where a ``bytes`` value is its own JSON text,
    as ``json_array`` gives it."""
    items = (json_string(key).encode() + b": " +
             (value if type(value) is bytes else json_line(value).encode())
             for key, value in sorted(fields.items()))
    return b"{" + b", ".join(items) + b"}"


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest_bytes(data) -> str:
    """sha256 of ``data``: bytes, or a C-contiguous array's own buffer."""
    return hashlib.sha256(data).hexdigest()


def file_digest(path) -> str:
    """sha256 of a file's bytes, read ``_DIGEST_CHUNK`` bytes at a time into one buffer."""
    digest, chunk = hashlib.sha256(), bytearray(_DIGEST_CHUNK)
    view = memoryview(chunk)
    with open(path, "rb", buffering=0) as fh:
        while size := fh.readinto(chunk):
            digest.update(view[:size])
    return digest.hexdigest()


def json_digest(obj) -> str:
    """sha256 of the canonical JSON of ``obj`` (manifests, checkpoint states)."""
    return digest_bytes(canonical_json(obj).encode("utf-8"))


def make_manifest(command: str, config: dict, inputs: dict[str, str]) -> dict:
    """Describe one command run: config snapshot plus input digests."""
    return {
        "format_version": 1,
        "command": command,
        "config": config,
        "inputs": {
            name: {"path": str(path), "sha256": file_digest(path)}
            for name, path in sorted(inputs.items())
        },
    }


def atomic_write_bytes(path, *chunks) -> None:
    """Write each of ``chunks`` (bytes, or a C-contiguous array's own buffer) in turn to a
    temporary file beside ``path``, and rename it into place."""
    directory = os.path.dirname(os.fspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def write_jsonl(path, lines: Iterable[str], manifest: dict | None = None) -> None:
    """Write each of ``lines``, after a ``_manifest`` header line if ``manifest`` is given."""
    header = [] if manifest is None else [json_line({MANIFEST_KEY: manifest})]
    # each line ends in a newline, so no records and no manifest is an empty file
    atomic_write_text(path, "\n".join([*header, *lines, ""]))


def _decode(data: bytes, path, lineno: int | None = None):
    """``orjson.loads`` of ``data``; a refusal is a ValueError naming ``path``, and ``lineno`` if given.

    Refused bytes alone are decoded as UTF-8, to tell ``not UTF-8`` from ``malformed JSON``.
    A line's reason ends with orjson's column; its line number is always 1.
    """
    try:
        return orjson.loads(data)
    except orjson.JSONDecodeError as exc:
        where, reason = ((path, exc) if lineno is None else
                         (f"{path}: line {lineno}", f"{exc.msg} at column {exc.colno}"))
        try:
            data.decode("utf-8")
        except UnicodeDecodeError:
            raise ValueError(f"{where}: not UTF-8") from None
        raise ValueError(f"{where}: malformed JSON: {reason}") from None


def iter_jsonl(path) -> Iterator[tuple[int, dict]]:
    """Yield (lineno, record), skipping the manifest header on line 1 if present.

    A line past line 1 whose only key is ``_manifest`` is not a record:
    it raises ValueError naming the file and the line.

    The file is split on ``\\n`` only, and each line loses the ASCII
    whitespace that ``bytes.strip`` removes. A blank line, or a line that is
    not UTF-8 JSON (a truncated file, say), raises ValueError naming the
    file and the line: ``{path}: line N: blank line``,
    ``{path}: line N: not UTF-8`` or
    ``{path}: line N: malformed JSON: {reason} at column C``.
    """
    with open(path, "rb") as fh:
        lines = fh.read().split(b"\n")
    if not lines[-1]:  # what follows the final newline
        lines.pop()
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            raise ValueError(f"{path}: line {lineno}: blank line")
        record = _decode(line, path, lineno)
        if isinstance(record, dict) and len(record) == 1 and MANIFEST_KEY in record:
            if lineno == 1:
                continue
            raise ValueError(f"{path}: line {lineno}: manifest header not on line 1")
        yield lineno, record


class _RepeatedKey(Exception):
    """A JSON object repeats ``key``; ``at`` is the index where the object opens, once known."""

    def __init__(self, key: str):
        super().__init__(key)
        self.key, self.at = key, 0


def _unique_pairs(pairs: list) -> dict:
    """The object of ``pairs``, as json's ``object_pairs_hook``; a repeated key raises ``_RepeatedKey``."""
    record = dict(pairs)
    if len(record) < len(pairs):
        seen = set()
        raise _RepeatedKey(next(key for key, _ in pairs if key in seen or seen.add(key)))
    return record


def _located_object(s_and_end, *args):
    """json's ``JSONObject``, noting on the ``_RepeatedKey`` of its own pairs where it opens."""
    try:
        return json.decoder.JSONObject(s_and_end, *args)
    except _RepeatedKey as exc:
        exc.at = exc.at or s_and_end[1] - 1
        raise


# json's C scanner for JSON lines, whose line is the line of the object; its Python scanner,
# which calls _located_object for each object, for a document
_UNIQUE_LINES = json.JSONDecoder(object_pairs_hook=_unique_pairs)
_UNIQUE_DOCUMENT = json.JSONDecoder(object_pairs_hook=_unique_pairs)
_UNIQUE_DOCUMENT.parse_object = _located_object
_UNIQUE_DOCUMENT.scan_once = json.scanner.py_make_scanner(_UNIQUE_DOCUMENT)


def check_unique_keys(path, document: bool = False) -> None:
    """Refuse a file a person writes, JSON lines or with ``document`` one JSON document, in which an
    object repeats a key: ``orjson`` would keep the key's last value, silently.

    The ValueError reads ``{path}: line N: repeated key 'k'``, N being the line
    where the innermost object repeating it opens. Text that ``json`` cannot
    decode is left to the reader, which refuses it in its own words.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    decoder = _UNIQUE_DOCUMENT if document else _UNIQUE_LINES
    for lineno, piece in enumerate([data] if document else data.split(b"\n"), start=1):
        try:
            decoder.decode(text := piece.decode("utf-8"))
        except _RepeatedKey as exc:
            line = lineno + text.count("\n", 0, exc.at)
            raise ValueError(f"{path}: line {line}: repeated key {exc.key!r}") from None
        except (ValueError, RecursionError):
            continue


def read_manifest(path) -> dict | None:
    """The first line's ``_manifest`` value if that is its only key, as ``iter_jsonl`` skips it.

    The line is read as ``iter_jsonl`` reads it: up to the first ``\\n``,
    less ASCII whitespace at either end.
    """
    with open(path, "rb") as fh:
        first = fh.readline()
    try:
        record = orjson.loads(first.strip())
    except orjson.JSONDecodeError:
        return None
    if isinstance(record, dict) and len(record) == 1 and MANIFEST_KEY in record:
        return record[MANIFEST_KEY]
    return None


def write_json(path, payload: dict, manifest: dict | None = None) -> None:
    document = dict(payload)
    if manifest is not None:
        document = {MANIFEST_KEY: manifest, **payload}
    atomic_write_text(path, json.dumps(document, sort_keys=True, indent=2) + "\n")


def read_json(path) -> tuple[dict | None, dict]:
    """Return (manifest or None, document); a file that is not UTF-8 JSON raises ValueError naming it."""
    with open(path, "rb") as fh:
        document = _decode(fh.read(), path)
    manifest = document.pop(MANIFEST_KEY, None) if isinstance(document, dict) else None
    return manifest, document


def write_framed(path, header: dict, body, manifest: dict | None = None) -> None:
    """Write ``header`` as one line of canonical JSON, ``manifest`` embedded if given, then ``body``.

    ``body`` is bytes or a C-contiguous array, whose own buffer is written
    after the header line: no copy of it is made. JSON escapes every
    newline inside a string, so the first newline of the file ends the header.
    """
    if manifest is not None:
        header = {MANIFEST_KEY: manifest, **header}
    atomic_write_bytes(path, canonical_json(header).encode("utf-8") + b"\n", body)


def _refusal(exc: Exception, where) -> ValueError:
    message = f"missing key {exc.args[0]!r}" if isinstance(exc, KeyError) else str(exc)
    return ValueError(f"{where}: {message}")


def _not_object(record):
    raise TypeError(f"expected a JSON object, found {type(record).__name__}")


def _parse(parse: Callable[[dict], T], record, path) -> T:
    try:
        return parse(record) if isinstance(record, dict) else _not_object(record)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise _refusal(exc, path) from exc


def read_records(path, parse: Callable[[dict], T], unique: tuple[str, Callable] | None = None) -> list[T]:
    """``parse`` of every record of a JSON-lines file, in order; errors name the file and line.

    ``unique=(name, key)`` refuses a record whose ``key`` repeats an earlier one as a duplicate ``name``.
    """
    name, key = unique or ("", None)
    records, seen = [], set()
    for lineno, record in iter_jsonl(path):
        try:
            value = parse(record) if isinstance(record, dict) else _not_object(record)
            if key is not None:
                if (repeat := key(value)) in seen:
                    raise ValueError(f"duplicate {name} {repeat!r}")
                seen.add(repeat)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise _refusal(exc, f"{path}: line {lineno}") from exc
        records.append(value)
    return records


def read_document(path, parse: Callable[[dict], T]) -> T:
    """``parse`` of a single-document JSON file, manifest removed; errors name the file."""
    return _parse(parse, read_json(path)[1], path)


def read_framed(path, parse: Callable[[dict, np.ndarray], T], unframed: str) -> T:
    """``parse(header, body)`` of a file written by ``write_framed``, manifest removed; errors name the file.

    ``body`` is a fresh ``uint8`` array of every byte after the header
    line, sized from ``fstat`` and filled by one ``readinto``. numpy
    allocates it aligned, so a view of it as wider numbers is aligned
    too, whatever the header's length. A file whose first line is not a
    UTF-8 JSON object, such as a file of an older format, raises
    ValueError with the message ``unframed``.
    """
    with open(path, "rb") as fh:
        line = fh.readline()
        try:
            header = orjson.loads(line) if line.endswith(b"\n") else None
        except orjson.JSONDecodeError:
            header = None
        if not isinstance(header, dict):
            raise ValueError(f"{path}: {unframed}")
        body = np.empty(os.fstat(fh.fileno()).st_size - fh.tell(), dtype=np.uint8)
        body = body[:fh.readinto(body)]
    header.pop(MANIFEST_KEY, None)
    return _parse(lambda fields: parse(fields, body), header, path)
