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
call alone; it also refuses a repeated key, such as a query id.

Single JSON documents (checkpoints, eval reports, the role lexicon) decode
with ``orjson``: several times faster than ``json`` on nested float lists,
with the same bits for every finite double ``json`` writes, and refusing
``NaN``, ``Infinity`` and numbers beyond the double range. JSON lines,
framed headers and the manifest line decode with the stdlib ``json``
module, and every writer encodes with it, because the goldens pin its
bytes.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Callable, Iterable, Iterator, TypeVar

import orjson

MANIFEST_KEY = "_manifest"

# what bytes.strip() removes; str.strip() would also remove \x1c-\x1f, \x85 and more
_ASCII_WHITESPACE = " \t\n\r\x0b\x0c"
_SCAN = json.JSONDecoder().scan_once  # what JSONDecoder.raw_decode calls, without its frame

T = TypeVar("T")


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return digest_bytes(fh.read())


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


def atomic_write_bytes(path, data: bytes) -> None:
    """Write ``data`` to a temporary file beside ``path`` and rename it into place."""
    directory = os.path.dirname(os.fspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def write_jsonl(path, records: Iterable[dict], manifest: dict | None = None) -> None:
    lines = []
    if manifest is not None:
        lines.append(json.dumps({MANIFEST_KEY: manifest}, sort_keys=True))
    for record in records:
        lines.append(json.dumps(record, sort_keys=True))
    # each line ends in a newline, so no records and no manifest is an empty file
    atomic_write_text(path, "\n".join([*lines, ""]))


def iter_jsonl(path) -> Iterator[tuple[int, dict]]:
    """Yield (lineno, record), skipping the manifest header on line 1 if present.

    A line past line 1 whose only key is ``_manifest`` is not a record:
    it raises ValueError naming the file and the line.

    A blank line, or a line that is not UTF-8 JSON (a truncated file, say),
    raises ValueError naming the file and the line. The file is read and
    decoded once, split on ``\\n`` only, and each line loses the ASCII
    whitespace that ``bytes.strip`` removes. A file that is not UTF-8 as a
    whole is decoded line by line, so that the error of an earlier line
    still comes first.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        lines = data.decode("utf-8").split("\n")
    except UnicodeDecodeError:
        lines = data.split(b"\n")
    if not lines[-1]:  # what follows the final newline
        lines.pop()
    for lineno, line in enumerate(lines, start=1):
        if isinstance(line, bytes):
            try:
                line = line.decode("utf-8")
            except UnicodeDecodeError:
                raise ValueError(f"{path}: line {lineno} is not UTF-8") from None
        line = line.strip(_ASCII_WHITESPACE)
        if not line:
            raise ValueError(f"{path}: blank line at line {lineno}")
        try:  # one scan when the whole line is one value; else json.loads raises its error
            record, end = _SCAN(line, 0)
        except (StopIteration, json.JSONDecodeError):
            end = -1
        if end != len(line):
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: malformed JSON at line {lineno}: {exc.msg}") from exc
        if isinstance(record, dict) and len(record) == 1 and MANIFEST_KEY in record:
            if lineno == 1:
                continue
            raise ValueError(f"{path}: manifest header at line {lineno}, not line 1")
        yield lineno, record


def read_manifest(path) -> dict | None:
    """The first line's ``_manifest`` value if that is its only key, as ``iter_jsonl`` skips it.

    The line is read as ``iter_jsonl`` reads it: up to the first ``\\n``,
    less ASCII whitespace at either end.
    """
    with open(path, "rb") as fh:
        first = fh.readline()
    try:
        record = json.loads(first.decode("utf-8").strip(_ASCII_WHITESPACE))
    except ValueError:  # UnicodeDecodeError and JSONDecodeError alike
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
    """Return (manifest or None, document); a file that is not UTF-8 JSON raises ValueError naming it.

    ``orjson`` decodes the bytes: ``NaN``, ``Infinity``, a number beyond the
    double range and a lone surrogate escape are malformed JSON, and an
    integer wider than 64 bits decodes as a float.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        document = orjson.loads(data)
    except orjson.JSONDecodeError as exc:
        try:  # decoded only on refusal, so a document read keeps no second copy of its text
            data.decode("utf-8")
        except UnicodeDecodeError:
            raise ValueError(f"{path}: not UTF-8") from None
        raise ValueError(f"{path}: malformed JSON: {exc}") from None
    manifest = document.pop(MANIFEST_KEY, None) if isinstance(document, dict) else None
    return manifest, document


def write_framed(path, header: dict, body: bytes, manifest: dict | None = None) -> None:
    """Write ``header`` as one line of canonical JSON, ``manifest`` embedded if given, then ``body``.

    JSON escapes every newline inside a string, so the first newline of the
    file ends the header.
    """
    if manifest is not None:
        header = {MANIFEST_KEY: manifest, **header}
    atomic_write_bytes(path, canonical_json(header).encode("utf-8") + b"\n" + body)


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


def read_framed(path, parse: Callable[[dict, bytes], T], unframed: str) -> T:
    """``parse(header, body)`` of a file written by ``write_framed``, manifest removed; errors name the file.

    A file whose first line is not a UTF-8 JSON object, such as a file of
    an older format, raises ValueError with the message ``unframed``.
    """
    with open(path, "rb") as fh:
        line = fh.readline()
        try:
            header = json.loads(line.decode("utf-8")) if line.endswith(b"\n") else None
        except ValueError:  # UnicodeDecodeError and JSONDecodeError alike
            header = None
        if not isinstance(header, dict):
            raise ValueError(f"{path}: {unframed}")
        body = fh.read()
    header.pop(MANIFEST_KEY, None)
    return _parse(lambda fields: parse(fields, body), header, path)
