"""Artifact files: JSON-lines records with an embedded run manifest.

Every pipeline output starts with a header line holding a single
``_manifest`` object (command, config, seeds, and sha256 digests of the
inputs that produced it); readers skip it transparently. Single-document
JSON artifacts embed the manifest under the same key. Writes go to a
temporary file in the target directory and are renamed into place, so a
failed command never leaves a partial artifact behind. Manifests carry
paths exactly as given (never resolved), keeping reruns byte-identical
across working directories.

Every input is parsed through ``read_records`` (JSON lines) or
``read_document`` (one JSON document). They refuse a record that is not a
JSON object and turn a ``KeyError``, ``TypeError``, ``ValueError`` or
``AttributeError`` of the caller's ``parse`` into one ``ValueError``
naming the file, and the line for JSON lines.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Callable, Iterable, Iterator, TypeVar

MANIFEST_KEY = "_manifest"

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


def atomic_write_text(path, text: str) -> None:
    directory = os.path.dirname(os.fspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_jsonl(path, records: Iterable[dict], manifest: dict | None = None) -> None:
    lines = []
    if manifest is not None:
        lines.append(json.dumps({MANIFEST_KEY: manifest}, sort_keys=True))
    for record in records:
        lines.append(json.dumps(record, sort_keys=True))
    atomic_write_text(path, "\n".join(lines) + "\n")


def iter_jsonl(path) -> Iterator[tuple[int, dict]]:
    """Yield (lineno, record), skipping the manifest header if present.

    A blank line, or a line that is not UTF-8 JSON (a truncated file, say),
    raises ValueError naming the file and the line.
    """
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped:
                raise ValueError(f"{path}: blank line at line {lineno}")
            try:
                record = json.loads(stripped.decode("utf-8"))
            except UnicodeDecodeError:
                raise ValueError(f"{path}: line {lineno} is not UTF-8") from None
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: malformed JSON at line {lineno}: {exc.msg}") from exc
            if isinstance(record, dict) and set(record) == {MANIFEST_KEY}:
                continue
            yield lineno, record


def read_manifest(path) -> dict | None:
    """The first line's ``_manifest`` value if that is its only key, as ``iter_jsonl`` skips it."""
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().strip()
    if not first:
        return None
    try:
        record = json.loads(first)
    except json.JSONDecodeError:
        return None
    if isinstance(record, dict) and set(record) == {MANIFEST_KEY}:
        return record[MANIFEST_KEY]
    return None


def write_json(path, payload: dict, manifest: dict | None = None) -> None:
    document = dict(payload)
    if manifest is not None:
        document = {MANIFEST_KEY: manifest, **payload}
    atomic_write_text(path, json.dumps(document, sort_keys=True, indent=2) + "\n")


def read_json(path) -> tuple[dict | None, dict]:
    """Return (manifest or None, document); a file that is not UTF-8 JSON raises ValueError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            document = json.load(fh)
    except UnicodeDecodeError:
        raise ValueError(f"{path}: not UTF-8") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: malformed JSON: {exc}") from None
    manifest = document.pop(MANIFEST_KEY, None) if isinstance(document, dict) else None
    return manifest, document


def _parse(parse: Callable[[dict], T], record, path, lineno: int | None = None) -> T:
    try:
        if not isinstance(record, dict):
            raise TypeError(f"expected a JSON object, found {type(record).__name__}")
        return parse(record)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        where = str(path) if lineno is None else f"{path}: line {lineno}"
        message = f"missing key {exc.args[0]!r}" if isinstance(exc, KeyError) else str(exc)
        raise ValueError(f"{where}: {message}") from exc


def read_records(path, parse: Callable[[dict], T]) -> list[T]:
    """``parse`` of every record of a JSON-lines file, in order; errors name the file and line."""
    return [_parse(parse, record, path, lineno) for lineno, record in iter_jsonl(path)]


def read_document(path, parse: Callable[[dict], T]) -> T:
    """``parse`` of a single-document JSON file, manifest removed; errors name the file."""
    return _parse(parse, read_json(path)[1], path)
