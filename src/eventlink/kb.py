"""Knowledge-base loading, validation, and candidate-side serialization.

A KB file is UTF-8 JSON-lines: one object per line with string fields
``id``, ``title``, ``description``. The id ``"NIL"`` is reserved for the
out-of-KB label and may never appear as an entry id.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Iterable, Iterator

from . import artifacts

NIL = "NIL"

# Atomic marker separating title tokens from description tokens in
# candidate-side serializations.
TITLE_SEP = "[TITLE_SEP]"

# Input budgets, in tokens, of the two models (the BLINK setting, arXiv
# 1911.03814): the retriever encodes queries and candidates at
# RETRIEVER_MAX_LEN, the cross scorer at SCORER_MAX_LEN.
RETRIEVER_MAX_LEN = 300
SCORER_MAX_LEN = 256


class KBError(ValueError):
    """A knowledge-base file or entry violates its schema or invariants."""


def tokenize(text: str) -> list[str]:
    """Whitespace tokenization, the package-wide token convention."""
    return text.split()


@dataclass(frozen=True, slots=True)
class KBEntry:
    """One knowledge-base node."""

    id: str
    title: str
    description: str

    def __post_init__(self) -> None:
        if not type(self.id) is type(self.title) is type(self.description) is str:
            _check_types(self.__getattribute__)
        if not self.id:
            raise KBError("entry id must be non-empty")
        if self.id == NIL:
            raise KBError(f"entry id {NIL!r} is reserved for the out-of-KB label")
        if not self.title:
            raise KBError(f"entry {self.id!r}: title must be non-empty")


class KnowledgeBase:
    """Ordered, immutable collection of entries with unique-id lookup.

    Safe for concurrent readers once constructed.
    """

    def __init__(self, entries: Iterable[KBEntry]):
        self._entries: tuple[KBEntry, ...] = tuple(entries)
        self._by_id: dict[str, KBEntry] = {entry.id: entry for entry in self._entries}
        if len(self._by_id) < len(self._entries):
            seen: set[str] = set()
            repeat = next(e.id for e in self._entries if e.id in seen or seen.add(e.id))
            raise KBError(f"duplicate entry id {repeat!r}")

    def __iter__(self) -> Iterator[KBEntry]:
        return iter(self._entries)

    @property
    def n(self) -> int:
        return len(self._entries)

    def get(self, entry_id: str) -> KBEntry | None:
        """Return the entry with this id, or None. Never stores ``NIL``."""
        return self._by_id.get(entry_id)

    def entries(self, ids: Iterable[str]) -> list[KBEntry]:
        """The entry of each id, in order; an unknown id is a ``KBError``."""
        try:
            return [self._by_id[entry_id] for entry_id in ids]
        except KeyError as exc:
            raise KBError(f"candidate id {exc.args[0]!r} not found in the KB") from None

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(e.id for e in self._entries)


def _check_types(field_value: Callable[[str], object]) -> None:
    """Refuse the first field, in file order, that is missing or not a string."""
    for field in ("id", "title", "description"):
        if not isinstance(field_value(field), str):
            raise KBError(f"field {field!r} must be a string")


def entry_from_record(record: dict) -> KBEntry:
    try:
        return KBEntry(record["id"], record["title"], record["description"])
    except KeyError:  # refuse, in field order, the first field missing or not a string
        _check_types(record.__getitem__)


def entry_to_record(entry: KBEntry) -> dict:
    return {"id": entry.id, "title": entry.title, "description": entry.description}


def load_kb(path) -> KnowledgeBase:
    """Load a JSON-lines KB file, preserving record order.

    Rejects duplicate ids (naming the id), the reserved id ``NIL``,
    malformed lines (naming the line number) and a file without entries,
    always with a ``KBError`` naming the file. Lines holding a single
    ``_manifest`` object are artifact headers and are skipped.
    """
    try:
        entries = artifacts.read_records(path, entry_from_record, ("entry id", attrgetter("id")))
    except ValueError as exc:  # its message names the file and the line
        raise KBError(str(exc)) from None
    if not entries:
        raise KBError(f"{path}: no entries")
    return KnowledgeBase(entries)


def candidate_text(entry: KBEntry, max_len: int) -> list[str]:
    """Serialize an entry as ``title [TITLE_SEP] description`` tokens.

    Truncated from the right to ``max_len`` tokens; callers should pass
    max_len >= 4 so at least the separator and some title survive.
    """
    tokens = tokenize(entry.title) + [TITLE_SEP] + tokenize(entry.description)
    return tokens[:max_len]


def full_candidate_tokens(entry: KBEntry) -> list[str]:
    """Untruncated candidate-side token sequence (BM25 indexes this)."""
    return tokenize(entry.title) + [TITLE_SEP] + tokenize(entry.description)
