"""Knowledge-base loading, validation, and candidate-side serialization.

A KB file is UTF-8 JSON-lines: one object per line with string fields
``id``, ``title``, ``description``. The id ``"NIL"`` is reserved for the
out-of-KB label and may never appear as an entry id.

A ``KnowledgeBase`` holds its entries as three columns (``ids``,
``titles``, ``descriptions``) and an id → position dict. ``load_kb`` fills
them straight from the file's records. Below the CLI, candidates travel as
KB rows (``KnowledgeBase.rows``) and are read from the columns:
``KnowledgeBase.candidate_texts`` is the one candidate serializer.
``KBEntry`` values exist only where a KB is built by hand, and iteration
hands them out.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

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

_FIELDS = ("id", "title", "description")


class KBError(ValueError):
    """A knowledge-base file or entry violates its schema or invariants."""


def tokenize(text: str) -> list[str]:
    """Whitespace tokenization, the package-wide token convention."""
    return text.split()


def _refusal(record, position: dict[str, int]) -> str | None:
    """Why ``record`` cannot be the next entry of a KB holding ``position``'s ids, or None.

    The checks run in this order: a value that is not an object, the first
    field in file order that is missing or not a string, an empty id, the
    reserved id, an empty title, then an id already in ``position``.
    """
    if not isinstance(record, dict):
        return f"expected a JSON object, found {type(record).__name__}"
    for field in _FIELDS:
        if field not in record:
            return f"missing key {field!r}"
        if not isinstance(record[field], str):
            return f"field {field!r} must be a string"
    entry_id = record["id"]
    if not entry_id:
        return "entry id must be non-empty"
    if entry_id == NIL:
        return f"entry id {NIL!r} is reserved for the out-of-KB label"
    if not record["title"]:
        return f"entry {entry_id!r}: title must be non-empty"
    if entry_id in position:
        return f"duplicate entry id {entry_id!r}"
    return None


@dataclass(frozen=True, slots=True)
class KBEntry:
    """One knowledge-base node."""

    id: str
    title: str
    description: str

    def __post_init__(self) -> None:
        fields = {"id": self.id, "title": self.title, "description": self.description}
        if (message := _refusal(fields, {})) is not None:
            raise KBError(message)


class KnowledgeBase:
    """Ordered, immutable entries held as columns, with unique-id lookup.

    ``KnowledgeBase(entries)`` takes ``KBEntry`` values; ``load_kb`` reads a
    file. Iteration builds a ``KBEntry`` per entry handed out. Safe for
    concurrent readers once constructed.
    """

    def __init__(self, entries: Iterable[KBEntry]):
        entries = tuple(entries)
        position: dict[str, int] = {}
        for row, entry in enumerate(entries):
            if position.setdefault(entry.id, row) != row:
                raise KBError(f"duplicate entry id {entry.id!r}")
        self._fill(position, [e.title for e in entries], [e.description for e in entries])

    @classmethod
    def _of_columns(cls, position: dict[str, int], titles: list[str],
                    descriptions: list[str]) -> "KnowledgeBase":
        kb = cls.__new__(cls)
        kb._fill(position, titles, descriptions)
        return kb

    def _fill(self, position: dict[str, int], titles: list[str], descriptions: list[str]) -> None:
        self._position = position  # ids in KB order, each mapped to its row
        self.ids: tuple[str, ...] = tuple(position)
        self.titles: tuple[str, ...] = tuple(titles)
        self.descriptions: tuple[str, ...] = tuple(descriptions)

    def __iter__(self) -> Iterator[KBEntry]:
        return map(KBEntry, self.ids, self.titles, self.descriptions)

    @property
    def n(self) -> int:
        return len(self.ids)

    def rows(self, ids: Iterable[str]) -> list[int]:
        """The row of each id, in order; an unknown id is a ``KBError``."""
        try:
            return [self._position[entry_id] for entry_id in ids]
        except KeyError as exc:
            raise KBError(f"candidate id {exc.args[0]!r} not found in the KB") from None

    def records(self) -> list[dict]:
        """Every entry's KB-file record, in KB order, read from the columns."""
        return [dict(zip(_FIELDS, row)) for row in zip(self.ids, self.titles, self.descriptions)]

    def candidate_texts(self, max_len: int | None = None,
                        rows: Sequence[int] | None = None) -> list[list[str]]:
        """The ``title [TITLE_SEP] description`` tokens of each of ``rows``, or of every row.

        Each is cut from the right at ``max_len`` tokens, or left whole when
        ``max_len`` is None.
        """
        titles, descriptions = self.titles, self.descriptions
        if rows is not None:
            titles, descriptions = [titles[r] for r in rows], [descriptions[r] for r in rows]
        texts = ([*tokenize(title), TITLE_SEP, *tokenize(description)]
                 for title, description in zip(titles, descriptions))
        return list(texts) if max_len is None else [tokens[:max_len] for tokens in texts]


def load_kb(path) -> KnowledgeBase:
    """Load a JSON-lines KB file, preserving record order.

    Rejects duplicate ids (naming the id), the reserved id ``NIL``,
    malformed lines (naming the line number) and a file without entries,
    always with a ``KBError`` naming the file. A first line holding a
    single ``_manifest`` object is an artifact header and is skipped. One
    loop fills the columns; no ``KBEntry`` is built.
    """
    position: dict[str, int] = {}  # also the duplicate check
    titles, descriptions = [], []
    fields = itemgetter(*_FIELDS)
    try:
        for lineno, record in artifacts.iter_jsonl(path):
            row = len(titles)
            try:
                entry_id, title, description = fields(record)
                accepted = (type(entry_id) is type(title) is type(description) is str
                            and entry_id and title and entry_id != NIL
                            and position.setdefault(entry_id, row) == row)
            except (KeyError, TypeError):  # a missing field, or a record that is not an object
                accepted = False
            if not accepted:
                raise ValueError(f"{path}: line {lineno}: {_refusal(record, position)}")
            titles.append(title)
            descriptions.append(description)
    except ValueError as exc:  # its message names the file and the line
        raise KBError(str(exc)) from None
    if not titles:
        raise KBError(f"{path}: no entries")
    return KnowledgeBase._of_columns(position, titles, descriptions)
