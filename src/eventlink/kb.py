"""Knowledge-base loading, validation, and candidate-side serialization.

A KB file is UTF-8 JSON-lines: one object per line with string fields
``id``, ``title``, ``description``. The id ``"NIL"`` is reserved for the
out-of-KB label and may never appear as an entry id.

A ``KnowledgeBase`` holds its entries as three columns (``ids``,
``titles``, ``descriptions``) and an id → position dict.
``KnowledgeBase.from_records`` is its one constructor: one loop checks
numbered records and fills the columns, and ``load_kb`` feeds it a file's.
Below the CLI, candidates travel as KB rows (``KnowledgeBase.rows``) and
are read from the columns: ``KnowledgeBase.candidate_texts`` is the one
candidate serializer. Nothing here builds a ``KBEntry``.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Sequence

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
    """One KB node. It remains only for the benchmark, and ROADMAP item 2a deletes it."""

    id: str
    title: str
    description: str

    def __post_init__(self) -> None:
        fields = {"id": self.id, "title": self.title, "description": self.description}
        if (message := _refusal(fields, {})) is not None:
            raise KBError(message)


class KnowledgeBase:
    """Ordered, immutable entries held as columns, with unique-id lookup.

    ``from_records`` is the one constructor. Safe for concurrent readers.
    """

    @classmethod
    def from_records(cls, numbered_records: Iterable[tuple[int, object]], source) -> "KnowledgeBase":
        """The KB of ``(lineno, record)`` pairs, as ``artifacts.iter_jsonl`` yields them, in order.

        The first bad record (for ``_refusal``'s first reason), no records at
        all, and a ``ValueError`` from ``numbered_records`` are a ``KBError``
        naming ``source`` and, for a record, its line. No ``KBEntry`` is built.
        """
        position: dict[str, int] = {}  # also the duplicate check
        titles, descriptions = [], []
        fields = itemgetter(*_FIELDS)
        try:
            for lineno, record in numbered_records:
                row = len(titles)
                try:
                    entry_id, title, description = fields(record)
                    accepted = (type(entry_id) is type(title) is type(description) is str
                                and entry_id and title and entry_id != NIL
                                and position.setdefault(entry_id, row) == row)
                except (KeyError, TypeError):  # a missing field, or a record that is not an object
                    accepted = False
                if not accepted:
                    raise ValueError(f"{source}: line {lineno}: {_refusal(record, position)}")
                titles.append(title)
                descriptions.append(description)
        except ValueError as exc:  # its message names the source and the line
            raise KBError(str(exc)) from None
        if not titles:
            raise KBError(f"{source}: no entries")
        kb = cls.__new__(cls)
        kb._position = position  # ids in KB order, each mapped to its row
        kb.ids, kb.titles, kb.descriptions = tuple(position), tuple(titles), tuple(descriptions)
        return kb

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
    """``KnowledgeBase.from_records`` of a JSON-lines KB file's records, naming the file.

    A first line holding a single ``_manifest`` object is an artifact header and is skipped.
    """
    return KnowledgeBase.from_records(artifacts.iter_jsonl(path), path)
