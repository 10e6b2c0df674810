"""Event queries and pluggable argument extraction.

Extractor adapters produce an event type and argument spans for a query.
The module enforces the tagged-query invariants after every adapter call:
arguments never overlap each other or the mention, whatever the adapter
returned. A deterministic lexicon-based extractor serves tests and
desk-scale runs in place of learned extraction models.

Query files are decoded by ``query_from_record`` and
``tagged_from_record``, once per query by every serving stage. Each field
is read by a constant key and checked by an inline exact-type test
(``type(x) is int``), so the common case makes no call per field;
``artifacts.typed`` is called only to word a refusal. The checks fire in
a fixed order, field after field, so a record with two faults is refused
for the same one every time. ``TaggedQuery`` checks its arguments as
``(start, end)`` tuples, sorted, with no ``Span`` compared or built unless
one is refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter
from typing import Iterable, Mapping, Protocol, Sequence

from . import artifacts
from .artifacts import typed
from .kb import NIL

POS_CLASSES = ("verb", "noun", "other")


class ExtractionError(RuntimeError):
    """Adapter failure, annotated with the query id that triggered it."""

    def __init__(self, query_id: str, message: str):
        super().__init__(f"extraction failed for query {query_id!r}: {message}")
        self.query_id = query_id


@dataclass(frozen=True, order=True, slots=True)
class Span:
    """Inclusive token span ``[start, end]``."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.end < self.start:
            raise ValueError(f"invalid span ({self.start}, {self.end})")

    def __len__(self) -> int:
        return self.end - self.start + 1

    def overlaps(self, other: "Span") -> bool:
        return self.start <= other.end and other.start <= self.end

    def within(self, length: int) -> bool:
        return self.end < length


@dataclass(frozen=True, slots=True)
class NamedEntityAnnotation:
    """A named-entity span with its type, consumed as given (no built-in NER)."""

    span: Span
    entity_type: str


@dataclass(frozen=True, slots=True)
class EventQuery:
    """A token sequence with one marked event mention and a gold label."""

    query_id: str
    tokens: tuple[str, ...]
    mention: Span
    pos: str = "other"
    gold: str = NIL
    entities: tuple[NamedEntityAnnotation, ...] = ()

    def __post_init__(self) -> None:
        if type(self.tokens) is not tuple:
            object.__setattr__(self, "tokens", tuple(self.tokens))
        if type(self.entities) is not tuple:
            object.__setattr__(self, "entities", tuple(self.entities))
        if not self.tokens:
            raise ValueError(f"query {self.query_id!r}: empty token sequence")
        if not self.mention.within(len(self.tokens)):
            raise ValueError(
                f"query {self.query_id!r}: mention span ({self.mention.start}, "
                f"{self.mention.end}) outside {len(self.tokens)} tokens"
            )
        if self.pos not in POS_CLASSES:
            raise ValueError(f"query {self.query_id!r}: pos must be one of {POS_CLASSES}")
        for entity in self.entities:
            if not entity.span.within(len(self.tokens)):
                raise ValueError(f"query {self.query_id!r}: entity span out of bounds")

    @property
    def mention_tokens(self) -> tuple[str, ...]:
        return self.tokens[self.mention.start : self.mention.end + 1]

    @property
    def mention_text(self) -> str:
        return " ".join(self.mention_tokens)


@dataclass(frozen=True, slots=True)
class Argument:
    """One event participant: a token span and its role name."""

    span: Span
    role: str

    def __post_init__(self) -> None:
        if not self.role:
            raise ValueError("argument role must be non-empty")


# an argument's span bounds as a (start, end) tuple, which orders as its Span does
_BOUNDS = attrgetter("span.start", "span.end")


@dataclass(frozen=True, slots=True)
class TaggedQuery:
    """EventQuery enriched with a predicted event type and arguments.

    Invariants: argument spans are pairwise non-overlapping and none
    overlaps the mention span.
    """

    base: EventQuery
    event_type: str = "UNKNOWN"
    arguments: tuple[Argument, ...] = ()

    def __post_init__(self) -> None:
        if type(self.arguments) is not tuple:
            object.__setattr__(self, "arguments", tuple(self.arguments))
        length, mention = len(self.base.tokens), self.base.mention
        last = -1, -1  # the (start, end) before, in (start, end) order
        for start, end in sorted(map(_BOUNDS, self.arguments)):
            if end >= length:
                raise ValueError(f"argument span {Span(start, end)} outside query tokens")
            if start <= mention.end and mention.start <= end:
                raise ValueError(f"argument span {Span(start, end)} overlaps the mention")
            if start <= last[1]:
                raise ValueError(f"argument spans {Span(*last)} and {Span(start, end)} overlap")
            last = start, end


class ExtractorAdapter(Protocol):
    """Adapter contract for event-type and argument extraction."""

    def tag(self, query: EventQuery) -> tuple[str, Sequence[Argument]]: ...


def resolve_overlaps(
    arguments: Iterable[Argument], mention: Span, length: int
) -> tuple[Argument, ...]:
    """Enforce tagged-query invariants on raw adapter output.

    Arguments overlapping the mention (or out of bounds) are dropped;
    among mutually overlapping arguments the longest is kept, ties going
    to the earlier start.
    """
    usable = [
        a
        for a in arguments
        if a.span.within(length) and not a.span.overlaps(mention)
    ]
    kept: list[Argument] = []
    for arg in sorted(usable, key=lambda a: (-len(a.span), a.span.start)):
        if not any(arg.span.overlaps(k.span) for k in kept):
            kept.append(arg)
    return tuple(sorted(kept, key=lambda a: a.span))


def extract(extractor: ExtractorAdapter, query: EventQuery) -> TaggedQuery:
    """Run an adapter and return an invariant-clean TaggedQuery.

    The base query is passed through untouched. Empty adapter output is
    legal and yields zero arguments with event type ``UNKNOWN``.
    """
    try:
        event_type, raw_arguments = extractor.tag(query)
    except Exception as exc:
        raise ExtractionError(query.query_id, str(exc)) from exc
    arguments = resolve_overlaps(raw_arguments, query.mention, len(query.tokens))
    return TaggedQuery(base=query, event_type=event_type or "UNKNOWN", arguments=arguments)


@dataclass(frozen=True)
class RoleLexicon:
    """Surface-string lexicon: role phrases and event-type trigger words."""

    roles: Mapping[str, str]
    triggers: Mapping[str, str]

    @classmethod
    def from_file(cls, path) -> "RoleLexicon":
        """``roles`` and ``triggers`` objects of a JSON document, mapping phrases to non-empty strings."""
        return artifacts.read_document(path, lambda data: cls(
            roles=_names(data, "roles", "role"), triggers=_names(data, "triggers", "event_type")
        ))

    def to_dict(self) -> dict:
        return {"roles": dict(self.roles), "triggers": dict(self.triggers)}


def _names(data: dict, key: str, what: str) -> dict[str, str]:
    names = typed(data.get(key, {}), dict, key)
    for phrase, name in names.items():
        if not typed(name, str, what):
            raise ValueError(f"{what} of {phrase!r} must be non-empty")
    return names


class RuleExtractor:
    """Deterministic extractor tagging exact, case-insensitive lexicon matches.

    Scans left to right, preferring the longest phrase at each position,
    so adjacent matches come out disjoint. A pure function of
    (lexicon, query).
    """

    def __init__(self, lexicon: RoleLexicon):
        self._roles = {
            tuple(phrase.lower().split()): role for phrase, role in lexicon.roles.items()
        }
        self._triggers = {
            phrase.lower(): event_type for phrase, event_type in lexicon.triggers.items()
        }
        self._max_phrase = max((len(p) for p in self._roles), default=1)

    def tag(self, query: EventQuery) -> tuple[str, list[Argument]]:
        lowered = [t.lower() for t in query.tokens]
        event_type = self._triggers.get(query.mention_text.lower(), "UNKNOWN")
        arguments: list[Argument] = []
        i = 0
        while i < len(lowered):
            match_len = 0
            role = ""
            for width in range(min(self._max_phrase, len(lowered) - i), 0, -1):
                candidate = tuple(lowered[i : i + width])
                if candidate in self._roles:
                    match_len, role = width, self._roles[candidate]
                    break
            if match_len:
                arguments.append(Argument(Span(i, i + match_len - 1), role))
                i += match_len
            else:
                i += 1
        return event_type, arguments


# --- record (de)serialization for query files -------------------------------

def _entity(record) -> NamedEntityAnnotation:
    if type(record) is not dict:
        typed(record, dict, "entity")
    if type(start := record["start"]) is not int:
        typed(start, int, "start")
    if type(end := record["end"]) is not int:
        typed(end, int, "end")
    span = Span(start, end)
    if type(entity_type := record["entity_type"]) is not str:
        typed(entity_type, str, "entity_type")
    return NamedEntityAnnotation(span, entity_type)


def query_from_record(record: dict) -> EventQuery:
    """The query of a ``query_to_record`` record: text fields JSON strings, span bounds JSON integers.

    Each field is checked where it is read by an inline exact-type test, and
    ``typed`` is called only to word a refusal; the first fault in this order
    is the one refused: ``tokens`` and each token, each of ``entities`` (its
    bounds, its span, its type), ``query_id``, the mention's bounds and span,
    ``pos``, ``gold``, then ``EventQuery``'s own checks.
    """
    if type(tokens := record["tokens"]) is not list:
        typed(tokens, list, "tokens")
    if not {str}.issuperset(map(type, tokens)):
        typed(next(t for t in tokens if type(t) is not str), str, "token")
    if type(entities := record.get("entities", [])) is not list:
        typed(entities, list, "entities")
    entities = tuple(map(_entity, entities))
    if type(query_id := record["query_id"]) is not str:
        typed(query_id, str, "query_id")
    if type(start := record["mention_start"]) is not int:
        typed(start, int, "mention_start")
    if type(end := record["mention_end"]) is not int:
        typed(end, int, "mention_end")
    mention = Span(start, end)
    if type(pos := record.get("pos", "other")) is not str:
        typed(pos, str, "pos")
    if type(gold := record.get("gold", NIL)) is not str:
        typed(gold, str, "gold")
    return EventQuery(query_id, tuple(tokens), mention, pos, gold, entities)


def query_to_record(query: EventQuery) -> dict:
    record = {
        "query_id": query.query_id,
        "tokens": list(query.tokens),
        "mention_start": query.mention.start,
        "mention_end": query.mention.end,
        "pos": query.pos,
        "gold": query.gold,
    }
    if query.entities:
        record["entities"] = [
            {"start": e.span.start, "end": e.span.end, "entity_type": e.entity_type}
            for e in query.entities
        ]
    return record


@lru_cache(maxsize=4096)
def _argument(start: int, end: int, role: str) -> Argument:
    # Arguments are immutable, so one validated object serves every repeat of (start, end, role)
    return Argument(Span(start, end), role)


def tagged_from_record(record: dict) -> TaggedQuery:
    """The tagged query of a ``tagged_to_record`` record, checked as ``query_from_record`` checks.

    The query's fields come first, then each of ``arguments`` (its bounds and
    role types, its span, its role), then ``event_type``, then ``TaggedQuery``'s
    own checks.
    """
    base = query_from_record(record)
    if type(records := record.get("arguments", [])) is not list:
        typed(records, list, "arguments")
    arguments = []
    for argument in records:
        if type(argument) is not dict:
            typed(argument, dict, "argument")
        if type(start := argument["start"]) is not int:
            typed(start, int, "start")
        if type(end := argument["end"]) is not int:
            typed(end, int, "end")
        if type(role := argument["role"]) is not str:
            typed(role, str, "role")
        arguments.append(_argument(start, end, role))  # types checked first, as True and 1 are one cache key
    if type(event_type := record.get("event_type", "UNKNOWN")) is not str:
        typed(event_type, str, "event_type")
    return TaggedQuery(base, event_type, tuple(arguments))


def tagged_to_record(tagged: TaggedQuery) -> dict:
    record = query_to_record(tagged.base)
    record["event_type"] = tagged.event_type
    record["arguments"] = [
        {"start": a.span.start, "end": a.span.end, "role": a.role} for a in tagged.arguments
    ]
    return record
