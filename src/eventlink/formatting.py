"""Serialization of queries into marker-tagged token sequences.

Three query-side input formats share one truncation discipline:

* ``blink``: mention wrapped in ``[M_s]``/``[M_e]``; this is
  ``format_arguments`` on the query without its arguments.
* ``format_evelink``: the mention-marked sequence, then ``[SEP]``, then one
  ``[type_s] entity [type_e]`` group per named-entity annotation.
* ``format_arguments``: mention markers plus inline ``[role_s] ... [role_e]``
  groups around every tagged argument span.

All of them, and the tagged passages of negative-generation prompts,
insert their markers with one walk, ``marked_sequence``, which takes the
marker spelling from its caller.

Truncation always keeps the marked mention. The window is centered on the
mention with ties biased so the mention sits right of center (the extra
token goes to the left context). Argument groups are atomic: a window
boundary never splits a ``[role_s] .. [role_e]`` group, so a group is
either fully kept or fully dropped, and centered shrinking drops the
groups farthest from the mention first. Entity groups on the evelink
suffix are dropped last-first; the query text is never sacrificed to keep
an entity group.

Marker tokens are single atomic tokens of the form ``[name]``. Corpora are
assumed not to contain tokens of that shape.
"""

from __future__ import annotations

import functools
import re
from typing import Callable, Sequence

from .extraction import Argument, EventQuery, NamedEntityAnnotation, Span, TaggedQuery

_MARKER_RE = re.compile(r"^\[[A-Za-z0-9_]+\]$")


def slug(name: str) -> str:
    """Marker-safe form of a role or type name: other characters become ``_``; ``X`` if empty."""
    cleaned = re.sub(r"[^A-Za-z0-9]+", "_", name).strip("_")
    return cleaned or "X"


MENTION_START = "[M_s]"
MENTION_END = "[M_e]"
SEP = "[SEP]"


@functools.cache
def group_markers(name: str) -> tuple[str, str]:
    """The ``[name_s]``/``[name_e]`` pair around a role or entity-type group.

    Derived from the name alone, so equal names always yield equal markers.
    """
    tag = slug(name)
    return f"[{tag}_s]", f"[{tag}_e]"


def marked_sequence(
    query: EventQuery,
    arguments: Sequence[Argument],
    mention: tuple[str, str],
    role: Callable[[str], tuple[str, str]],
) -> tuple[list[str], tuple[int, int], list[tuple[int, int]]]:
    """Insert the ``mention`` marker pair and each argument's ``role(name)`` pair.

    The one walk behind every marked serialization: the query formats
    spell markers as ``[M_s]`` and ``[Role_s]`` tokens, negative-generation
    prompts as ``<mention>`` and ``<Role>`` tags. Returns the marked
    tokens, the extent of the marked mention block, and the extents of
    each argument group, all as inclusive index pairs into the marked
    sequence.
    """
    starts: dict[int, Argument] = {a.span.start: a for a in arguments}
    ends: dict[int, Argument] = {a.span.end: a for a in arguments}
    out: list[str] = []
    mention_block = [-1, -1]
    groups: dict[int, list[int]] = {}
    for i, token in enumerate(query.tokens):
        if i == query.mention.start:
            mention_block[0] = len(out)
            out.append(mention[0])
        if i in starts:
            groups[starts[i].span.start] = [len(out), -1]
            out.append(role(starts[i].role)[0])
        out.append(token)
        if i in ends:
            groups[ends[i].span.start][1] = len(out)
            out.append(role(ends[i].role)[1])
        if i == query.mention.end:
            mention_block[1] = len(out)
            out.append(mention[1])
    extents = [tuple(v) for _, v in sorted(groups.items())]
    return out, (mention_block[0], mention_block[1]), extents


def _centered_window(length: int, block: tuple[int, int], max_len: int) -> tuple[int, int]:
    """Window of width <= max_len containing ``block``, mention-centered.

    The spare budget is split with the ceiling on the left, then clamped
    into the sequence.
    """
    block_size = block[1] - block[0] + 1
    if max_len < block_size:
        raise ValueError(f"budget {max_len} smaller than the marked mention ({block_size})")
    extra = max_len - block_size
    start = block[0] - (extra + 1) // 2
    end = block[1] + extra // 2
    if start < 0:
        end = min(length - 1, end - start)
        start = 0
    if end > length - 1:
        start = max(0, start - (end - (length - 1)))
        end = length - 1
    return start, end


def _align_to_groups(
    length: int,
    start: int,
    end: int,
    groups: Sequence[tuple[int, int]],
    max_len: int,
) -> tuple[int, int]:
    """Shrink the window off straddled groups, then re-extend whole tokens."""
    changed = True
    while changed:
        changed = False
        for gs, ge in groups:
            if gs < start <= ge:
                start = ge + 1
                changed = True
            if gs <= end < ge:
                end = gs - 1
                changed = True

    def group_at(idx: int) -> tuple[int, int] | None:
        for gs, ge in groups:
            if gs <= idx <= ge:
                return gs, ge
        return None

    while end - start + 1 < max_len and start > 0:
        grp = group_at(start - 1)
        if grp is None:
            start -= 1
        elif end - grp[0] + 1 <= max_len:
            start = grp[0]
        else:
            break
    while end - start + 1 < max_len and end < length - 1:
        grp = group_at(end + 1)
        if grp is None:
            end += 1
        elif grp[1] - start + 1 <= max_len:
            end = grp[1]
        else:
            break
    return start, end


def format_evelink(
    query: EventQuery,
    entities: Sequence[NamedEntityAnnotation],
    max_len: int,
) -> list[str]:
    """Mention-marked sequence, ``[SEP]``, then typed entity groups.

    Entity groups are kept in document order and dropped last-first when
    over budget; the query text and its mention window always win over
    entity groups.
    """
    for entity in entities:
        if not entity.span.within(len(query.tokens)):
            raise ValueError(f"entity span {entity.span} outside query tokens")
    marked, block, _ = marked_sequence(query, (), (MENTION_START, MENTION_END), group_markers)
    group_tokens: list[list[str]] = []
    for entity in entities:
        ts, te = group_markers(entity.entity_type)
        surface = list(query.tokens[entity.span.start : entity.span.end + 1])
        group_tokens.append([ts, *surface, te])
    kept = list(group_tokens)
    while kept and len(marked) + 1 + sum(len(g) for g in kept) > max_len:
        kept.pop()
    suffix_len = 1 + sum(len(g) for g in kept)
    if len(marked) + suffix_len <= max_len:
        base = marked
    else:
        start, end = _centered_window(len(marked), block, max_len - 1)
        base = marked[start : end + 1]
    out = list(base)
    out.append(SEP)
    for group in kept:
        out.extend(group)
    return out


def format_arguments(tagged: TaggedQuery, max_len: int) -> list[str]:
    """Inline role-tagged serialization, windowed without splitting groups.

    With zero arguments this is the ``blink`` style: the mention-marked
    token sequence, windowed to ``max_len``.
    """
    mention_size = len(tagged.base.mention) + 2
    if max_len < mention_size:
        raise ValueError(
            f"max_len {max_len} cannot hold the marked mention ({mention_size} tokens)"
        )
    marked, block, groups = marked_sequence(
        tagged.base, tagged.arguments, (MENTION_START, MENTION_END), group_markers
    )
    if len(marked) <= max_len:
        return marked
    start, end = _centered_window(len(marked), block, max_len)
    start, end = _align_to_groups(len(marked), start, end, groups, max_len)
    return marked[start : end + 1]


def strip_markers(tokens: Sequence[str]) -> list[str]:
    """Remove every marker token, leaving the surface tokens."""
    return [t for t in tokens if not _MARKER_RE.match(t)]


FORMAT_STYLES = ("blink", "evelink", "args")


def format_query(tagged: TaggedQuery, style: str, max_len: int) -> list[str]:
    """Dispatch on the format style name used by files and the CLI."""
    if style == "blink":
        return format_arguments(TaggedQuery(tagged.base), max_len)
    if style == "evelink":
        return format_evelink(tagged.base, tagged.base.entities, max_len)
    if style == "args":
        return format_arguments(tagged, max_len)
    raise ValueError(f"unknown format style {style!r}; expected one of {FORMAT_STYLES}")


def context_window(tokens: Sequence[str], span: Span, width: int) -> list[str]:
    """Plain (marker-free) token window of ``width`` centered on ``span``.

    Shares the mention-centering tie rule with the marked formats; used by
    the BM25 query side. A mention wider than ``width`` gives its central
    ``width`` tokens; the same left-heavy rule drops the odd token on the
    right.
    """
    if width < len(span):
        start = span.start + (len(span) - width) // 2
        return list(tokens[start : start + width])
    if len(tokens) <= width:
        return list(tokens)
    start, end = _centered_window(len(tokens), (span.start, span.end), width)
    return list(tokens[start : end + 1])
