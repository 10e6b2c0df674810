"""Serialization of queries into marker-tagged token sequences.

Three query-side input formats share one truncation rule, ``_window``:

* ``blink``: mention wrapped in ``[M_s]``/``[M_e]``; this is
  ``format_arguments`` on the query without its arguments.
* ``format_evelink``: the mention-marked sequence, then ``[SEP]``, then one
  ``[type_s] entity [type_e]`` group per named-entity annotation.
* ``format_arguments``: mention markers plus inline ``[role_s] ... [role_e]``
  groups around every tagged argument span.

All of them, and the tagged passages of negative-generation prompts,
insert their markers with one walk, ``marked_sequence``, which takes the
marker spelling from its caller. BM25's plain query window,
``context_window``, is the same window without markers.

Truncation always keeps the marked mention. The window is centered on the
mention, the spare budget split with the extra token on the left (so the
mention sits right of center), then clamped into the sequence. Argument
groups are atomic: a window edge inside a ``[role_s] .. [role_e]`` group
steps off it, dropping the group, and the window then regrows, first
leftwards and then rightwards, by whole tokens or whole groups while they
fit. So a group is either fully kept or fully dropped, and the group next
to the mention can be dropped while plain tokens farther away are kept.
Entity groups on the evelink suffix are dropped last-first; the query
text is never sacrificed to keep an entity group.

Marker tokens are single atomic tokens of the form ``[name]``. Corpora are
assumed not to contain tokens of that shape.
"""

from __future__ import annotations

import functools
import re
from typing import Callable, Sequence

from .extraction import Argument, EventQuery, Span, TaggedQuery


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


def _window(
    length: int, block: tuple[int, int], max_len: int, groups: Sequence[tuple[int, int]] = ()
) -> tuple[int, int]:
    """Inclusive window of at most ``max_len`` of ``length`` positions around ``block``.

    A sequence that fits is its own window. Otherwise the spare budget is
    split with the ceiling on the left, and the window is clamped into the
    sequence; a ``block`` wider than ``max_len`` keeps its central
    positions. With ``groups`` (disjoint inclusive extents outside
    ``block``), an edge inside a group steps off it, and the window
    regrows left, then right, by whole positions or whole groups while
    they fit.
    """
    if length <= max_len:
        return 0, length - 1
    spare = max_len - (block[1] - block[0] + 1)
    start = max(0, min(block[0] - (spare + 1) // 2, length - max_len))
    end = start + max_len - 1
    if not groups:
        return start, end
    owner = {i: g for g in groups for i in range(g[0], g[1] + 1)}
    if start in owner and owner[start][0] < start:
        start = owner[start][1] + 1
    if end in owner and end < owner[end][1]:
        end = owner[end][0] - 1
    while end - start + 1 < max_len and start > 0:
        grown = owner.get(start - 1, (start - 1,))[0]
        if end - grown + 1 > max_len:
            break
        start = grown
    while end - start + 1 < max_len and end < length - 1:
        grown = owner.get(end + 1, (end + 1,))[-1]
        if grown - start + 1 > max_len:
            break
        end = grown
    return start, end


def format_evelink(query: EventQuery, max_len: int) -> list[str]:
    """Mention-marked sequence, ``[SEP]``, then a typed group per entity of ``query``.

    Entity groups are kept in document order and dropped last-first when
    over budget; the query text and its mention window always win over
    entity groups.
    """
    marked, block, _ = marked_sequence(query, (), (MENTION_START, MENTION_END), group_markers)
    kept: list[list[str]] = []
    for entity in query.entities:
        ts, te = group_markers(entity.entity_type)
        kept.append([ts, *query.tokens[entity.span.start : entity.span.end + 1], te])
    while kept and len(marked) + 1 + sum(len(g) for g in kept) > max_len:
        kept.pop()
    budget = max_len - 1 - sum(len(g) for g in kept)
    block_size = block[1] - block[0] + 1
    if budget < block_size:
        raise ValueError(f"budget {budget} smaller than the marked mention ({block_size})")
    start, end = _window(len(marked), block, budget)
    out = [*marked[start : end + 1], SEP]
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
    start, end = _window(len(marked), block, max_len, groups)
    return marked[start : end + 1]


FORMAT_STYLES = ("blink", "evelink", "args")


def format_query(tagged: TaggedQuery, style: str, max_len: int) -> list[str]:
    """Dispatch on the format style name used by files and the CLI."""
    if style == "blink":
        return format_arguments(TaggedQuery(tagged.base), max_len)
    if style == "evelink":
        return format_evelink(tagged.base, max_len)
    if style == "args":
        return format_arguments(tagged, max_len)
    raise ValueError(f"unknown format style {style!r}; expected one of {FORMAT_STYLES}")


def context_window(tokens: Sequence[str], span: Span, width: int) -> list[str]:
    """Plain (marker-free) token window of ``width`` centered on ``span``.

    The marked formats' window, used by the BM25 query side. A mention
    wider than ``width`` gives its central ``width`` tokens; the same
    left-heavy rule drops the odd token on the right.
    """
    start, end = _window(len(tokens), (span.start, span.end), width)
    return list(tokens[start : end + 1])
