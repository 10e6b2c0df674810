"""Independent references the tests check the package against.

``_centered_window``, ``_align_to_groups`` and ``context_window`` are the
query window as ``eventlink.formatting`` computed it before one function,
``formatting._window``, replaced all three; they are kept verbatim so the
tests can hold the rewrite to the same positions. ``strip_markers`` is
the marker-free reading of a formatted query.
"""

from __future__ import annotations

import re
from typing import Sequence

from eventlink.extraction import Span

_MARKER_RE = re.compile(r"^\[[A-Za-z0-9_]+\]$")


def strip_markers(tokens: Sequence[str]) -> list[str]:
    """Remove every marker token, leaving the surface tokens."""
    return [t for t in tokens if not _MARKER_RE.match(t)]


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
