"""Synthesis of out-of-KB negative training examples.

The primary route rewrites an in-KB query by instructing a completion
client to alter its tagged event arguments in two steps (edit the tagged
details, then polish), keeping the mention and role tags intact. A
non-argument-aware variant uses the same sampled passages with mention
tags only. Each accepted rewrite is paired with the top KB entries
retrieved for the ORIGIN query, so the scorer learns to answer NIL even
when the candidate pool looks plausible. A KB-pruning baseline instead
relabels training queries whose gold label was pruned.

Prompt templates are versioned text files filled by placeholder
substitution. A prompt's tagged passage is written by
``formatting.marked_sequence`` with ``<mention>`` and ``<Role>`` tags, and
each prompt is sent through ``llm.complete``, which retries transport
failures; every generation attempt is logged as a GenerationRecord.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import asdict, dataclass, replace
from functools import cache
from typing import Sequence

import numpy as np

from .encoders import EncoderAdapter
from .extraction import Argument, EventQuery, Span, TaggedQuery, tagged_from_record
from .extraction import tagged_to_record
from .formatting import format_arguments, marked_sequence, slug
from .kb import NIL
from .llm import TextCompletionClient, complete, prompt_file
from .retrieval import DenseIndex, retrieve

STYLE_ARGUMENT_AWARE = "argument_aware"
STYLE_PLAIN = "non_argument_aware"
PROVENANCE_KB_PRUNING = "kb_pruning"

GENERATED_STYLES = (STYLE_ARGUMENT_AWARE, STYLE_PLAIN)
PROVENANCES = (*GENERATED_STYLES, PROVENANCE_KB_PRUNING)

# Default generation budget of ``eventlink neg-gen``.
DESK_SCALE_TRAIN_GENERATIONS = 200

MENTION_OPEN = "<mention>"
MENTION_CLOSE = "</mention>"

_TAG_RE = re.compile(r"^<(/?)([A-Za-z0-9_]+)>$")

_ARG_COMPLETION_RE = re.compile(
    r"Plan 1:(?P<plan_edit>.*?)"
    r"Following Plan 1, we can generate this passage after Step 1:(?P<after_edit>.*?)"
    r"Plan 2:(?P<plan_polish>.*?)"
    r"Following Plan 2, we can generate this passage after Step 2:(?P<after_polish>.*)",
    re.DOTALL,
)
_PLAIN_COMPLETION_RE = re.compile(r"New passage:(?P<passage>.*)", re.DOTALL)


class PassageParseError(ValueError):
    """A tagged passage could not be decoded into a query."""


@dataclass(frozen=True)
class Exemplar:
    """One few-shot example: a tagged passage and its two-step rewrite."""

    passage: str
    mention: str
    event_type: str
    plan_edit: str
    passage_after_edit: str
    plan_polish: str
    passage_after_polish: str


@dataclass(frozen=True)
class NegativeExample:
    """A synthesized out-of-KB query paired with its origin's top candidates."""

    generated: TaggedQuery
    origin_query_id: str
    paired_candidate_ids: tuple[str, ...]
    provenance: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "paired_candidate_ids", tuple(self.paired_candidate_ids))
        if self.generated.base.gold != NIL:
            raise ValueError("negative examples must carry the NIL gold label")
        if self.provenance not in PROVENANCES:
            raise ValueError(f"unknown provenance {self.provenance!r}")
        if self.provenance in GENERATED_STYLES and not self.paired_candidate_ids:
            raise ValueError("generated negatives must carry paired candidate ids")

    def to_record(self) -> dict:
        return {
            "generated": tagged_to_record(self.generated),
            "origin_query_id": self.origin_query_id,
            "paired_candidate_ids": list(self.paired_candidate_ids),
            "provenance": self.provenance,
        }

    @classmethod
    def from_record(cls, record: dict) -> "NegativeExample":
        return cls(
            generated=tagged_from_record(record["generated"]),
            origin_query_id=str(record["origin_query_id"]),
            paired_candidate_ids=tuple(record["paired_candidate_ids"]),
            provenance=str(record["provenance"]),
        )


@dataclass(frozen=True)
class GenerationRecord:
    """Audit row for one generation attempt."""

    origin_query_id: str
    style: str
    prompt: str
    completion: str | None
    status: str
    reason: str | None = None
    plan_edit: str | None = None
    passage_after_edit: str | None = None
    plan_polish: str | None = None
    passage_after_polish: str | None = None

    def to_record(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class CompletionParse:
    """Outcome of parsing one completion; rejection is a value, not an error."""

    passage: str | None
    reason: str | None = None
    plan_edit: str | None = None
    passage_after_edit: str | None = None
    plan_polish: str | None = None

    @property
    def accepted(self) -> bool:
        return self.reason is None


def _mention_is_numeric(query: EventQuery) -> bool:
    surface = query.mention_text.replace(",", "").replace(" ", "")
    try:
        float(surface)
    except ValueError:
        return False
    return True


def _mention_is_proper_noun(query: EventQuery) -> bool:
    # capitalization only counts away from the sentence start
    alphabetic = [
        (query.mention.start + offset, token)
        for offset, token in enumerate(query.mention_tokens)
        if any(ch.isalpha() for ch in token)
    ]
    if not alphabetic:
        return False
    return all(position > 0 and token[:1].isupper() for position, token in alphabetic)


def sample_filter(pool: Sequence[TaggedQuery]) -> list[TaggedQuery]:
    """Keep queries suitable for rewriting.

    Drops queries whose mention is a proper noun or a numeric value, and
    queries with fewer than two tagged arguments.
    """
    return [
        q
        for q in pool
        if len(q.arguments) >= 2
        and not _mention_is_numeric(q.base)
        and not _mention_is_proper_noun(q.base)
    ]


def _role_tags(role: str) -> tuple[str, str]:
    tag = slug(role)
    return f"<{tag}>", f"</{tag}>"


def tagged_passage(tagged: TaggedQuery, include_roles: bool) -> str:
    """Serialize a query as prose with mention (and optionally role) tags."""
    arguments = tagged.arguments if include_roles else ()
    tokens, _, _ = marked_sequence(
        tagged.base, arguments, (MENTION_OPEN, MENTION_CLOSE), _role_tags
    )
    return " ".join(tokens)


def strip_role_tags(passage: str) -> str:
    """Drop every role tag token, keeping mention tags and surface tokens."""
    kept = []
    for token in passage.split():
        m = _TAG_RE.match(token)
        if m and m.group(2) != "mention":
            continue
        kept.append(token)
    return " ".join(kept)


def negative_prompt_template(style: str) -> str:
    if style == STYLE_ARGUMENT_AWARE:
        return prompt_file("negative_argument_aware.txt")
    if style == STYLE_PLAIN:
        return prompt_file("negative_plain.txt")
    raise ValueError(f"unknown generation style {style!r}")


@cache
def default_exemplars() -> tuple[Exemplar, Exemplar]:
    """The two shipped few-shot exemplars, parsed once."""
    raw = json.loads(prompt_file("exemplars.json"))
    return tuple(Exemplar(**item) for item in raw)  # type: ignore[return-value]


def render_exemplar(exemplar: Exemplar, style: str) -> str:
    if style == STYLE_ARGUMENT_AWARE:
        return (
            f"Passage: {exemplar.passage}\n"
            "\n"
            f"Additional information we have for the Passage: This \"{exemplar.mention}\" "
            f"event is of the type \"{exemplar.event_type}\".\n"
            f"Plan 1: {exemplar.plan_edit}\n"
            "Following Plan 1, we can generate this passage after Step 1: "
            f"{exemplar.passage_after_edit}\n"
            f"Plan 2: {exemplar.plan_polish}\n"
            "Following Plan 2, we can generate this passage after Step 2: "
            f"{exemplar.passage_after_polish}"
        )
    if style == STYLE_PLAIN:
        return (
            f"Passage: {strip_role_tags(exemplar.passage)}\n"
            "\n"
            f"New passage: {strip_role_tags(exemplar.passage_after_polish)}"
        )
    raise ValueError(f"unknown generation style {style!r}")


def build_prompt(query: TaggedQuery, style: str) -> str:
    """Fill the generation template for one query, byte-exactly."""
    shots = default_exemplars()
    template = negative_prompt_template(style)
    filled = template.replace("{Example 1}", render_exemplar(shots[0], style), 1)
    filled = filled.replace("{Example 2}", render_exemplar(shots[1], style), 1)
    if style == STYLE_ARGUMENT_AWARE:
        if not query.event_type:
            raise ValueError(
                f"query {query.base.query_id!r}: event type required for argument-aware prompts"
            )
        passage = tagged_passage(query, include_roles=True)
        filled = filled.replace("Passage: {}", f"Passage: {passage}", 1)
        filled = filled.replace("{event mention text span}", query.base.mention_text, 1)
        filled = filled.replace("{event type}", query.event_type, 1)
    else:
        passage = tagged_passage(query, include_roles=False)
        filled = filled.replace("Example 3:\nPassage:\n", f"Example 3:\nPassage: {passage}\n", 1)
    return filled


def _tag_counts(passage: str) -> dict[str, list[int]]:
    counts: dict[str, list[int]] = {}
    for token in passage.split():
        m = _TAG_RE.match(token)
        if not m:
            continue
        closing, name = m.group(1) == "/", m.group(2)
        pair = counts.setdefault(name, [0, 0])
        pair[1 if closing else 0] += 1
    return counts


def parse_completion(raw: str, style: str, original: str | None = None) -> CompletionParse:
    """Extract the final generated passage, or a rejection with its reason."""
    if style == STYLE_ARGUMENT_AWARE:
        match = _ARG_COMPLETION_RE.search(raw)
        if not match:
            return CompletionParse(None, reason="missing plan or passage segments")
        passage = match.group("after_polish").strip()
        extras = {
            "plan_edit": match.group("plan_edit").strip(),
            "passage_after_edit": match.group("after_edit").strip(),
            "plan_polish": match.group("plan_polish").strip(),
        }
    elif style == STYLE_PLAIN:
        match = _PLAIN_COMPLETION_RE.search(raw)
        if not match:
            return CompletionParse(None, reason="missing generated passage")
        passage = match.group("passage").strip()
        extras = {}
    else:
        raise ValueError(f"unknown generation style {style!r}")

    counts = _tag_counts(passage)
    mention = counts.get("mention", [0, 0])
    if mention[0] != 1 or mention[1] != 1:
        return CompletionParse(None, reason="mention tags removed", **extras)
    if style == STYLE_ARGUMENT_AWARE:
        for name, (n_open, n_close) in counts.items():
            if name != "mention" and n_open != n_close:
                return CompletionParse(None, reason=f"unbalanced role tags: {name}", **extras)
    if original is not None and passage == original:
        return CompletionParse(None, reason="unchanged", **extras)
    return CompletionParse(passage, **extras)


def passage_to_tagged(passage: str, origin: TaggedQuery, query_id: str) -> TaggedQuery:
    """Decode a tagged passage back into a NIL-labeled query."""
    tokens: list[str] = []
    arguments: list[Argument] = []
    mention_start: int | None = None
    mention_span: Span | None = None
    open_role: tuple[str, int] | None = None
    for token in passage.split():
        m = _TAG_RE.match(token)
        if not m:
            tokens.append(token)
            continue
        closing, name = m.group(1) == "/", m.group(2)
        if name == "mention":
            if not closing:
                if mention_start is not None or mention_span is not None:
                    raise PassageParseError("duplicate mention tags")
                mention_start = len(tokens)
            else:
                if mention_start is None or len(tokens) <= mention_start:
                    raise PassageParseError("empty or unopened mention span")
                mention_span = Span(mention_start, len(tokens) - 1)
                mention_start = None
        elif not closing:
            if open_role is not None:
                raise PassageParseError("nested role tags")
            open_role = (name, len(tokens))
        else:
            if open_role is None or open_role[0] != name:
                raise PassageParseError(f"mismatched closing tag {name!r}")
            if len(tokens) <= open_role[1]:
                raise PassageParseError(f"empty role span {name!r}")
            arguments.append(Argument(Span(open_role[1], len(tokens) - 1), name))
            open_role = None
    if mention_span is None or mention_start is not None or open_role is not None:
        raise PassageParseError("unterminated tags in passage")
    try:
        base = EventQuery(
            query_id=query_id,
            tokens=tuple(tokens),
            mention=mention_span,
            pos=origin.base.pos,
            gold=NIL,
        )
        return TaggedQuery(base=base, event_type=origin.event_type, arguments=tuple(arguments))
    except ValueError as exc:
        raise PassageParseError(str(exc)) from exc


def generate_negatives(
    pool: Sequence[TaggedQuery],
    index: DenseIndex,
    encoder: EncoderAdapter,
    client: TextCompletionClient,
    style: str,
    count: int,
    *,
    seed: int = 0,
    k: int = 10,
    query_max_len: int = 300,
) -> tuple[list[NegativeExample], list[GenerationRecord]]:
    """Generate up to ``count`` accepted negatives, logging every attempt.

    Origins are drawn without replacement from the filtered pool in a
    seed-determined order, so a fixed (pool, seed, client) triple always
    produces the same files. Pairing retrieves top-k for the origin query
    (never the generated text).
    """
    if style not in GENERATED_STYLES:
        raise ValueError(f"unknown generation style {style!r}")
    filtered = sample_filter(pool)
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(filtered))
    accepted: list[NegativeExample] = []
    records: list[GenerationRecord] = []
    for position in order:
        if len(accepted) >= count:
            break
        origin = filtered[position]
        origin_id = origin.base.query_id
        prompt = build_prompt(origin, style)
        completion, failure = complete(client, prompt)
        if completion is None:
            records.append(
                GenerationRecord(origin_id, style, prompt, None, "skipped", reason=failure)
            )
            continue
        original = tagged_passage(origin, include_roles=style == STYLE_ARGUMENT_AWARE)
        parsed = parse_completion(completion, style, original=original)
        segments = {
            "plan_edit": parsed.plan_edit,
            "passage_after_edit": parsed.passage_after_edit,
            "plan_polish": parsed.plan_polish,
            "passage_after_polish": parsed.passage,
        }
        if not parsed.accepted:
            records.append(
                GenerationRecord(
                    origin_id, style, prompt, completion, "rejected",
                    reason=parsed.reason, **segments,
                )
            )
            continue
        try:
            generated = passage_to_tagged(parsed.passage, origin, f"{origin_id}::neg")
        except PassageParseError as exc:
            records.append(
                GenerationRecord(
                    origin_id, style, prompt, completion, "rejected",
                    reason=f"malformed passage: {exc}", **segments,
                )
            )
            continue
        origin_embedding = encoder.encode(format_arguments(origin, query_max_len))
        paired = retrieve(index, origin_embedding, k, query_id=origin_id)
        accepted.append(
            NegativeExample(
                generated=generated,
                origin_query_id=origin_id,
                paired_candidate_ids=paired.ids,
                provenance=style,
            )
        )
        records.append(
            GenerationRecord(
                origin_id, style, prompt, completion, "accepted", **segments
            )
        )
    accepted.sort(key=lambda n: n.origin_query_id)
    records.sort(key=lambda r: r.origin_query_id)
    return accepted, records


def kb_pruning_negatives(
    train: Sequence[TaggedQuery], prune_fraction: float, seed: int
) -> tuple[frozenset[str], list[TaggedQuery]]:
    """Prune a fraction of unique gold labels and relabel their queries NIL.

    Returns the pruned label set and the full training list with affected
    queries relabeled. Pruned entries must also be dropped from the
    training-time candidate pool by the caller.
    """
    if not 0.0 < prune_fraction < 1.0:
        raise ValueError("prune_fraction must lie strictly between 0 and 1")
    labels = sorted({q.base.gold for q in train if q.base.gold != NIL})
    n_prune = math.ceil(prune_fraction * len(labels))
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(labels), size=n_prune, replace=False)
    pruned = frozenset(labels[i] for i in chosen)
    relabeled = [
        replace(q, base=replace(q.base, gold=NIL)) if q.base.gold in pruned else q
        for q in train
    ]
    return pruned, relabeled
