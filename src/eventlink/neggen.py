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
failures. Each completion is decoded once, by ``passage_to_tagged``, whose
error message is the logged reason; every origin tried is logged as one
GenerationRecord, and a client that runs out of completions ends the run.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import asdict, dataclass, replace
from functools import cache
from typing import Sequence

import numpy as np

from .artifacts import typed
from .encoders import EncoderAdapter
from .extraction import Argument, EventQuery, Span, TaggedQuery, tagged_from_record
from .extraction import tagged_to_record
from .formatting import format_arguments, marked_sequence, slug
from .kb import NIL, RETRIEVER_MAX_LEN
from .llm import ClientExhausted, TextCompletionClient, complete, prompt_file
from .retrieval import DenseIndex, retrieve_many

STYLE_ARGUMENT_AWARE = "argument_aware"
STYLE_PLAIN = "non_argument_aware"
PROVENANCE_KB_PRUNING = "kb_pruning"

GENERATED_STYLES = (STYLE_ARGUMENT_AWARE, STYLE_PLAIN)
PROVENANCES = (*GENERATED_STYLES, PROVENANCE_KB_PRUNING)

# Default generation budget of ``eventlink neg-gen``.
DESK_SCALE_TRAIN_GENERATIONS = 200

_TAG_RE = re.compile(r"^<(/?)([A-Za-z0-9_]+)>$")


@dataclass(frozen=True)
class _StyleSpec:
    """A style's template file, completion pattern and missing-segments reason.

    The pattern's group names are the GenerationRecord fields it fills.
    """

    template: str
    completion: re.Pattern
    missing: str


_STYLES = {
    STYLE_ARGUMENT_AWARE: _StyleSpec("negative_argument_aware.txt", re.compile(
        r"Plan 1:(?P<plan_edit>.*?)"
        r"Following Plan 1, we can generate this passage after Step 1:(?P<passage_after_edit>.*?)"
        r"Plan 2:(?P<plan_polish>.*?)"
        r"Following Plan 2, we can generate this passage after Step 2:(?P<passage_after_polish>.*)",
        re.DOTALL), "missing plan or passage segments"),
    STYLE_PLAIN: _StyleSpec("negative_plain.txt", re.compile(
        r"New passage:(?P<passage_after_polish>.*)", re.DOTALL), "missing generated passage"),
}


def _style_spec(style: str) -> _StyleSpec:
    if style not in _STYLES:
        raise ValueError(f"unknown generation style {style!r}")
    return _STYLES[style]


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
            generated=tagged_from_record(typed(record["generated"], dict, "generated")),
            origin_query_id=typed(record["origin_query_id"], str, "origin_query_id"),
            paired_candidate_ids=tuple(typed(i, str, "paired candidate id") for i in
                                       typed(record["paired_candidate_ids"], list, "paired_candidate_ids")),
            provenance=typed(record["provenance"], str, "provenance"),
        )


@dataclass(frozen=True)
class GenerationRecord:
    """Audit row for one origin tried: its prompt, completion, status and reason."""

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
        tagged.base, arguments, ("<mention>", "</mention>"), _role_tags
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
    return prompt_file(_style_spec(style).template)


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


def parse_completion(raw: str, style: str) -> dict[str, str] | None:
    """The stripped segments a completion logs, or None when it misses the style's format."""
    match = _style_spec(style).completion.search(raw)
    if match is None:
        return None
    return {field: text.strip() for field, text in match.groupdict().items()}


def passage_to_tagged(passage: str, origin: TaggedQuery, query_id: str) -> TaggedQuery:
    """Decode a tagged passage back into a NIL-labeled query; errors carry the logged reason."""
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
                    raise PassageParseError("malformed passage: duplicate mention tags")
                mention_start = len(tokens)
            else:
                if mention_start is None or len(tokens) <= mention_start:
                    raise PassageParseError("malformed passage: empty or unopened mention span")
                mention_span = Span(mention_start, len(tokens) - 1)
                mention_start = None
        elif not closing:
            if open_role is not None:
                raise PassageParseError("malformed passage: nested role tags")
            open_role = (name, len(tokens))
        else:
            if open_role is None or open_role[0] != name:
                raise PassageParseError(f"malformed passage: mismatched closing tag {name!r}")
            if len(tokens) <= open_role[1]:
                raise PassageParseError(f"malformed passage: empty role span {name!r}")
            arguments.append(Argument(Span(open_role[1], len(tokens) - 1), name))
            open_role = None
    if mention_span is None:
        raise PassageParseError("mention tags removed")
    if open_role is not None:
        raise PassageParseError("malformed passage: unterminated tags in passage")
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
        raise PassageParseError(f"malformed passage: {exc}") from exc


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
) -> tuple[list[NegativeExample], list[GenerationRecord]]:
    """Generate up to ``count`` accepted negatives, logging every attempt.

    Origins are drawn without replacement from the filtered pool in a
    seed-determined order, so a fixed (pool, seed, client) triple always
    produces the same files. Pairing retrieves top-k for the origin query
    (never the generated text), formatted at ``RETRIEVER_MAX_LEN`` tokens,
    for every accepted origin at once after the last attempt. A plain-style
    passage must carry mention tags only. A negative ``count`` is a
    ``ValueError``.
    """
    if count < 0:
        raise ValueError(f"negative count {count}")
    spec = _style_spec(style)
    roles = style == STYLE_ARGUMENT_AWARE
    filtered = sample_filter(pool)
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(filtered))
    accepted: list[tuple[TaggedQuery, TaggedQuery]] = []  # (generated, origin)
    records: list[GenerationRecord] = []
    for position in order:
        if len(accepted) >= count:
            break
        origin = filtered[position]
        origin_id = origin.base.query_id
        prompt = build_prompt(origin, style)
        try:
            completion, reason = complete(client, prompt)
        except ClientExhausted as exc:
            records.append(GenerationRecord(origin_id, style, prompt, None, "skipped", str(exc)))
            break
        segments = {}
        if completion is not None:
            segments = parse_completion(completion, style) or {}
            passage = segments.get("passage_after_polish")
            if passage is None:
                reason = spec.missing
            elif passage == tagged_passage(origin, include_roles=roles):
                reason = "unchanged"
            else:
                try:
                    generated = passage_to_tagged(passage, origin, f"{origin_id}::neg")
                    if generated.arguments and not roles:
                        raise PassageParseError(
                            "malformed passage: role tags in a plain-style passage")
                except PassageParseError as exc:
                    reason = str(exc)
        status = "skipped" if completion is None else "rejected" if reason else "accepted"
        records.append(
            GenerationRecord(origin_id, style, prompt, completion, status, reason, **segments)
        )
        if status == "accepted":
            accepted.append((generated, origin))
    origins = [origin for _, origin in accepted]
    paired = retrieve_many(
        index, encoder.encode_many([format_arguments(o, RETRIEVER_MAX_LEN) for o in origins]), k,
        [o.base.query_id for o in origins])
    negatives = [NegativeExample(generated, p.query_id, p.ids, style)
                 for (generated, _), p in zip(accepted, paired)]
    negatives.sort(key=lambda n: n.origin_query_id)
    records.sort(key=lambda r: r.origin_query_id)
    return negatives, records


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
