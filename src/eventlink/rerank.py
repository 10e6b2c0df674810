"""Second-stage re-ranking: cross-scoring with a learned out-of-KB option.

A cross scorer scores the k+1 options of every query of a batch in one
call, ``score_candidates(query_rows, candidate_rows, partner_lists)``, and
returns one ``(k+1,)`` vector per query, whose index 0 is the score of a
learned embedding standing in for the reserved out-of-KB pseudo-candidate,
so selection becomes a (k+1)-way argmax with index 0 meaning "not in the
KB". ``score_pairs`` serializes each distinct candidate of a batch once,
by ``KnowledgeBase.candidate_texts`` at ``kb.SCORER_MAX_LEN`` tokens, and
makes that one call. The thresholded baseline and an LLM-as-reranker
baseline share the same decision record.

``TinyCrossScorer`` encodes a call's queries, and its candidate rows, in
one ``encode_many`` each, the way BLINK (arXiv 1911.03814) precomputes
entity encodings, and takes every (query, option) dot product in one
stacked matmul (``pair_dots``). These equal ``forward`` and ``q @ c`` bit
for bit, so every score keeps the bits of a per-pair scorer.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Protocol, Sequence

import numpy as np

from .artifacts import json_floats, json_string, typed
from .encoders import DegenerateNormError, TinyEncoder, checkpoint_array, checkpoint_state
from .kb import NIL, SCORER_MAX_LEN, KnowledgeBase, tokenize
from .llm import ClientExhausted, TextCompletionClient, complete, prompt_file
from .retrieval import CandidateSet, check_finite_scores, pair_dots

NIL_PSEUDO_TOKEN = "[NIL]"

RULE_LEARNED = "learned_nil"
RULE_THRESHOLD = "threshold"
RULE_LLM = "llm"

DEFAULT_THETA = 0.5
RERANK_POOL_SIZE = 10
PROMPT_DESCRIPTION_TOKENS = 50

NIL_ANSWER_SENTENCE = "The passage should be labeled as NIL."


class CrossScorer(Protocol):
    """Scorer of the k+1 options of each query of a batch, out-of-KB first.

    ``partner_lists[q]`` holds the positions in ``candidate_rows`` of query
    q's candidates, in rank order; several queries may name one row. Query
    q's vector has length ``len(partner_lists[q]) + 1``: index 0 is the
    out-of-KB score, index i that of ``candidate_rows[partner_lists[q][i-1]]``.
    The out-of-KB score must depend only on the query and the learned
    embedding, never on the candidates, and each candidate's score only on
    the query and that candidate's tokens. Joint-encoding implementations
    serialize a pair as query tokens, ``[SEP]``, candidate tokens.
    """

    def score_candidates(
        self,
        query_rows: Sequence[Sequence[str]],
        candidate_rows: Sequence[Sequence[str]],
        partner_lists: Sequence[Sequence[int]],
    ) -> list[np.ndarray]: ...


class TinyCrossScorer:
    """Desk-scale cross scorer: shared tiny encoder on both pair sides.

    S(q, c) is a learned-scale dot product of the two encodings; the
    out-of-KB score replaces the candidate encoding with the learned
    embedding (unit-normalized). A joint pair encoder can be slotted in
    behind the same protocol.
    """

    kind = "tiny_cross"

    def __init__(self, vocab: Sequence[str], dim: int, seed: int = 0):
        enc_seed, nil_seed = np.random.SeedSequence(seed).spawn(2)
        self.encoder = TinyEncoder(vocab, dim, enc_seed)
        rng = np.random.default_rng(nil_seed)
        self.nil_embedding = rng.normal(0.0, 1.0 / np.sqrt(dim), dim)
        self.scale = np.array([10.0])

    @property
    def dim(self) -> int:
        return self.encoder.dim

    @property
    def vocab(self) -> list[str]:
        return self.encoder.vocab

    def params(self) -> dict[str, np.ndarray]:
        """The parameter arrays, to be changed in place."""
        return {**self.encoder.params(), "nil": self.nil_embedding, "scale": self.scale}

    def nil_unit(self) -> tuple[np.ndarray, float]:
        """The NIL embedding scaled to unit length, and its norm; a zero norm is ``DegenerateNormError``."""
        norm = np.linalg.norm(self.nil_embedding)
        if norm == 0.0:
            raise DegenerateNormError("NIL embedding has zero norm")
        return self.nil_embedding / norm, norm

    def score_candidates(
        self,
        query_rows: Sequence[Sequence[str]],
        candidate_rows: Sequence[Sequence[str]],
        partner_lists: Sequence[Sequence[int]],
    ) -> list[np.ndarray]:
        """Per query, ``scale·(q·c)`` for the NIL unit vector, then for each of its candidates."""
        if len(query_rows) != len(partner_lists):
            raise ValueError(f"{len(query_rows)} query rows for {len(partner_lists)} partner lists")
        nil_unit, _ = self.nil_unit()
        # partner 0, the NIL unit, leads each query; candidate row j is partner j + 1
        sizes = np.fromiter(map(len, partner_lists), np.intp)
        flat = np.fromiter(chain.from_iterable(partner_lists), np.intp)
        partner = np.insert(flat + 1, sizes.cumsum() - sizes, 0)
        owner = np.repeat(np.arange(len(sizes)), sizes + 1)
        queries = self.encoder.encode_many(query_rows)
        candidates = self.encoder.encode_many(candidate_rows)
        partners = np.vstack([nil_unit, candidates])
        scores = self.scale[0] * pair_dots(queries, partners, owner, partner)
        return np.split(scores, (sizes + 1).cumsum())[:-1]

    def state_dict(self, array=np.ndarray.tolist) -> dict:
        return checkpoint_state(self, array)

    @classmethod
    def from_state_dict(cls, state: dict) -> "TinyCrossScorer":
        scorer = cls.__new__(cls)
        scorer.encoder = TinyEncoder.from_state_dict(state)
        scorer.nil_embedding = checkpoint_array(state, "nil", (scorer.dim,))
        scorer.scale = checkpoint_array(state, "scale", (1,))
        return scorer


@dataclass(frozen=True, slots=True)
class LinkDecision:
    """One linking verdict: a KB id or NIL, with the (k+1)-length score vector, every score finite."""

    query_id: str
    prediction: str
    scores: tuple[float, ...]
    rule: str
    note: str | None = None

    def __post_init__(self) -> None:
        check_finite_scores(self.query_id, self.scores)

    def to_line(self) -> str:
        """This decision's JSON line, as ``json.dumps(record, sort_keys=True)`` writes it.

        The record is ``{"query_id": ..., "prediction": ..., "rule": ..., "scores": [...]}``,
        with ``"note"`` too if there is a note, so an empty one reads back as itself.
        """
        note = f'"note": {json_string(self.note)}, ' if self.note is not None else ""
        return (f'{{{note}"prediction": {json_string(self.prediction)}, '
                f'"query_id": {json_string(self.query_id)}, "rule": {json_string(self.rule)}, '
                f'"scores": [{", ".join(json_floats(self.scores))}]}}')

    @classmethod
    def from_record(cls, record: dict) -> "LinkDecision":
        """The decision of a ``to_line`` line's record: query id, prediction, rule and any note
        JSON strings, and scores JSON numbers."""
        return cls(
            query_id=typed(record["query_id"], str, "query id"),
            prediction=typed(record["prediction"], str, "prediction"),
            rule=typed(record["rule"], str, "rule"),
            note=typed(record["note"], str, "note") if "note" in record else None,
            scores=tuple(typed(s, float, "score") for s in typed(record["scores"], list, "scores")),
        )


def score_pairs(
    scorer: CrossScorer,
    query_rows: Sequence[Sequence[str]],
    candidate_sets: Sequence[CandidateSet],
    kb: KnowledgeBase,
) -> list[np.ndarray]:
    """Score the k+1 options of every query in one call; index 0 of each is out-of-KB.

    Distinct candidate ids are numbered by first appearance and their KB rows
    serialized once, at ``SCORER_MAX_LEN`` tokens; an unknown id is a ``KBError``.
    """
    number: dict[str, int] = {}
    partner_lists = [[number.setdefault(cid, len(number)) for cid in c.ids] for c in candidate_sets]
    candidate_rows = kb.candidate_texts(SCORER_MAX_LEN, kb.rows(number))
    return scorer.score_candidates(query_rows, candidate_rows, partner_lists)


def select_learned_nil(scores: np.ndarray, candidates: CandidateSet) -> LinkDecision:
    """Argmax over all k+1 scores; ties go to the lower index (NIL first)."""
    scores = np.asarray(scores, dtype=float)
    if scores.shape != (len(candidates) + 1,):
        raise ValueError("score vector must have length k+1")
    best = int(np.argmax(scores))
    prediction = NIL if best == 0 else candidates.ids[best - 1]
    return LinkDecision(
        query_id=candidates.query_id,
        prediction=prediction,
        scores=tuple(scores.tolist()),
        rule=RULE_LEARNED,
    )


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def select_threshold(
    candidate_scores: np.ndarray,
    candidates: CandidateSet,
    theta: float = DEFAULT_THETA,
    direction: str = "conventional",
) -> LinkDecision:
    """Threshold rule over softmax-normalized candidate scores.

    ``conventional`` outputs NIL when the normalized max falls below
    theta; ``literal`` applies the opposite inequality (keeping the
    candidate only below theta). Index 0 of the stored score vector is a
    filler zero, as no out-of-KB score exists under this rule.
    """
    if not 0.0 <= theta <= 1.0:
        raise ValueError("theta must lie in [0, 1]")
    if direction not in ("conventional", "literal"):
        raise ValueError(f"unknown threshold direction {direction!r}")
    candidate_scores = np.asarray(candidate_scores, dtype=float)
    if candidate_scores.shape != (len(candidates),):
        raise ValueError("candidate score vector must have length k")
    probs = softmax(candidate_scores)
    best = int(np.argmax(probs))
    p = float(probs[best])
    if direction == "conventional":
        prediction = candidates.ids[best] if p >= theta else NIL
    else:
        prediction = candidates.ids[best] if p < theta else NIL
    return LinkDecision(
        query_id=candidates.query_id,
        prediction=prediction,
        scores=(0.0, *probs.tolist()),
        rule=RULE_THRESHOLD,
    )


def rerank_prompt_template(allow_nil: bool) -> str:
    return prompt_file("rerank_nil.txt" if allow_nil else "rerank.txt")


def build_rerank_prompt(
    passage: str,
    candidates: CandidateSet,
    kb: KnowledgeBase,
    allow_nil: bool,
) -> str:
    """Fill the re-ranking prompt with the 10 candidate documents."""
    if len(candidates) != RERANK_POOL_SIZE:
        raise ValueError(f"re-ranking prompts require exactly {RERANK_POOL_SIZE} candidates")
    lines = []
    for i, row in enumerate(kb.rows(candidates.ids), start=1):
        description = " ".join(tokenize(kb.descriptions[row])[:PROMPT_DESCRIPTION_TOKENS])
        lines.append(f"Document {i}: {kb.titles[row]}")
        lines.append(description)
    lines.append(f"Short passage containing an event: {passage}")
    template = rerank_prompt_template(allow_nil)
    return template.replace("{actual input}", "\n".join(lines))


def parse_rerank_completion(
    completion: str, candidates: CandidateSet, kb: KnowledgeBase, allow_nil: bool
) -> tuple[str, str | None]:
    """Return (prediction, note). Unparseable output falls back to NIL."""
    if allow_nil and NIL_ANSWER_SENTENCE in completion:
        return NIL, None
    titles = {kb.titles[row]: kb.ids[row] for row in kb.rows(candidates.ids)}
    for line in completion.splitlines():
        line = line.strip()
        if not line.lower().startswith("document"):
            continue
        _, _, rest = line.partition(":")
        title = rest.strip()
        if title in titles:
            return titles[title], None
        return NIL, "parse_failure: unknown title"
    return NIL, "parse_failure: no ranked documents found"


def llm_rerank(
    client: TextCompletionClient,
    query_tokens: Sequence[str],
    candidates: CandidateSet,
    kb: KnowledgeBase,
    allow_nil: bool,
) -> LinkDecision:
    """Prompt-based re-ranking baseline; the top-ranked title wins.

    The request goes through ``llm.complete``, as for negative generation.
    When it fails (a transport failure after its retry, or an exhausted
    client) or the completion is malformed, the decision falls back to NIL
    with a note (``transport_failure: …`` or ``parse_failure: …``).
    """
    passage = " ".join(query_tokens)
    prompt = build_rerank_prompt(passage, candidates, kb, allow_nil)
    try:
        completion, failure = complete(client, prompt)
    except ClientExhausted as exc:
        completion, failure = None, str(exc)
    if completion is None:
        prediction, note = NIL, f"transport_failure: {failure}"
    else:
        prediction, note = parse_rerank_completion(completion, candidates, kb, allow_nil)
    return LinkDecision(
        query_id=candidates.query_id,
        prediction=prediction,
        scores=(0.0,) * (len(candidates) + 1),
        rule=RULE_LLM,
        note=note,
    )
