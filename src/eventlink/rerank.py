"""Second-stage re-ranking: cross-scoring with a learned out-of-KB option.

A cross scorer scores the k+1 options of every query of a batch in one
call: ``score_candidates(query_rows, entry_lists)`` returns one ``(k+1,)``
vector per query, whose index 0 is the score of a learned embedding
standing in for the reserved out-of-KB pseudo-candidate, so selection
becomes a (k+1)-way argmax with index 0 meaning "not in the KB". Candidates
are serialized at ``kb.SCORER_MAX_LEN`` tokens, the scorer's budget, which
no caller passes. ``score_pairs`` resolves the candidate ids of every query
against the KB and makes that one call. The thresholded baseline and an
LLM-as-reranker baseline share the same decision record.

``TinyCrossScorer`` encodes a call's queries, and its distinct entries, in
one ``encode_many`` each, the way BLINK (arXiv 1911.03814) precomputes
entity encodings, and takes every (query, option) dot product in one
stacked matmul (``pair_dots``). These equal ``forward`` and ``q @ c`` bit
for bit, so every score keeps the bits of a per-pair scorer.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, count
from typing import Protocol, Sequence

import numpy as np

from .encoders import CHECKPOINT_VERSION, DegenerateNormError, TinyEncoder, checkpoint_array
from .encoders import load_checkpoint, save_encoder
from .kb import NIL, SCORER_MAX_LEN, KBEntry, KnowledgeBase, candidate_text, tokenize
from .llm import ClientExhausted, TextCompletionClient, complete, prompt_file
from .retrieval import CandidateSet, pair_dots

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

    ``score_candidates`` returns one vector per query, of length
    ``len(entries) + 1`` for that query's ``entries``: index 0 is the
    out-of-KB score, index i the score of ``entries[i - 1]`` serialized by
    ``candidate_text`` at ``SCORER_MAX_LEN`` tokens. The out-of-KB score
    must depend only on the query and the learned embedding, never on the
    candidates, and each candidate's score only on the query and that
    candidate. Joint-encoding implementations serialize a pair as query
    tokens, ``[SEP]``, candidate tokens.
    """

    def score_candidates(
        self,
        query_rows: Sequence[Sequence[str]],
        entry_lists: Sequence[Sequence[KBEntry]],
    ) -> list[np.ndarray]: ...


class TinyCrossScorer:
    """Desk-scale cross scorer: shared tiny encoder on both pair sides.

    S(q, c) is a learned-scale dot product of the two encodings; the
    out-of-KB score replaces the candidate encoding with the learned
    embedding (unit-normalized). A joint pair encoder can be slotted in
    behind the same protocol.
    """

    def __init__(self, vocab: Sequence[str], dim: int, seed: int = 0):
        root = np.random.SeedSequence(seed)
        enc_seed, nil_seed = root.spawn(2)
        self.encoder = TinyEncoder(vocab, dim, rng=np.random.default_rng(enc_seed))
        rng = np.random.default_rng(nil_seed)
        self.nil_embedding = rng.normal(0.0, 1.0 / np.sqrt(dim), dim)
        self.scale = np.array([10.0])

    @property
    def dim(self) -> int:
        return self.encoder.dim

    def params(self) -> dict[str, np.ndarray]:
        """The parameter arrays, to be changed in place."""
        out = self.encoder.params()
        out["nil"] = self.nil_embedding
        out["scale"] = self.scale
        return out

    def zero_grads(self) -> dict[str, np.ndarray]:
        """Zeroed dense gradients; ``TinyEncoder.backward`` sets the row-sparse ``embed`` one."""
        dense = {"nil": np.zeros_like(self.nil_embedding), "scale": np.zeros_like(self.scale)}
        return {**self.encoder.zero_grads(), **dense}

    def score_candidates(
        self,
        query_rows: Sequence[Sequence[str]],
        entry_lists: Sequence[Sequence[KBEntry]],
    ) -> list[np.ndarray]:
        """Per query, ``scale·(q·c)`` for the NIL unit vector, then for each entry."""
        if len(query_rows) != len(entry_lists):
            raise ValueError(f"{len(query_rows)} query rows for {len(entry_lists)} entry lists")
        nil_norm = np.linalg.norm(self.nil_embedding)
        if nil_norm == 0.0:
            raise DegenerateNormError("NIL embedding has zero norm")
        # entries are named by their first flat position; partner 0, the NIL unit, leads each query
        first: dict[KBEntry, int] = {}
        pos = np.fromiter(map(first.setdefault, chain.from_iterable(entry_lists), count()), np.intp)
        sizes = np.fromiter(map(len, entry_lists), np.intp)
        partner = np.insert(np.unique(pos, return_inverse=True)[1] + 1, sizes.cumsum() - sizes, 0)
        owner = np.repeat(np.arange(len(sizes)), sizes + 1)
        queries = self.encoder.encode_many(query_rows)
        candidates = self.encoder.encode_many([candidate_text(e, SCORER_MAX_LEN) for e in first])
        partners = np.vstack([self.nil_embedding / nil_norm, candidates])
        scores = self.scale[0] * pair_dots(queries, partners, owner, partner)
        return np.split(scores, (sizes + 1).cumsum())[:-1]

    def state_dict(self, array=np.ndarray.tolist) -> dict:
        state = self.encoder.state_dict(array)
        state["kind"] = "tiny_cross"
        state["format_version"] = CHECKPOINT_VERSION
        state["nil"] = array(self.nil_embedding)
        state["scale"] = array(self.scale)
        return state

    @classmethod
    def from_state_dict(cls, state: dict) -> "TinyCrossScorer":
        scorer = cls.__new__(cls)
        scorer.encoder = TinyEncoder.from_state_dict(state)
        scorer.nil_embedding = checkpoint_array(state, "nil", (scorer.dim,))
        scorer.scale = checkpoint_array(state, "scale", (1,))
        return scorer

    def save(self, path) -> None:
        save_encoder(self, path)

    @classmethod
    def load(cls, path) -> "TinyCrossScorer":
        return load_checkpoint(path, {"tiny_cross": cls.from_state_dict})


@dataclass(frozen=True, slots=True)
class LinkDecision:
    """One linking verdict: a KB id or NIL, with the (k+1)-length score vector."""

    query_id: str
    prediction: str
    scores: tuple[float, ...]
    rule: str
    note: str | None = None

    def to_record(self) -> dict:
        record = {
            "query_id": self.query_id,
            "prediction": self.prediction,
            "rule": self.rule,
            "scores": list(self.scores),
        }
        if self.note:
            record["note"] = self.note
        return record

    @classmethod
    def from_record(cls, record: dict) -> "LinkDecision":
        return cls(
            query_id=str(record["query_id"]),
            prediction=str(record["prediction"]),
            scores=tuple(float(s) for s in record["scores"]),
            rule=str(record["rule"]),
            note=record.get("note"),
        )


def score_pairs(
    scorer: CrossScorer,
    query_rows: Sequence[Sequence[str]],
    candidate_sets: Sequence[CandidateSet],
    kb: KnowledgeBase,
) -> list[np.ndarray]:
    """Score the k+1 options of every query in one call; index 0 of each is out-of-KB."""
    entry_lists = [kb.entries(candidates.ids) for candidates in candidate_sets]
    return scorer.score_candidates(query_rows, entry_lists)


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
        scores=tuple(float(s) for s in scores),
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
        scores=(0.0, *(float(x) for x in probs)),
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
    for i, entry in enumerate(kb.entries(candidates.ids), start=1):
        description = " ".join(tokenize(entry.description)[:PROMPT_DESCRIPTION_TOKENS])
        lines.append(f"Document {i}: {entry.title}")
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
    titles = {entry.title: entry.id for entry in kb.entries(candidates.ids)}
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
