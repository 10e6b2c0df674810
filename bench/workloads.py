"""The benchmark's three workloads: their inputs, sizes and CLI stages.

Every workload is one closed-loop client: one process, one CLI stage at a
time, each stage started cold through ``eventlink.cli.main`` with paths
to files on disk, as a user runs it. The workload seed decides the
inputs; the program only ever sees the generated files.

``toy-train`` reuses the package's toy corpus. ``build_toy_data`` draws
six names per entry without replacement from 400 combinations, so it
cannot make more than 66 entries; the two large workloads therefore use
the seeded generator below, whose entry text comes from a vocabulary of
stated size, so KB size and encoder-checkpoint size vary independently.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from eventlink.encoders import TinyEncoder
from eventlink.evaluation import RECALL_GRID
from eventlink.extraction import Argument, EventQuery, Span, TaggedQuery, tagged_to_record
from eventlink.formatting import format_query
from eventlink.kb import KBEntry
from eventlink.rerank import TinyCrossScorer
from eventlink.toy import build_toy_data, write_toy_inputs
from oracles import read_records

K = 10
DIM = 64
STYLE = "args"
# Query lengths the stages use by default: ``retrieve``, ``neg-gen`` and
# mining embed queries at 300 tokens, ``link`` at 256. The oracles check
# each stage at its own length.
RETRIEVE_QUERY_LEN = 300
LINK_QUERY_LEN = 256
CANDIDATE_LEN = 256

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"
_FILLERS = ("reports", "said", "that", "the", "forces", "near", "during", "when", "after")
_TRIGGERS = (("attacked", "verb"), ("stormed", "verb"), ("clash", "noun"), ("siege", "noun"))
_ROLES = ("Assailant", "Victim", "Place")


@dataclass(frozen=True)
class Stage:
    """One CLI invocation: a label for the timings, its argv, and how often to time it."""

    label: str
    argv: tuple[str, ...]
    repeats: int = 1


@dataclass
class Inputs:
    """Paths and facts of one generated input set."""

    paths: dict[str, str]
    sizes: dict[str, int] = field(default_factory=dict)


def _write_jsonl(path: str, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def _words(rng: np.random.Generator, count: int) -> list[str]:
    """``count`` distinct three-syllable pseudo-words."""
    syllables = [c + v for c in _CONSONANTS for v in _VOWELS]
    picks = rng.choice(len(syllables) ** 3, size=count, replace=False)
    n = len(syllables)
    return [syllables[p // (n * n)] + syllables[(p // n) % n] + syllables[p % n] for p in picks]


def synthetic_corpus(
    seed: int, n_entries: int, n_queries: int, vocab_size: int, topic_size: int,
    description_len: int, shared_tokens: int,
) -> tuple[list[KBEntry], list[TaggedQuery]]:
    """A KB of ``n_entries`` entries over ``vocab_size`` words, plus linked queries.

    Each entry has a topic of ``topic_size`` distinct words: its title is
    the first two, and its description the other topic words in order,
    then draws from the topic up to ``description_len`` words, so a long
    description stays about its topic instead of averaging out to the
    whole vocabulary. Each query puts ``shared_tokens`` distinct
    topic words of its gold entry around a trigger word and tags three of
    them with argument roles, so an untrained encoder still ranks the
    gold entry high.
    """
    rng = np.random.default_rng(seed)
    words = _words(rng, vocab_size)
    entries, topics = [], []
    for i in range(n_entries):
        topic = [words[j] for j in rng.choice(vocab_size, size=topic_size, replace=False)]
        draws = rng.integers(0, topic_size, size=description_len - (topic_size - 2))
        entries.append(KBEntry(
            id=f"K{i:06d}", title=" ".join(topic[:2]),
            description=" ".join(topic[2:] + [topic[j] for j in draws]),
        ))
        topics.append(topic)
    golds = rng.choice(n_entries, size=n_queries, replace=n_queries > n_entries)
    queries = []
    for q, g in enumerate(golds):
        topic = topics[int(g)]
        shared = [topic[int(p)] for p in rng.choice(topic_size, size=shared_tokens, replace=False)]
        trigger, pos = _TRIGGERS[int(rng.integers(len(_TRIGGERS)))]
        left = [_FILLERS[int(rng.integers(len(_FILLERS)))], *shared[: shared_tokens // 2]]
        tokens = [*left, trigger, *shared[shared_tokens // 2 :], "."]
        mention = len(left)
        arguments = tuple(
            Argument(Span(p, p), role) for p, role in zip((1, mention + 1, mention + 2), _ROLES)
        )
        base = EventQuery(
            query_id=f"q{q:06d}", tokens=tuple(tokens), mention=Span(mention, mention),
            pos=pos, gold=entries[int(g)].id,
        )
        queries.append(TaggedQuery(base=base, event_type="Conflict", arguments=arguments))
    return entries, queries


def fixture_vocab(entries, queries) -> list[str]:
    """Every token the stages can feed the encoders, as ``build_vocab`` covers."""
    tokens = {"[OOV]", "[NIL]", "[TITLE_SEP]"}
    for entry in entries:
        tokens.update(entry.title.split())
        tokens.update(entry.description.split())
    for query in queries:
        tokens.update(format_query(query, STYLE, RETRIEVE_QUERY_LEN))
    return sorted(tokens)


@dataclass(frozen=True)
class Workload:
    """One named workload: why it exists, its sizes, inputs and stages."""

    name: str
    why: str
    sizes: dict

    def setup(self, directory: str, seed: int) -> Inputs:
        raise NotImplementedError

    def stages(self, inputs: Inputs, out: str) -> list[Stage]:
        raise NotImplementedError


class ToyTrain(Workload):
    """The full toy pipeline of ``scripts/run_toy_pipeline.py``."""

    def setup(self, directory: str, seed: int) -> Inputs:
        s = self.sizes
        data = build_toy_data(s["entries"], s["train"], s["test"], seed=seed)
        return Inputs(
            paths=write_toy_inputs(directory, data),
            sizes={"entries": data.kb.n, "train": len(data.train), "test": len(data.test)},
        )

    def stages(self, inputs: Inputs, out: str) -> list[Stage]:
        s = self.sizes
        i = inputs.paths
        p = lambda name: os.path.join(out, name)  # noqa: E731
        depth = str(s["k"])
        # the query-serving stages take tens of milliseconds at toy size;
        # timing each several times keeps their medians steady
        r = s["serving_repeats"]
        kb, train, test = p("kb.norm.jsonl"), p("train.tagged.jsonl"), p("test.tagged.jsonl")
        enc, index = p("encoder.json"), p("index.json")
        stages = [
            Stage("build-kb", ("build-kb", "--in", i["kb"], "--out", kb)),
            Stage("tag", ("tag", "--in", i["train"], "--out", train, "--extractor", "rule",
                          "--lexicon", i["lexicon"])),
            Stage("tag", ("tag", "--in", i["test"], "--out", test, "--extractor", "rule",
                          "--lexicon", i["lexicon"])),
            Stage("train-bi", ("train-bi", "--kb", kb, "--queries", train, "--out", enc,
                               "--dim", str(DIM), "--lr", "0.3", "--batch-size", "8",
                               "--epochs", str(s["bi_epochs"]), "--seed", "0")),
            Stage("index", ("index", "--kb", kb, "--encoder", enc, "--out", index), r),
            Stage("retrieve.dense", ("retrieve", "--index", index, "--queries", test,
                                     "--encoder", enc, "--k", depth,
                                     "--out", p("dense.candidates.jsonl")), r),
            Stage("retrieve.bm25", ("retrieve", "--retriever", "bm25", "--kb", kb,
                                    "--queries", test, "--k", depth,
                                    "--out", p("bm25.candidates.jsonl")), r),
            Stage("neg-gen", ("neg-gen", "--queries", train, "--kb", kb, "--index", index,
                              "--encoder", enc, "--style", "args",
                              "--count", str(s["train_negatives"]), "--seed", "0",
                              "--out", p("negatives.train.jsonl"),
                              "--log", p("negatives.log.jsonl"))),
            Stage("neg-gen", ("neg-gen", "--queries", train, "--kb", kb, "--index", index,
                              "--encoder", enc, "--style", "args",
                              "--count", str(s["eval_negatives"]), "--seed", "1",
                              "--out", p("negatives.eval.jsonl"))),
            Stage("train-cross", ("train-cross", "--kb", kb, "--queries", train,
                                  "--negatives", p("negatives.train.jsonl"), "--index", index,
                                  "--encoder", enc, "--out", p("scorer.json"),
                                  "--dim", str(DIM), "--lr", "0.1", "--batch-size", "8",
                                  "--epochs", str(s["cross_epochs"]), "--seed", "0")),
            # the combined eval file is written by the client between
            # these stages, as the toy pipeline script does
            Stage("retrieve.eval", ("retrieve", "--index", index, "--queries", p("eval.tagged.jsonl"),
                                    "--encoder", enc, "--k", depth,
                                    "--out", p("eval.candidates.jsonl"))),
        ]
        reports = []
        for name, rule in (
            ("learned", ("--rule", "learned")),
            ("threshold_conventional", ("--rule", "threshold", "--theta", "0.5",
                                        "--direction", "conventional")),
            ("threshold_literal", ("--rule", "threshold", "--theta", "0.5",
                                   "--direction", "literal")),
        ):
            decisions = p(f"decisions.{name}.jsonl")
            stages.append(Stage(
                "link.learned" if name == "learned" else "link.threshold",
                ("link", "--kb", kb, "--queries", p("eval.tagged.jsonl"), "--index", index,
                 "--encoder", enc, "--scorer", p("scorer.json"), "--out", decisions, *rule),
                r if name == "learned" else 1,
            ))
            report = p(f"{name}.json")
            stages.append(Stage("eval", (
                "eval", "--preds", decisions, "--gold", p("eval.tagged.jsonl"),
                "--candidates", p("eval.candidates.jsonl"), "--out", report,
                "--ks", ",".join(str(k) for k in RECALL_GRID if k <= s["k"]),
            )))
            reports.append(report)
        stages.append(Stage("report", ("report", "--runs", *reports,
                                       "--out", p("comparison.json"))))
        return stages

    @staticmethod
    def write_eval_set(out: str) -> None:
        """In-KB test rows plus the generated out-of-KB rows, as the toy script builds them."""
        test = read_records(os.path.join(out, "test.tagged.jsonl"))
        negatives = read_records(os.path.join(out, "negatives.eval.jsonl"))
        _write_jsonl(os.path.join(out, "eval.tagged.jsonl"),
                     [*test, *(n["generated"] for n in negatives)])


class Linking(Workload):
    """Index, dense and BM25 retrieve, and learned-NIL link over a generated KB.

    The retriever encoder and the cross scorer are untrained fixture
    checkpoints written at set-up; queries share tokens with their gold
    entry, so retrieval and linking still have real recall.
    """

    def setup(self, directory: str, seed: int) -> Inputs:
        s = self.sizes
        os.makedirs(directory, exist_ok=True)
        entries, queries = synthetic_corpus(
            seed, s["entries"], s["queries"], s["vocab"], s["topic"], s["description_len"],
            s["shared_tokens"],
        )
        paths = {
            "kb": os.path.join(directory, "kb.jsonl"),
            "queries": os.path.join(directory, "queries.tagged.jsonl"),
            "encoder": os.path.join(directory, "encoder.json"),
            "scorer": os.path.join(directory, "scorer.json"),
        }
        _write_jsonl(paths["kb"], (
            {"id": e.id, "title": e.title, "description": e.description} for e in entries
        ))
        _write_jsonl(paths["queries"], (tagged_to_record(q) for q in queries))
        vocab = fixture_vocab(entries, queries)
        encoder = TinyEncoder(vocab, DIM, seed=seed)
        with open(paths["encoder"], "w", encoding="utf-8") as fh:
            fh.write(json.dumps(encoder.state_dict(), sort_keys=True))
        scorer = TinyCrossScorer(vocab, DIM, seed=seed + 1)
        with open(paths["scorer"], "w", encoding="utf-8") as fh:
            fh.write(json.dumps(scorer.state_dict(), sort_keys=True))
        return Inputs(paths=paths, sizes={
            "entries": len(entries), "queries": len(queries), "encoder_vocab": len(vocab),
        })

    def stages(self, inputs: Inputs, out: str) -> list[Stage]:
        i = inputs.paths
        index = os.path.join(out, "index.json")
        k = str(K)
        return [
            Stage("index", ("index", "--kb", i["kb"], "--encoder", i["encoder"], "--out", index)),
            Stage("retrieve.dense", ("retrieve", "--index", index, "--queries", i["queries"],
                                     "--encoder", i["encoder"], "--k", k,
                                     "--out", os.path.join(out, "dense.candidates.jsonl"))),
            Stage("retrieve.bm25", ("retrieve", "--retriever", "bm25", "--kb", i["kb"],
                                    "--queries", i["queries"], "--k", k,
                                    "--out", os.path.join(out, "bm25.candidates.jsonl"))),
            Stage("link.learned", ("link", "--kb", i["kb"], "--queries", i["queries"],
                                   "--index", index, "--encoder", i["encoder"],
                                   "--scorer", i["scorer"], "--rule", "learned", "--k", k,
                                   "--out", os.path.join(out, "decisions.learned.jsonl"))),
        ]


FULL_SIZES = {
    "toy-train": dict(entries=50, train=200, test=50, bi_epochs=150, cross_epochs=10,
                      train_negatives=50, eval_negatives=30, k=20, serving_repeats=5),
    "large-kb-link": dict(entries=10000, queries=80, vocab=2000, topic=14, description_len=12,
                          shared_tokens=12, k=K),
    "long-rerank": dict(entries=200, queries=600, vocab=1000, topic=16, description_len=250,
                        shared_tokens=12, k=K),
}

# Small enough for the benchmark's own smoke test to run in seconds.
TINY_SIZES = {
    "toy-train": dict(entries=12, train=48, test=12, bi_epochs=3, cross_epochs=1,
                      train_negatives=6, eval_negatives=4, k=12, serving_repeats=2),
    "large-kb-link": dict(entries=200, queries=12, vocab=300, topic=14, description_len=12,
                          shared_tokens=12, k=K),
    "long-rerank": dict(entries=30, queries=12, vocab=300, topic=16, description_len=250,
                        shared_tokens=12, k=K),
}

WHY = {
    "toy-train": (
        "full toy pipeline; encoder forward/backward inside train-bi and train-cross "
        "takes most of the wall time, retrieval at n=50 is negligible"
    ),
    "large-kb-link": (
        "10k-entry KB with short descriptions; the per-row dense retrieve loop and the "
        "index artifact write/parse dominate, the scorer does little"
    ),
    "long-rerank": (
        "200 entries with ~250-token descriptions and 600 queries; score_pairs "
        "re-encodes query and candidates 21 times per query, retrieve costs little"
    ),
}


def make(name: str, tiny: bool = False) -> Workload:
    sizes = (TINY_SIZES if tiny else FULL_SIZES)[name]
    cls = ToyTrain if name == "toy-train" else Linking
    return cls(name=name, why=WHY[name], sizes=dict(sizes))


NAMES = tuple(FULL_SIZES)
