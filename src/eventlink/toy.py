"""Synthetic desk-scale data: a small conflict-event KB with linked queries.

Each KB entry is an invented historical clash with a unique place, year,
and pair of factions; queries mention the same details, so a trainable
encoder can learn the alignment in seconds. The lexicon tags factions,
places, and years with argument roles and maps trigger words to event
types, which keeps the whole pipeline (extraction included) exercised
without any learned extractor.

``toy_stages`` is the one definition of a toy run: the ordered CLI argv
lists from the raw inputs to the decision-rule comparison, and the paths of
the files they write. ``write_toy_eval_set`` writes the combined eval set
between its two halves.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from . import artifacts
from .evaluation import RECALL_GRID
from .extraction import EventQuery, RoleLexicon, RuleExtractor, Span, TaggedQuery, extract
from .extraction import query_to_record
from .kb import KnowledgeBase

_ONSETS = (
    "Bar", "Dren", "Kel", "Mor", "Tar", "Vas", "Zor", "Quen", "Hal", "Fen",
    "Gar", "Lor", "Nav", "Pyr", "Sel", "Tor", "Ulm", "Vex", "Wyn", "Yar",
)
_CODAS = (
    "dan", "mir", "holm", "wick", "grad", "stad", "mark", "fell", "gard", "port",
    "thorn", "vale", "burg", "crest", "moor", "shire", "ford", "haven", "ridge", "wold",
)

_KINDS = ("siege", "uprising", "blockade", "raid", "skirmish", "rebellion")
_VERBS = ("attacked", "stormed", "raided")
_TRIGGERS = {
    "attacked": "Assault",
    "stormed": "Assault",
    "raided": "Raid",
    "clash": "Conflict",
    "fighting": "Conflict",
}


@dataclass
class ToyData:
    kb: KnowledgeBase
    train: list[TaggedQuery]
    test: list[TaggedQuery]
    lexicon: RoleLexicon


# each entry takes 6 distinct names (3 canonical, 3 aliases) from the combinations
MAX_TOY_ENTRIES = len(_ONSETS) * len(_CODAS) // 6


def _names(rng: np.random.Generator, count: int) -> list[str]:
    combos = [onset + coda for onset in _ONSETS for coda in _CODAS]
    picks = rng.choice(len(combos), size=count, replace=False)
    return [combos[i] for i in picks]


def build_toy_data(
    n_entries: int = 50, n_train: int = 200, n_test: int = 50, seed: int = 7
) -> ToyData:
    """Synthesize the KB, tagged train/test queries, and the role lexicon.

    Queries refer to the factions and the site by alias names that never
    occur in the KB text, so a bag encoder links queries to entries only
    after training aligns the alias embeddings; untrained retrieval stays
    near chance. A size outside 1 to ``MAX_TOY_ENTRIES`` entries is a ``ValueError``.
    """
    if not 1 <= n_entries <= MAX_TOY_ENTRIES:
        raise ValueError(f"the toy corpus takes 1 to {MAX_TOY_ENTRIES} entries, not {n_entries}")
    rng = np.random.default_rng(seed)
    names = _names(rng, 6 * n_entries)
    canon_a = names[:n_entries]
    canon_d = names[n_entries : 2 * n_entries]
    canon_p = names[2 * n_entries : 3 * n_entries]
    alias_a = names[3 * n_entries : 4 * n_entries]
    alias_d = names[4 * n_entries : 5 * n_entries]
    alias_p = names[5 * n_entries : 6 * n_entries]
    years = rng.choice(np.arange(1400, 1900), size=n_entries, replace=False)

    records = []
    facts = []
    for i in range(n_entries):
        kind = _KINDS[i % len(_KINDS)]
        verb = _VERBS[i % len(_VERBS)]
        place, year = canon_p[i], str(int(years[i]))
        a, d = canon_a[i], canon_d[i]
        description = (f"The {kind} of {place} began when {a} forces struck {d} positions near "
                       f"{place} . The clash between {a} and {d} shaped the region for years .")
        entry_id = f"E{i:03d}"
        records.append({"id": entry_id, "title": f"{kind.capitalize()} of {place}",
                        "description": description})
        facts.append((entry_id, verb, alias_p[i], year, alias_a[i], alias_d[i]))
    kb = KnowledgeBase.from_records(enumerate(records, start=1), "toy KB")

    roles: dict[str, str] = {}
    for _, _, place, year, a, d in facts:
        roles[a.lower()] = "Assailant"
        roles[d.lower()] = "Victim"
        roles[place.lower()] = "Place"
        roles[year] = "Time"
    lexicon = RoleLexicon(roles=roles, triggers=dict(_TRIGGERS))
    extractor = RuleExtractor(lexicon)

    def make_query(qid: str, i: int, variant: int) -> TaggedQuery:
        _, verb, place, year, a, d = facts[i]
        if variant == 0:
            tokens = f"In {year} , {a} {verb} {d} near {place} .".split()
            mention, pos = Span(4, 4), "verb"
        elif variant == 1:
            tokens = f"{a} {verb} {d} near {place} in {year} .".split()
            mention, pos = Span(1, 1), "verb"
        elif variant == 2:
            tokens = f"Reports recall {a} {verb} {d} close to {place} during {year} .".split()
            mention, pos = Span(3, 3), "verb"
        elif variant == 3:
            tokens = f"The clash at {place} in {year} drew {a} against {d} when tensions rose .".split()
            mention, pos = Span(1, 1), "noun"
        else:
            # held-out template: every context word occurs in some train
            # template, so test queries carry no OOV tokens
            tokens = f"The clash near {place} rose during {year} when {a} {verb} {d} .".split()
            mention, pos = Span(1, 1), "noun"
        query = EventQuery(
            query_id=qid, tokens=tuple(tokens), mention=mention, pos=pos, gold=facts[i][0]
        )
        return extract(extractor, query)

    train = [
        make_query(f"train-{j:04d}", j % n_entries, j % 4)
        for j in range(n_train)
    ]
    test = [
        make_query(f"test-{j:04d}", j % n_entries, 4)
        for j in range(n_test)
    ]
    return ToyData(kb=kb, train=train, test=test, lexicon=lexicon)


def write_toy_inputs(directory, data: ToyData) -> dict[str, str]:
    """Write raw pipeline inputs (KB, untagged queries, lexicon) as files."""
    os.makedirs(directory, exist_ok=True)
    paths = {
        "kb": os.path.join(directory, "kb.jsonl"),
        "train": os.path.join(directory, "train.jsonl"),
        "test": os.path.join(directory, "test.jsonl"),
        "lexicon": os.path.join(directory, "lexicon.json"),
    }
    artifacts.write_jsonl(paths["kb"], data.kb.records())
    for split, queries in (("train", data.train), ("test", data.test)):
        artifacts.write_jsonl(paths[split], (query_to_record(tagged.base) for tagged in queries))
    artifacts.atomic_write_text(paths["lexicon"],
                                json.dumps(data.lexicon.to_dict(), sort_keys=True, indent=1))
    return paths


@dataclass(frozen=True)
class ToyConfig:
    """The settings toy runs differ in; every run trains at lr 0.3 / 0.1 in batches of 8."""

    seed: int = 0
    dim: int = 64
    bi_epochs: int = 300
    cross_epochs: int = 10
    train_negatives: int = 50
    eval_negatives: int = 30


@dataclass(frozen=True)
class ToyStages:
    """A toy run: CLI argv lists in order, the paths they read and write, and the recall depths.

    ``write_toy_eval_set(paths)`` runs after ``prepare`` and before ``evaluate``.
    """

    prepare: list[list[str]]
    evaluate: list[list[str]]
    paths: dict[str, str]
    ks: tuple[int, ...]


# the decision rules a toy run compares, by report name
_RULES = {
    "learned_nil": ["--rule", "learned"],
    "threshold_conventional": ["--rule", "threshold", "--theta", "0.5",
                               "--direction", "conventional"],
    "threshold_literal": ["--rule", "threshold", "--theta", "0.5", "--direction", "literal"],
}


def toy_stages(workdir, inputs: dict[str, str], n_entries: int,
               config: ToyConfig = ToyConfig()) -> ToyStages:
    """Every CLI stage of a toy run over ``write_toy_inputs`` files, writing into ``workdir``.

    ``prepare`` tags the splits, trains the retriever, retrieves the test
    split densely and with BM25, generates the training and the eval
    negatives and trains the cross scorer. ``evaluate`` retrieves for the
    combined eval set, links it under each decision rule, evaluates each
    rule and compares them. Retrieval goes ``min(n_entries, 20)`` deep;
    every other ``--k`` is 10, capped at the KB size too.
    """
    workdir = os.fspath(workdir)
    paths = dict(inputs)

    def out(key, name):
        paths[key] = os.path.join(workdir, name)
        return paths[key]

    seed = str(config.seed)
    depth, k = str(min(n_entries, 20)), str(min(n_entries, 10))
    ks = tuple(x for x in RECALL_GRID if x <= min(n_entries, 20))
    kb, train, test = (out("kb_norm", "kb.norm.jsonl"), out("train_tagged", "train.tagged.jsonl"),
                       out("test_tagged", "test.tagged.jsonl"))
    encoder, index = out("encoder", "encoder.json"), out("index", "index.json")
    dense = ["--kb", kb, "--index", index, "--encoder", encoder]
    prepare = [
        ["build-kb", "--in", inputs["kb"], "--out", kb],
        *(["tag", "--in", inputs[split], "--out", tagged, "--extractor", "rule",
           "--lexicon", inputs["lexicon"]] for split, tagged in (("train", train), ("test", test))),
        ["train-bi", "--kb", kb, "--queries", train, "--out", encoder, "--dim", str(config.dim),
         "--lr", "0.3", "--batch-size", "8", "--epochs", str(config.bi_epochs), "--seed", seed],
        ["index", "--kb", kb, "--encoder", encoder, "--out", index],
        ["retrieve", "--index", index, "--queries", test, "--encoder", encoder, "--k", depth,
         "--out", out("candidates", "dense.candidates.jsonl")],
        ["retrieve", "--retriever", "bm25", "--kb", kb, "--queries", test, "--k", depth,
         "--out", out("bm25_candidates", "bm25.candidates.jsonl")],
        ["neg-gen", "--queries", train, *dense, "--style", "args",
         "--count", str(config.train_negatives), "--k", k, "--seed", seed,
         "--out", out("negatives", "negatives.train.jsonl"),
         "--log", out("genlog", "negatives.log.jsonl")],
        ["neg-gen", "--queries", train, *dense, "--style", "args",
         "--count", str(config.eval_negatives), "--k", k, "--seed", str(config.seed + 1),
         "--out", out("eval_negatives", "negatives.eval.jsonl")],
        ["train-cross", "--queries", train, "--negatives", paths["negatives"], *dense,
         "--out", out("scorer", "scorer.json"), "--dim", str(config.dim), "--lr", "0.1",
         "--batch-size", "8", "--epochs", str(config.cross_epochs), "--k", k, "--seed", seed],
    ]
    queries = out("eval_tagged", "eval.tagged.jsonl")
    candidates = out("eval_candidates", "eval.candidates.jsonl")
    evaluate = [["retrieve", "--index", index, "--queries", queries, "--encoder", encoder,
                 "--k", depth, "--out", candidates]]
    for rule, flags in _RULES.items():
        decisions = out(f"decisions_{rule}", f"decisions.{rule}.jsonl")
        evaluate += [
            ["link", "--queries", queries, *dense, "--scorer", paths["scorer"], "--k", k,
             "--out", decisions, *flags],
            ["eval", "--preds", decisions, "--gold", queries, "--candidates", candidates,
             "--out", out(f"report_{rule}", f"{rule}.json"), "--ks", ",".join(map(str, ks))],
        ]
    evaluate.append(["report", "--runs", *(paths[f"report_{rule}"] for rule in _RULES),
                     "--out", out("comparison", "comparison.json")])
    return ToyStages(prepare, evaluate, paths, ks)


def write_toy_eval_set(paths: dict[str, str]) -> None:
    """The combined eval set: the in-KB test rows, then the generated out-of-KB rows."""
    test = artifacts.read_records(paths["test_tagged"], dict)
    generated = artifacts.read_records(paths["eval_negatives"], itemgetter("generated"))
    artifacts.write_jsonl(paths["eval_tagged"], test + generated)
