"""Synthetic desk-scale data: a small conflict-event KB with linked queries.

Each KB entry is an invented historical clash with a unique place, year,
and pair of factions; queries mention the same details, so a trainable
encoder can learn the alignment in seconds. The lexicon tags factions,
places, and years with argument roles and maps trigger words to event
types, which keeps the whole pipeline (extraction included) exercised
without any learned extractor.

``StorytellerMock`` stands in for the rewrite client: it swaps the tagged
details of the prompt's final passage for fictional ones drawn from a
vocabulary disjoint from the corpus, deterministically in (seed, prompt).
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass

import numpy as np

from .encoders import token_hash
from .extraction import EventQuery, RoleLexicon, RuleExtractor, Span, TaggedQuery, extract
from .extraction import query_to_record
from .kb import KBEntry, KnowledgeBase, entry_to_record

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

# Replacement vocabulary for the storyteller mock; disjoint from the
# generated corpus names by construction (checked in tests).
FICTIONAL_NAMES = (
    "Braxxon", "Quorath", "Zenthia", "Mirelda", "Ostravane", "Kelvorn",
    "Xanthippe", "Drovak", "Ulrezaj", "Phantor", "Greywall", "Ninevra",
    "Coriolan", "Vantessa", "Hexmoor",
)


@dataclass
class ToyData:
    kb: KnowledgeBase
    train: list[TaggedQuery]
    test: list[TaggedQuery]
    lexicon: RoleLexicon


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
    near chance.
    """
    rng = np.random.default_rng(seed)
    names = _names(rng, 6 * n_entries)
    canon_a = names[:n_entries]
    canon_d = names[n_entries : 2 * n_entries]
    canon_p = names[2 * n_entries : 3 * n_entries]
    alias_a = names[3 * n_entries : 4 * n_entries]
    alias_d = names[4 * n_entries : 5 * n_entries]
    alias_p = names[5 * n_entries : 6 * n_entries]
    years = rng.choice(np.arange(1400, 1900), size=n_entries, replace=False)

    entries = []
    facts = []
    for i in range(n_entries):
        kind = _KINDS[i % len(_KINDS)]
        verb = _VERBS[i % len(_VERBS)]
        place, year = canon_p[i], str(int(years[i]))
        a, d = canon_a[i], canon_d[i]
        entry = KBEntry(
            id=f"E{i:03d}",
            title=f"{kind.capitalize()} of {place}",
            description=(
                f"The {kind} of {place} began when {a} forces struck {d} "
                f"positions near {place} . The clash between {a} and {d} "
                f"shaped the region for years ."
            ),
        )
        entries.append(entry)
        facts.append((entry.id, verb, alias_p[i], year, alias_a[i], alias_d[i]))
    kb = KnowledgeBase(entries)

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
    with open(paths["kb"], "w", encoding="utf-8") as fh:
        for entry in data.kb:
            fh.write(json.dumps(entry_to_record(entry), sort_keys=True) + "\n")
    for split, queries in (("train", data.train), ("test", data.test)):
        with open(paths[split], "w", encoding="utf-8") as fh:
            for tagged in queries:
                fh.write(json.dumps(query_to_record(tagged.base), sort_keys=True) + "\n")
    with open(paths["lexicon"], "w", encoding="utf-8") as fh:
        json.dump(data.lexicon.to_dict(), fh, sort_keys=True, indent=1)
    return paths


_PASSAGE_ARG_RE = re.compile(r"Example 3:\nPassage: (?P<p>.*)\n\nAdditional information")
_PASSAGE_PLAIN_RE = re.compile(r"Example 3:\nPassage: (?P<p>.*)\n\nNew passage:")
_SPAN_RE = re.compile(r"<(\w+)> (.*?) </\1>")


class StorytellerMock:
    """Deterministic rewrite client for negative-generation prompts."""

    def __init__(self, seed: int = 0):
        self.seed = seed

    def _replacement(self, original: str) -> str:
        h = token_hash(f"{self.seed}:{original}")
        if original.replace(" ", "").isdigit():
            return str(2100 + h % 900)
        return FICTIONAL_NAMES[h % len(FICTIONAL_NAMES)]

    def _swap_tagged(self, passage: str) -> str:
        def swap(match: re.Match) -> str:
            tag, inner = match.group(1), match.group(2)
            if tag == "mention":
                return match.group(0)
            return f"<{tag}> {self._replacement(inner)} </{tag}>"

        return _SPAN_RE.sub(swap, passage)

    def _swap_plain(self, passage: str) -> str:
        out = []
        for position, token in enumerate(passage.split()):
            if token.startswith("<"):
                out.append(token)
            elif token.isdigit():
                out.append(self._replacement(token))
            elif position > 0 and token[:1].isupper():
                out.append(self._replacement(token))
            else:
                out.append(token)
        return " ".join(out)

    def complete(self, prompt: str) -> str:
        arg_match = _PASSAGE_ARG_RE.search(prompt)
        if arg_match:
            swapped = self._swap_tagged(arg_match.group("p"))
            return (
                "Plan 1: Replace the tagged participants, place, and time with "
                "invented ones, keeping every role type.\n"
                f"Following Plan 1, we can generate this passage after Step 1: {swapped}\n"
                "Plan 2: Keep the surrounding wording; the invented details already "
                "read smoothly.\n"
                f"Following Plan 2, we can generate this passage after Step 2: {swapped}"
            )
        plain_match = _PASSAGE_PLAIN_RE.search(prompt)
        if plain_match:
            swapped = self._swap_plain(plain_match.group("p"))
            return f"New passage: {swapped}"
        raise ValueError("prompt carries no recognizable passage")
