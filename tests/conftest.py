import json

import numpy as np
import pytest

from eventlink.extraction import Argument, EventQuery, Span, TaggedQuery
from eventlink.kb import KBEntry, KnowledgeBase


@pytest.fixture
def small_kb():
    return KnowledgeBase(
        [
            KBEntry("E1", "Siege of Kesh", "A long siege of the walled city of Kesh ."),
            KBEntry("E2", "Harbor uprising", "Dock workers rose against the harbor council ."),
            KBEntry("E3", "WWII", "global war"),
        ]
    )


@pytest.fixture
def invasion_query():
    return EventQuery(
        query_id="q-invasion",
        tokens=("Germany", "invaded", "the", "Soviet", "Union"),
        mention=Span(1, 1),
        pos="verb",
        gold="E1",
    )


@pytest.fixture
def invasion_tagged(invasion_query):
    return TaggedQuery(
        base=invasion_query,
        event_type="Attack",
        arguments=(
            Argument(Span(0, 0), "Assailant"),
            Argument(Span(2, 4), "Victim"),
        ),
    )


def write_jsonl(path, records):
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")


def dense_grads(params, grads):
    """``grads`` with the row-sparse ``embed`` pair scattered into a zeroed full table."""
    rows, embed = grads["embed"]
    full = dict(grads, embed=np.zeros_like(params["embed"]))
    full["embed"][rows] = embed
    return full
