"""Metamorphic relations of the serving stages, end to end through the CLI.

The retriever encoder and the cross scorer come from one toy pipeline run
and are held fixed. The KB relations rewrite the KB file, rebuild the index
from it, and serve the same queries again (``index``, dense and BM25
``retrieve``, learned-NIL and threshold ``link`` and ``eval``):

- KB order: permuting the KB's entries leaves every candidate score and
  every link score bit-identical, and reorders only candidates whose
  scores tie.
- Rename: renaming every KB id, and the golds with them, renames the ids
  in the outputs and changes nothing else. The renaming reverses the ids'
  sort order, so an id-ordered tie-break would show.

The query relations serve rewritten query files against the same KB and
index. Each stage batches a file's queries (one ``retrieve_many``, one
``score_pairs`` call), and a query's records must not depend on which other
queries share its call. Dense ``retrieve`` also serves at the link depth
``K``, half the KB, so its records come from each query's shortlist:

- Split: serving the query file in parts writes the same records as
  serving it whole, concatenated.
- Order: permuting the queries, some of them repeated, permutes the
  records and changes nothing else; a repeated query gives equal records.
"""

import random
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eventlink.artifacts import read_json, read_records
from eventlink.cli import main

from conftest import write_jsonl
from pipeline import run_toy_pipeline

K = 10  # link depth, and the depth of the query relations' shortlist retrieval
DEPTH = 20  # retrieval depth: the whole 20-entry KB, so every tie group is returned whole


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    return run_toy_pipeline(tmp_path_factory.mktemp("run"), bi_epochs=2, cross_epochs=1,
                            train_negatives=2)


@pytest.fixture(scope="module")
def kb(trained):
    return read_records(trained["kb_norm"], dict)


@pytest.fixture(scope="module")
def queries(trained, kb):
    """The train and eval queries, the generated out-of-KB ones, and one query per entry
    taken from its description, which BM25 scores apart (the toy queries use aliases)."""
    described = [
        {"query_id": f"described-{i}", "tokens": entry["description"].split()[:12],
         "mention_start": 5, "mention_end": 5, "pos": "verb", "gold": entry["id"],
         "event_type": "Assault", "arguments": []}
        for i, entry in enumerate(kb)
    ]
    generated = [n["generated"] for n in read_records(trained["negatives"], dict)]
    return [*read_records(trained["train_tagged"], dict),
            *read_records(trained["eval_tagged"], dict), *generated, *described]


def _serve_queries(directory, trained, kb, index, query_records):
    """The records dense and BM25 ``retrieve`` and learned and threshold ``link`` write for
    these query records, against this KB and index file and the module's checkpoints.

    Dense ``retrieve`` runs at ``DEPTH`` and at ``K``; only at ``K``, below the KB's size,
    does each query's record come from a shortlist of the index."""
    write_jsonl(directory / "queries.jsonl", query_records)
    queries, encoder = str(directory / "queries.jsonl"), trained["encoder"]
    link = ["link", "--kb", kb, "--index", index, "--encoder", encoder,
            "--scorer", trained["scorer"], "--queries", queries, "--k", str(K)]
    argvs = {
        "dense": ["retrieve", "--index", index, "--encoder", encoder, "--queries", queries,
                  "--k", str(DEPTH)],
        "shortlist": ["retrieve", "--index", index, "--encoder", encoder, "--queries", queries,
                      "--k", str(K)],
        "bm25": ["retrieve", "--retriever", "bm25", "--kb", kb, "--queries", queries,
                 "--k", str(DEPTH)],
        "link": link,
        "threshold": [*link, "--rule", "threshold"],
    }
    outputs = {}
    for name, argv in argvs.items():
        out = directory / f"{name}.jsonl"
        assert main([*argv, "--out", str(out)]) == 0, name
        outputs[name] = read_records(out, dict)
    return outputs


def _serve(directory, trained, kb_records, query_records):
    """Every output of the serving stages over these KB and query records, as records."""
    write_jsonl(directory / "kb.jsonl", kb_records)
    kb, index = str(directory / "kb.jsonl"), str(directory / "index.json")
    assert main(["index", "--kb", kb, "--encoder", trained["encoder"], "--out", index]) == 0
    outputs = _serve_queries(directory, trained, kb, index, query_records)
    report = directory / "eval.json"
    assert main(["eval", "--preds", str(directory / "link.jsonl"),
                 "--gold", str(directory / "queries.jsonl"),
                 "--candidates", str(directory / "dense.jsonl"), "--ks", "1,5,10,20",
                 "--out", str(report)]) == 0
    outputs["eval"] = read_json(report)[1]
    # digests of the input files, which every relation rewrites
    del outputs["eval"]["dataset_fingerprint"], outputs["eval"]["config_fingerprint"]
    return outputs


@pytest.fixture(scope="module")
def base(tmp_path_factory, trained, kb, queries):
    return _serve(tmp_path_factory.mktemp("base"), trained, kb, queries)


def _tie_groups(record: dict) -> dict[float, set[str]]:
    groups = defaultdict(set)
    for candidate in record["candidates"]:
        groups[candidate["score"]].add(candidate["id"])
    return groups


def _link_scores(decisions: list[dict], dense: list[dict]) -> list[tuple]:
    """Per query: its id, prediction and out-of-KB score, and the cross score by candidate id.

    ``link`` scores the first K of the candidates ``retrieve`` ranks; no tie
    may straddle that cut, or which entries it scores would be unsettled.
    """
    out = []
    for decision, candidates in zip(decisions, dense, strict=True):
        ranked = candidates["candidates"]
        assert ranked[K - 1]["score"] != ranked[K]["score"], candidates["query_id"]
        by_id = dict(zip((c["id"] for c in ranked[:K]), decision["scores"][1:], strict=True))
        out.append((decision["query_id"], decision["prediction"], decision["scores"][0], by_id))
    return out


def test_permuting_the_kb_reorders_only_tied_candidates(tmp_path, trained, kb, queries, base):
    permuted_kb = random.Random(0).sample(kb, len(kb))
    got = _serve(tmp_path, trained, permuted_kb, queries)
    for name in ("dense", "bm25"):
        for before, after in zip(base[name], got[name], strict=True):
            assert before["query_id"] == after["query_id"]
            scores = [c["score"] for c in before["candidates"]]
            assert [c["score"] for c in after["candidates"]] == scores
            assert _tie_groups(after) == _tie_groups(before)
    assert got["bm25"] != base["bm25"]  # the permutation did reorder tied candidates
    assert _link_scores(got["link"], got["dense"]) == _link_scores(base["link"], base["dense"])
    assert got["eval"] == base["eval"]


def test_renaming_the_kb_ids_renames_them_in_every_output(tmp_path, trained, kb, queries, base):
    rename = {entry["id"]: f"K{len(kb) - i:03d}" for i, entry in enumerate(kb)}
    assert sorted(rename, key=rename.get) == sorted(rename, reverse=True)
    got = _serve(tmp_path, trained, [{**entry, "id": rename[entry["id"]]} for entry in kb],
                 [{**query, "gold": rename.get(query["gold"], query["gold"])} for query in queries])
    for name in ("dense", "bm25"):
        assert got[name] == [
            {**record, "candidates": [{**c, "id": rename[c["id"]]} for c in record["candidates"]]}
            for record in base[name]
        ]
    for name in ("link", "threshold"):
        assert got[name] == [{**d, "prediction": rename.get(d["prediction"], d["prediction"])}
                             for d in base[name]]
    assert got["eval"] == base["eval"]


# The query relations serve against the pipeline's own KB file and index; ``base`` served the
# same KB records with an index the same encoder rebuilt from them.
_RECORDS = ("dense", "shortlist", "bm25", "link", "threshold")


@given(data=st.data())
@settings(max_examples=12, deadline=None)
def test_serving_the_queries_in_parts_writes_the_same_records(tmp_path_factory, trained, queries,
                                                             base, data):
    cuts = sorted(data.draw(st.sets(st.integers(1, len(queries) - 1), min_size=1, max_size=3)))
    parts = [queries[start:end] for start, end in zip([0, *cuts], [*cuts, len(queries)])]
    served = [_serve_queries(tmp_path_factory.mktemp("part"), trained, trained["kb_norm"],
                             trained["index"], part) for part in parts]
    for name in _RECORDS:
        assert [record for outputs in served for record in outputs[name]] == base[name], name


def test_permuting_and_repeating_queries_permutes_the_records(tmp_path, trained, queries, base):
    n = len(queries)
    order = random.Random(1).sample([*range(n), 0, n // 2, n - 1], n + 3)
    got = _serve_queries(tmp_path, trained, trained["kb_norm"], trained["index"],
                         [queries[i] for i in order])
    for name in _RECORDS:
        assert got[name] == [base[name][i] for i in order], name
    first, second = [position for position, i in enumerate(order) if i == n // 2]
    assert got["link"][first] == got["link"][second]
