"""Metamorphic relations of the serving stages, end to end through the CLI.

The retriever encoder and the cross scorer come from one toy pipeline run
and are held fixed; each relation rewrites the KB file, rebuilds the index
from it, and serves the same queries again (``index``, dense and BM25
``retrieve``, learned-NIL ``link`` and ``eval``):

- KB order: permuting the KB's entries leaves every candidate score and
  every link score bit-identical, and reorders only candidates whose
  scores tie.
- Rename: renaming every KB id, and the golds with them, renames the ids
  in the outputs and changes nothing else. The renaming reverses the ids'
  sort order, so an id-ordered tie-break would show.
"""

import random
from collections import defaultdict

import pytest

from eventlink.artifacts import read_json, read_records
from eventlink.cli import main

from conftest import write_jsonl
from pipeline import run_toy_pipeline

K = 10  # link depth
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


def _serve(directory, trained, kb_records, query_records):
    """Every output of the serving stages over these KB and query records, as records."""
    path = {name: str(directory / name) for name in
            ("kb.jsonl", "queries.jsonl", "index.json", "dense.jsonl", "bm25.jsonl", "link.jsonl",
             "eval.json")}
    write_jsonl(directory / "kb.jsonl", kb_records)
    write_jsonl(directory / "queries.jsonl", query_records)
    kb, queries, index = path["kb.jsonl"], path["queries.jsonl"], path["index.json"]
    encoder = trained["encoder"]
    for argv in (
        ["index", "--kb", kb, "--encoder", encoder, "--out", index],
        ["retrieve", "--index", index, "--encoder", encoder, "--queries", queries,
         "--k", str(DEPTH), "--out", path["dense.jsonl"]],
        ["retrieve", "--retriever", "bm25", "--kb", kb, "--queries", queries, "--k", str(DEPTH),
         "--out", path["bm25.jsonl"]],
        ["link", "--kb", kb, "--index", index, "--encoder", encoder, "--scorer", trained["scorer"],
         "--queries", queries, "--k", str(K), "--out", path["link.jsonl"]],
        ["eval", "--preds", path["link.jsonl"], "--gold", queries, "--candidates",
         path["dense.jsonl"], "--ks", "1,5,10,20", "--out", path["eval.json"]],
    ):
        assert main(argv) == 0, argv[0]
    outputs = {name: read_records(path[f"{name}.jsonl"], dict)
               for name in ("dense", "bm25", "link")}
    report = read_json(path["eval.json"])[1]
    # digests of the input files, which every relation rewrites
    del report["dataset_fingerprint"], report["config_fingerprint"]
    outputs["eval"] = report
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
    assert got["link"] == [{**d, "prediction": rename.get(d["prediction"], d["prediction"])}
                         for d in base["link"]]
    assert got["eval"] == base["eval"]
