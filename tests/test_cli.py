import base64
import json
import os
import shlex
import subprocess
import sys

import numpy as np
import pytest

from eventlink import cli
from eventlink import kb as kb_module
from eventlink.artifacts import file_digest, json_digest, read_json, read_manifest, read_records
from eventlink.cli import build_parser, main
from eventlink.encoders import TinyEncoder, load_encoder, save_checkpoint
from eventlink.rerank import TinyCrossScorer
from eventlink.toy import build_toy_data, write_toy_inputs
from eventlink.training import build_vocab

from conftest import write_jsonl
from pipeline import run_stages, run_toy_pipeline, toy_fixture_stages


@pytest.fixture(scope="module")
def toy_data():
    return build_toy_data(n_entries=10, n_train=30, n_test=5, seed=7)


@pytest.fixture(scope="module")
def toy_inputs(toy_data, tmp_path_factory):
    return write_toy_inputs(tmp_path_factory.mktemp("inputs"), toy_data)


@pytest.fixture(scope="module")
def dense_stack(toy_data, toy_inputs, tmp_path_factory):
    """A KB, tagged test queries, a seeded untrained encoder over their tokens and its index."""
    directory = tmp_path_factory.mktemp("dense")
    paths = {name: str(directory / name) for name in
             ("kb.jsonl", "tagged.jsonl", "encoder.json", "index.json")}
    assert main(["build-kb", "--in", toy_inputs["kb"], "--out", paths["kb.jsonl"]]) == 0
    assert main(["tag", "--in", toy_inputs["test"], "--out", paths["tagged.jsonl"],
                 "--extractor", "rule", "--lexicon", toy_inputs["lexicon"]]) == 0
    save_checkpoint(TinyEncoder(build_vocab(toy_data.kb, toy_data.test), 16, seed=3),
                    paths["encoder.json"])
    assert main(["index", "--kb", paths["kb.jsonl"], "--encoder", paths["encoder.json"],
                 "--out", paths["index.json"]]) == 0
    return paths


def _framed(header, body):
    return json.dumps(header).encode("utf-8") + b"\n" + body


def _drop_key(header, body):
    del header["ids"]
    return _framed(header, body)


def _format_v1(header, body):
    # one JSON document with the matrix as nested lists
    header["format_version"] = 1
    header["matrix"] = np.frombuffer(body, dtype="<f8").reshape(header["matrix"]["shape"]).tolist()
    return json.dumps(header).encode("utf-8")


def _format_v2(header, body):
    # one JSON document with the matrix as base64 of its bytes
    header["format_version"] = 2
    header["matrix"]["base64"] = base64.b64encode(body).decode("ascii")
    return json.dumps(header, sort_keys=True, indent=2).encode("utf-8") + b"\n"


def _old_version_header(header, body):
    header["format_version"] = 2
    return _framed(header, body)


def _float_version(header, body):
    header["format_version"] = 3.0
    return _framed(header, body)


def _bool_in_shape(header, body):
    header["matrix"]["shape"][1] = True
    return _framed(header, body)


def _shape_vs_ids(header, body):
    header["ids"] = header["ids"][:-1]
    return _framed(header, body)


def _shape_vs_bytes(header, body):
    header["matrix"]["shape"][1] += 1
    return _framed(header, body)


def _non_finite(header, body):
    rows = np.frombuffer(body, dtype="<f8").copy()
    rows[3] = np.nan
    return _framed(header, rows.tobytes())


def _truncated_body(header, body):
    return _framed(header, body[:-8])


def _empty(header, body):
    return b""


def _no_newline(header, body):
    return json.dumps(header).encode("utf-8")


def _ids(ids):
    """Two rows of the index under the header ``ids``, so that the file would load but for them."""
    def corrupt(header, body):
        shape = header["matrix"]["shape"]
        shape[0], header["ids"] = 2, ids
        return _framed(header, body[:2 * shape[1] * 8])
    return corrupt


def _index_parts(path):
    """The JSON header line, manifest included, and the matrix bytes of an index file."""
    head, _, body = open(path, "rb").read().partition(b"\n")
    return json.loads(head), body


@pytest.mark.parametrize("corrupt, message", [
    (_drop_key, "missing key 'ids'"),
    (_format_v1, "rebuild it with `eventlink index`"),
    (_format_v2, "rebuild it with `eventlink index`"),
    (_old_version_header, "index format_version 2 is not supported; rebuild it with `eventlink index`"),
    (_float_version, "index format_version 3.0 is not supported; rebuild it with `eventlink index`"),
    (_bool_in_shape, "matrix shape [10, True] is not a pair of sizes"),
    (_shape_vs_ids, "shape [10, 16] does not hold one row per id for 9 ids"),
    (_shape_vs_bytes, "shape [10, 17] needs 1360 bytes, found 1280"),
    (_non_finite, "non-finite"),
    (_truncated_body, "shape [10, 16] needs 1280 bytes, found 1272"),
    (_empty, "no index header line; rebuild it with `eventlink index`"),
    (_no_newline, "no index header line; rebuild it with `eventlink index`"),
    (_ids([1, None]), "index ids must be a JSON list of strings"),
    (_ids([1, 1]), "index ids must be a JSON list of strings"),
    (_ids(["a", "a"]), "duplicate entry id 'a'"),
    (_ids("ab"), "index ids must be a JSON list of strings"),
], ids=["missing-key", "format-v1", "format-v2", "old-version-header", "float-version",
        "bool-in-shape", "shape-vs-ids",
        "shape-vs-bytes", "non-finite", "truncated-body", "empty", "no-newline",
        "int-and-null-ids", "repeated-int-ids", "repeated-string-ids", "string-ids"])
def test_malformed_index_is_data_error_naming_file(dense_stack, tmp_path, capsys, corrupt, message):
    bad = tmp_path / "bad-index.json"
    bad.write_bytes(corrupt(*_index_parts(dense_stack["index.json"])))
    responses, out = tmp_path / "responses.jsonl", tmp_path / "c.jsonl"
    write_jsonl(responses, [{"completion": "NIL"}])
    retrieve = ["retrieve", "--index", str(bad), "--queries", dense_stack["tagged.jsonl"],
                "--encoder", dense_stack["encoder.json"], "--k", "3", "--out", str(out)]
    link = ["link", "--kb", dense_stack["kb.jsonl"], "--queries", dense_stack["tagged.jsonl"],
            "--index", str(bad), "--encoder", dense_stack["encoder.json"], "--rule", "llm",
            "--responses", str(responses), "--out", str(out)]
    for argv in (retrieve, link):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2, err
        assert str(bad) in err and message in err
        assert not out.exists()


def _link_llm(stack, tmp_path, extra):
    responses = tmp_path / "responses.jsonl"
    tagged = read_records(stack["tagged.jsonl"], dict)
    write_jsonl(responses, [{"completion": "The passage should be labeled as NIL."}] * len(tagged))
    out = tmp_path / "llm.jsonl"
    code = main(["link", "--kb", stack["kb.jsonl"], "--queries", stack["tagged.jsonl"],
                 "--index", stack["index.json"], "--encoder", stack["encoder.json"],
                 "--rule", "llm", "--responses", str(responses), "--out", str(out), *extra])
    return code, out


def test_allow_nil_from_config(dense_stack, tmp_path):
    config = tmp_path / "run.ini"
    config.write_text("[link]\nallow-nil = yes\n", encoding="utf-8")
    code, out = _link_llm(dense_stack, tmp_path, ["--config", str(config)])
    assert code == 0
    manifest, decisions = read_manifest(out), read_records(out, dict)
    assert manifest["config"]["allow_nil"] is True
    assert all(d["prediction"] == "NIL" and d.get("note") is None for d in decisions)
    config.write_text("[link]\nallow-nil = maybe\n", encoding="utf-8")
    assert _link_llm(dense_stack, tmp_path, ["--config", str(config)])[0] == 1


def test_allow_nil_flag_wins_over_config(dense_stack, tmp_path):
    config = tmp_path / "run.ini"
    config.write_text("[link]\nallow-nil = off\n", encoding="utf-8")
    code, out = _link_llm(dense_stack, tmp_path, ["--config", str(config)])
    assert code == 0
    manifest, decisions = read_manifest(out), read_records(out, dict)
    assert manifest["config"]["allow_nil"] is False
    assert all(d["note"].startswith("parse_failure") for d in decisions)
    code, out = _link_llm(dense_stack, tmp_path, ["--config", str(config), "--allow-nil"])
    assert code == 0
    manifest, decisions = read_manifest(out), read_records(out, dict)
    assert manifest["config"]["allow_nil"] is True
    assert all(d.get("note") is None for d in decisions)


def test_build_kb_normalizes_and_embeds_manifest(toy_inputs, tmp_path):
    out = tmp_path / "kb.jsonl"
    assert main(["build-kb", "--in", toy_inputs["kb"], "--out", str(out)]) == 0
    manifest, records = read_manifest(out), read_records(out, dict)
    assert manifest["command"] == "build-kb"
    assert "sha256" in manifest["inputs"]["kb"]
    assert len(records) == 10


def test_build_kb_rejects_duplicates(tmp_path, capsys):
    source = tmp_path / "bad.jsonl"
    write_jsonl(
        source,
        [
            {"id": "E1", "title": "x", "description": "d"},
            {"id": "E1", "title": "y", "description": "d"},
        ],
    )
    out = tmp_path / "out.jsonl"
    assert main(["build-kb", "--in", str(source), "--out", str(out)]) == 2
    assert "E1" in capsys.readouterr().err
    assert not out.exists()


def _refuse_entry(*args):
    raise AssertionError("built a KBEntry")


def test_build_kb_writes_the_columns_without_building_entries(toy_inputs, tmp_path, monkeypatch):
    monkeypatch.setattr(kb_module, "KBEntry", _refuse_entry)
    out = tmp_path / "kb.jsonl"
    assert main(["build-kb", "--in", toy_inputs["kb"], "--out", str(out)]) == 0
    assert read_records(out, dict) == read_records(toy_inputs["kb"], dict)


def test_build_kb_refuses_a_manifest_line_past_line_1(tmp_path, capsys):
    # once skipped, so this KB loaded as ('E1', 'E2') and build-kb exited 0
    source = tmp_path / "kb.jsonl"
    write_jsonl(source, [{"id": "E1", "title": "x", "description": "d"},
                         {"_manifest": {"command": "build-kb"}},
                         {"id": "E2", "title": "y", "description": "d"}])
    out = tmp_path / "out.jsonl"
    assert main(["build-kb", "--in", str(source), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"data error: {source}: manifest header at line 2,"
                                       " not line 1\n")
    assert not out.exists()


def test_missing_input_names_path(tmp_path, capsys):
    missing = tmp_path / "nope.jsonl"
    code = main(
        ["retrieve", "--index", str(missing), "--queries", str(missing),
         "--encoder", str(missing), "--out", str(tmp_path / "o.jsonl")]
    )
    assert code == 2
    assert "nope.jsonl" in capsys.readouterr().err


def test_cli_does_not_import_the_toy_corpus():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    code = "import sys, eventlink.cli; print('eventlink.toy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60, check=True)
    assert proc.stdout.strip() == "False"


def test_usage_error_exit_code(capsys):
    assert main(["format", "--in", "x", "--out", "y", "--bogus-flag", "1"]) == 1


def test_unknown_style_is_usage_error(toy_inputs, tmp_path, capsys):
    tagged = tmp_path / "tagged.jsonl"
    assert main(
        ["tag", "--in", toy_inputs["train"], "--out", str(tagged),
         "--extractor", "rule", "--lexicon", toy_inputs["lexicon"]]
    ) == 0
    code = main(["format", "--in", str(tagged), "--out", str(tmp_path / "f.jsonl"), "--style", "bogus"])
    assert code == 1


def test_tag_output_schema(toy_inputs, tmp_path):
    out = tmp_path / "tagged.jsonl"
    assert main(
        ["tag", "--in", toy_inputs["train"], "--out", str(out),
         "--extractor", "rule", "--lexicon", toy_inputs["lexicon"]]
    ) == 0
    records = read_records(out, dict)
    first = records[0]
    for field in ("query_id", "tokens", "mention_start", "mention_end",
                  "pos", "gold", "event_type", "arguments"):
        assert field in first
    assert len(first["arguments"]) >= 2


def test_format_styles(toy_inputs, tmp_path):
    tagged = tmp_path / "tagged.jsonl"
    main(["tag", "--in", toy_inputs["train"], "--out", str(tagged),
          "--extractor", "rule", "--lexicon", toy_inputs["lexicon"]])
    for style in ("blink", "evelink", "args"):
        out = tmp_path / f"{style}.jsonl"
        assert main(["format", "--in", str(tagged), "--out", str(out), "--style", style]) == 0
        records = read_records(out, dict)
        assert records[0]["format"] == style
        assert "[M_s]" in records[0]["tokens"]


def test_full_pipeline_smoke(tmp_path):
    paths = run_toy_pipeline(tmp_path / "run")
    manifest, report = read_json(paths["report_learned_nil"])
    for field in ("accuracy_all", "accuracy_verb", "accuracy_noun",
                  "accuracy_in_kb", "accuracy_out_of_kb", "recall_at",
                  "counts", "dataset_fingerprint"):
        assert field in report
    assert report["counts"]["all"] == 10
    assert manifest["command"] == "eval"
    negatives = read_records(paths["negatives"], dict)
    assert len(negatives) == 10
    log = read_records(paths["genlog"], dict)
    assert all(r["status"] == "accepted" for r in log)


def test_eval_lineage_mismatch(tmp_path):
    paths = run_toy_pipeline(tmp_path / "run", bi_epochs=2, cross_epochs=1, train_negatives=2)
    code = main(
        ["eval", "--preds", paths["decisions_learned_nil"], "--gold", paths["train_tagged"],
         "--out", str(tmp_path / "bad.json")]
    )
    assert code == 2


def test_eval_checks_lineage_of_a_header_split_by_a_bare_carriage_return(small_run, tmp_path,
                                                                         capsys):
    # "\r" is JSON whitespace, so iter_jsonl skips line 1 as the header and eval must read it
    lines = open(small_run["decisions_learned_nil"], "rb").read().split(b"\n")
    manifest = json.loads(lines[0])["_manifest"]
    manifest["inputs"]["queries"]["sha256"] = file_digest(small_run["train_tagged"])
    lines[0] = b'{"_manifest":\r' + json.dumps(manifest).encode("utf-8") + b"}"
    preds, report = tmp_path / "preds.jsonl", tmp_path / "r.json"
    preds.write_bytes(b"\n".join(lines))
    code = main(["eval", "--preds", str(preds), "--gold", small_run["eval_tagged"],
                 "--out", str(report)])
    assert (code, capsys.readouterr().err) == (2, "data error: lineage mismatch: predictions were "
                                                  "linked against a different queries file\n")
    assert not report.exists()


@pytest.mark.parametrize("header", [5, {"inputs": []}, {"inputs": {"queries": "x"}}],
                         ids=["int", "list-inputs", "str-queries"])
def test_eval_malformed_preds_manifest_is_data_error(small_run, tmp_path, capsys, header):
    preds = tmp_path / "preds.jsonl"
    decisions = read_records(small_run["decisions_learned_nil"], dict)
    write_jsonl(preds, [{"_manifest": header}, *decisions])
    report = tmp_path / "r.json"
    code = main(["eval", "--preds", str(preds), "--gold", small_run["test_tagged"],
                 "--out", str(report)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert str(preds) in err
    assert not report.exists()


@pytest.mark.parametrize("case", ["repeated", "unknown", "missing"])
def test_eval_candidates_not_one_per_in_kb_gold_is_data_error(small_run, tmp_path, capsys, case):
    records = read_records(small_run["candidates"], dict)
    first = records[0]["query_id"]
    records = {"repeated": [*records, records[0]],
               "unknown": [*records, dict(records[0], query_id="zzz")],
               "missing": records[1:]}[case]
    candidates = tmp_path / "candidates.jsonl"
    write_jsonl(candidates, records)
    report = tmp_path / "r.json"
    code = main(["eval", "--preds", small_run["decisions_learned_nil"],
                 "--gold", small_run["eval_tagged"], "--candidates", str(candidates),
                 "--out", str(report)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert repr("zzz" if case == "unknown" else first) in err
    assert f"{candidates}: " in err
    assert not report.exists()


@pytest.mark.parametrize("case", ["missing-decision", "unknown-decision", "repeated-decision",
                                  "repeated-gold"])
def test_eval_coverage_error_names_the_file_at_fault(small_run, tmp_path, capsys, case):
    # inputs written without manifests, so no lineage check runs first
    decisions = read_records(small_run["decisions_learned_nil"], dict)
    golds = read_records(small_run["test_tagged"], dict)
    preds, gold = tmp_path / "preds.jsonl", tmp_path / "gold.jsonl"
    write_jsonl(preds, {"missing-decision": decisions[1:],
                        "unknown-decision": [*decisions, dict(decisions[0], query_id="zzz")],
                        "repeated-decision": [*decisions, decisions[0]],
                        "repeated-gold": decisions}[case])
    write_jsonl(gold, [*golds, golds[0]] if case == "repeated-gold" else golds)
    report = tmp_path / "r.json"
    code = main(["eval", "--preds", str(preds), "--gold", str(gold), "--out", str(report)])
    err = capsys.readouterr().err
    assert code == 2, err
    at_fault, message = {
        "missing-decision": (preds, f"no decision for queries: [{decisions[0]['query_id']!r}]"),
        "unknown-decision": (preds, "decision for unknown query 'zzz'"),
        "repeated-decision": (preds, f"repeated decision for query {decisions[0]['query_id']!r}"),
        "repeated-gold": (gold, "duplicate query ids among golds"),
    }[case]
    assert f"{at_fault}: {message}" in err
    assert not report.exists()


def test_fingerprint_mismatch_between_index_and_encoder(tmp_path, capsys):
    paths = run_toy_pipeline(tmp_path / "run", bi_epochs=2, cross_epochs=1, train_negatives=2)
    other = tmp_path / "other-encoder.json"
    state = json.loads(open(paths["encoder"], encoding="utf-8").read())
    state["bias"][0] += 1.0
    other.write_text(json.dumps(state, sort_keys=True), encoding="utf-8")
    code = main(
        ["retrieve", "--index", paths["index"], "--queries", paths["test_tagged"],
         "--encoder", str(other), "--k", "3", "--out", str(tmp_path / "c.jsonl")]
    )
    assert code == 2
    assert "fingerprint" in capsys.readouterr().err


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """Every artifact of one short toy pipeline run; tests must not change them."""
    return run_toy_pipeline(tmp_path_factory.mktemp("run"), bi_epochs=2, cross_epochs=1,
                            train_negatives=2)


def test_index_with_json_dump_fingerprint_asks_for_rebuild(small_run, tmp_path, capsys):
    # before encoder fingerprints hashed array bytes, they hashed the canonical
    # JSON of the whole checkpoint state, every float included
    header, body = _index_parts(small_run["index"])
    header["encoder_fingerprint"] = json_digest(load_encoder(small_run["encoder"]).state_dict())
    old = tmp_path / "old-index.json"
    old.write_bytes(_framed(header, body))
    code = main(["retrieve", "--index", str(old), "--queries", small_run["test_tagged"],
                 "--encoder", small_run["encoder"], "--k", "3",
                 "--out", str(tmp_path / "c.jsonl")])
    err = capsys.readouterr().err
    assert code == 2
    assert str(old) in err and small_run["encoder"] in err and "rebuild" in err


# Written by the code that scored each query in its own call, before one
# batched call per run.
_LINK_GOLDEN = os.path.join(os.path.dirname(__file__), "data", "link_golden.jsonl")

_LINK_CASES = {
    "learned": ["--rule", "learned"],
    "threshold-conventional": ["--rule", "threshold", "--direction", "conventional"],
    "threshold-literal": ["--rule", "threshold", "--direction", "literal"],
}


def _link_decision_lines(run, directory):
    """Every decision record of ``link`` under each scoring rule, manifest excluded."""
    lines = []
    for case, rule in _LINK_CASES.items():
        out = os.path.join(directory, case + ".jsonl")
        assert main(["link", "--kb", run["kb_norm"], "--queries", run["test_tagged"],
                     "--index", run["index"], "--encoder", run["encoder"],
                     "--scorer", run["scorer"], *rule, "--out", out]) == 0
        lines += [json.dumps({"case": case, "decision": record}, sort_keys=True)
                  for record in read_records(out, dict)]
    return lines


def test_link_decisions_match_golden_file_byte_for_byte(small_run, tmp_path):
    lines = _link_decision_lines(small_run, str(tmp_path))
    assert len(lines) == len(_LINK_CASES) * 10
    with open(_LINK_GOLDEN, "rb") as fh:
        assert ("\n".join(lines) + "\n").encode("utf-8") == fh.read()


# Written by the code that retrieved for each query in its own call, before
# one blocked matrix product per query list.
_RETRIEVE_GOLDEN = os.path.join(os.path.dirname(__file__), "data", "retrieve_golden.jsonl")


def _dense_candidate_lines(run, directory):
    """Every dense ``retrieve`` record of the test queries at a short and a full depth."""
    lines = []
    for k in (3, 20):
        out = os.path.join(directory, f"k{k}.jsonl")
        assert main(["retrieve", "--index", run["index"], "--queries", run["test_tagged"],
                     "--encoder", run["encoder"], "--k", str(k), "--out", out]) == 0
        lines += [json.dumps({"k": k, "candidates": record}, sort_keys=True)
                  for record in read_records(out, dict)]
    return lines


def test_dense_candidates_match_golden_file_byte_for_byte(small_run, tmp_path):
    lines = _dense_candidate_lines(small_run, str(tmp_path))
    assert len(lines) == 2 * 10
    with open(_RETRIEVE_GOLDEN, "rb") as fh:
        assert ("\n".join(lines) + "\n").encode("utf-8") == fh.read()


# Written by the trainers that serialized each step's candidates, looked up
# token ids inside every step and updated the whole embedding table per step.
_TRAIN_GOLDEN = os.path.join(os.path.dirname(__file__), "data", "train_golden.json")


def _train_digests(run) -> dict:
    """sha256 of each trainer's checkpoint bytes and of its report without ``checkpoint_path``."""
    digests = {}
    for stage, checkpoint in (("train-bi", run["encoder"]), ("train-cross", run["scorer"])):
        _, report = read_json(checkpoint + ".report.json")
        del report["checkpoint_path"]  # the basename of the output path
        digests[stage] = {"checkpoint": file_digest(checkpoint), "report": json_digest(report)}
    return digests


def test_train_checkpoints_and_reports_match_golden_digests(tmp_path):
    # negatives pair 6 candidates and mining keeps 4, so cross steps mix both lengths;
    # argparse keeps the last --k
    stages = toy_fixture_stages(tmp_path)
    neg_gen, train_cross = (next(argv for argv in stages.prepare if argv[0] == command)
                            for command in ("neg-gen", "train-cross"))
    neg_gen += ["--k", "6"]
    train_cross += ["--k", "4"]
    run = run_stages(stages)
    with open(_TRAIN_GOLDEN, encoding="utf-8") as fh:
        assert _train_digests(run) == json.load(fh)


# Written by the code whose two coverage loops and five spellings of the
# accuracy fields came before one coverage check and one report schema.
_EVAL_GOLDEN = os.path.join(os.path.dirname(__file__), "data", "eval_golden.json")


def _eval_documents(run) -> bytes:
    """Each rule's ``eval`` document and the ``report`` comparison, as canonical bytes.

    Manifests record temporary paths, so they and ``config_fingerprint``,
    the digest of a predictions manifest, are left out.
    """
    documents = {"eval": {}, "report": read_json(run["comparison"])[1]}
    for key, path in run.items():
        if key.startswith("report_"):
            document = read_json(path)[1]
            del document["config_fingerprint"]
            documents["eval"][key.removeprefix("report_")] = document
    return (json.dumps(documents, sort_keys=True, indent=1) + "\n").encode("utf-8")


def test_eval_and_report_documents_match_golden_file_byte_for_byte(small_run):
    with open(_EVAL_GOLDEN, "rb") as fh:
        assert _eval_documents(small_run) == fh.read()


def _train_bi_argv(run, out, *flags):
    return ["train-bi", "--kb", run["kb_norm"], "--queries", run["train_tagged"],
            "--epochs", "1", "--batch-size", "8", "--out", str(out), *flags]


@pytest.mark.parametrize("lr", ["nan", "inf", "-inf", "0", "-1"])
def test_non_finite_or_non_positive_learning_rate_is_data_error(small_run, tmp_path, capsys, lr):
    out = tmp_path / "encoder.json"
    code = main(_train_bi_argv(small_run, out, f"--lr={lr}"))
    err = capsys.readouterr().err
    assert code == 2, err
    assert "data error: learning rate must be positive and finite" in err
    assert not out.exists()


def test_diverging_training_run_is_data_error(small_run, tmp_path, capsys):
    out = tmp_path / "encoder.json"
    code = main(_train_bi_argv(small_run, out, "--lr", "1e308"))
    err = capsys.readouterr().err
    assert code == 2, err
    assert "data error: non-finite loss nan at epoch 0" in err
    assert not out.exists()


def test_train_cross_duplicate_query_id_is_data_error_naming_file_and_line(small_run, tmp_path,
                                                                           capsys):
    # mined candidates are keyed by query_id, so a second query under the
    # first one's id would take the first one's candidates
    queries = read_records(small_run["train_tagged"], dict)
    first = queries[0]
    other = next(q for q in queries if q["gold"] not in ("NIL", first["gold"]))
    bad = tmp_path / "queries.jsonl"
    write_jsonl(bad, [*queries, dict(other, query_id=first["query_id"])])
    out = tmp_path / "scorer.json"
    code = main(["train-cross", "--kb", small_run["kb_norm"], "--queries", str(bad),
                 "--index", small_run["index"], "--encoder", small_run["encoder"],
                 "--k", "1", "--epochs", "1", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2, err
    line = len(queries) + 1
    assert f"data error: {bad}: line {line}: duplicate query_id {first['query_id']!r}" in err
    assert not out.exists()


def test_negative_paired_with_unknown_candidate_is_data_error(small_run, tmp_path, capsys):
    negatives = read_records(small_run["negatives"], dict)
    negatives[1]["paired_candidate_ids"][0] = "NOPE"
    bad = tmp_path / "negatives.jsonl"
    write_jsonl(bad, negatives)
    out = tmp_path / "scorer.json"
    code = main(["train-cross", "--kb", small_run["kb_norm"], "--queries", small_run["train_tagged"],
                 "--negatives", str(bad), "--index", small_run["index"],
                 "--encoder", small_run["encoder"], "--epochs", "1", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert str(bad) in err and "line 2" in err and "NOPE" in err
    assert not out.exists()


def test_train_cross_checks_paired_ids_without_building_entries(small_run, tmp_path, capsys,
                                                                 monkeypatch):
    # line 1 pairs known ids, which were once checked by building and dropping their entries
    negatives = read_records(small_run["negatives"], dict)
    assert negatives[0]["paired_candidate_ids"]
    negatives[1]["paired_candidate_ids"][0] = "NOPE"
    bad = tmp_path / "negatives.jsonl"
    write_jsonl(bad, negatives)
    monkeypatch.setattr(kb_module, "KBEntry", _refuse_entry)
    code = main(["train-cross", "--kb", small_run["kb_norm"], "--queries", small_run["train_tagged"],
                 "--negatives", str(bad), "--index", small_run["index"],
                 "--encoder", small_run["encoder"], "--epochs", "1", "--out", str(tmp_path / "s")])
    assert (code, capsys.readouterr().err) == (
        2, f"data error: {bad}: line 2: candidate id 'NOPE' not found in the KB\n")


def test_train_bi_gold_not_in_kb_is_data_error(small_run, tmp_path, capsys):
    # the first query, in file order, whose gold the KB lacks is named
    queries = read_records(small_run["train_tagged"], dict)
    queries[3]["gold"], queries[5]["gold"] = "NOPE", "ALSO_NOPE"
    bad = tmp_path / "train.jsonl"
    write_jsonl(bad, queries)
    out = tmp_path / "encoder.json"
    code = main(["train-bi", "--kb", small_run["kb_norm"], "--queries", str(bad),
                 "--out", str(out)])
    assert (code, capsys.readouterr().err) == (
        2, f"data error: query {queries[3]['query_id']!r}: gold 'NOPE' not in KB\n")
    assert not out.exists()


def test_training_and_linking_build_no_entry(small_run, tmp_path, monkeypatch):
    # below the CLI, candidates travel as KB rows and are read from the KB's columns
    monkeypatch.setattr(kb_module, "KBEntry", _refuse_entry)
    stack = ["--kb", small_run["kb_norm"], "--index", small_run["index"],
             "--encoder", small_run["encoder"]]
    assert main(_train_bi_argv(small_run, tmp_path / "encoder.json")) == 0
    assert main(["train-cross", *stack, "--queries", small_run["train_tagged"],
                 "--negatives", small_run["negatives"], "--epochs", "1",
                 "--out", str(tmp_path / "scorer.json")]) == 0
    link = ["link", *stack, "--queries", small_run["test_tagged"]]
    for rule in ("learned", "threshold"):
        assert main([*link, "--rule", rule, "--scorer", small_run["scorer"],
                     "--out", str(tmp_path / f"{rule}.jsonl")]) == 0, rule
    # a completion that names no candidate title, so parsing reads every title
    responses = tmp_path / "responses.jsonl"
    tagged = read_records(small_run["test_tagged"], dict)
    write_jsonl(responses, [{"completion": "Document 1: no such title"}] * len(tagged))
    assert main([*link, "--rule", "llm", "--responses", str(responses),
                 "--out", str(tmp_path / "llm.jsonl")]) == 0
    notes = {d["note"] for d in read_records(tmp_path / "llm.jsonl", dict)}
    assert notes == {"parse_failure: unknown title"}


@pytest.mark.parametrize("ks", ["0,-3,5", "5,0", "-1", "10,10"])
@pytest.mark.parametrize("via", ["flag", "config"])
def test_eval_recall_depth_below_one_is_usage_error(small_run, tmp_path, capsys, ks, via):
    report = tmp_path / "r.json"
    argv = ["eval", "--preds", small_run["decisions_learned_nil"], "--gold",
            small_run["eval_tagged"], "--candidates", small_run["candidates"],
            "--out", str(report)]
    assert main([*argv, "--ks", "1,5"]) == 0
    report.unlink()
    if via == "flag":
        argv += [f"--ks={ks}"]
    else:
        config = tmp_path / "run.ini"
        config.write_text(f"[eval]\nks = {ks}\n", encoding="utf-8")
        argv += ["--config", str(config)]
    assert main(argv) == 1
    assert ks in capsys.readouterr().err
    assert not report.exists()


def test_degenerate_nil_embedding_is_data_error(tmp_path, capsys):
    paths = run_toy_pipeline(tmp_path / "run", bi_epochs=2, cross_epochs=1, train_negatives=2)
    scorer = tmp_path / "zero-nil-scorer.json"
    state = json.loads(open(paths["scorer"], encoding="utf-8").read())
    state["nil"] = [0.0] * len(state["nil"])
    scorer.write_text(json.dumps(state, sort_keys=True), encoding="utf-8")
    code = main(
        ["link", "--kb", paths["kb_norm"], "--queries", paths["test_tagged"],
         "--index", paths["index"], "--encoder", paths["encoder"], "--scorer", str(scorer),
         "--rule", "learned", "--out", str(tmp_path / "d.jsonl")]
    )
    assert code == 2
    assert "zero norm" in capsys.readouterr().err


def test_failed_command_leaves_no_partial_output(toy_inputs, tmp_path):
    out = tmp_path / "never.jsonl"
    code = main(
        ["tag", "--in", toy_inputs["kb"], "--out", str(out),
         "--extractor", "rule", "--lexicon", toy_inputs["lexicon"]]
    )  # KB records are not query records
    assert code == 2
    assert not out.exists()


def test_config_file_supplies_defaults_and_flags_win(toy_inputs, tmp_path):
    tagged = tmp_path / "tagged.jsonl"
    main(["tag", "--in", toy_inputs["train"], "--out", str(tagged),
          "--extractor", "rule", "--lexicon", toy_inputs["lexicon"]])
    config = tmp_path / "run.ini"
    config.write_text("[format]\nstyle = blink\n", encoding="utf-8")
    out = tmp_path / "fmt.jsonl"
    assert main(["format", "--in", str(tagged), "--out", str(out), "--config", str(config)]) == 0
    records = read_records(out, dict)
    assert records[0]["format"] == "blink"
    assert read_manifest(out)["config"]["style"] == "blink"
    out2 = tmp_path / "fmt2.jsonl"
    assert main(
        ["format", "--in", str(tagged), "--out", str(out2),
         "--config", str(config), "--style", "args"]
    ) == 0
    records2 = read_records(out2, dict)
    assert records2[0]["format"] == "args"


def test_neg_gen_prune_style(toy_inputs, tmp_path):
    tagged = tmp_path / "tagged.jsonl"
    main(["tag", "--in", toy_inputs["train"], "--out", str(tagged),
          "--extractor", "rule", "--lexicon", toy_inputs["lexicon"]])
    out = tmp_path / "pruned.jsonl"
    assert main(
        ["neg-gen", "--queries", str(tagged), "--style", "prune",
         "--prune-fraction", "0.1", "--seed", "3", "--out", str(out)]
    ) == 0
    manifest, records = read_manifest(out), read_records(out, dict)
    pruned = set(manifest["config"]["pruned_labels"])
    assert len(pruned) == 1  # ceil(0.1 * 10 unique labels)
    assert all(r["provenance"] == "kb_pruning" for r in records)
    assert all(r["generated"]["gold"] == "NIL" for r in records)
    assert {r["origin_query_id"] for r in records} == {
        q["query_id"] for q in read_records(tagged, dict) if q["gold"] in pruned
    }


def _neg_gen_train(stack, toy_inputs, tmp_path, *extra):
    """Run neg-gen on the tagged toy training queries; return the negatives and log paths."""
    tagged = tmp_path / "tagged.jsonl"
    assert main(["tag", "--in", toy_inputs["train"], "--out", str(tagged),
                 "--extractor", "rule", "--lexicon", toy_inputs["lexicon"]]) == 0
    out, log = tmp_path / "negs.jsonl", tmp_path / "genlog.jsonl"
    code = main(["neg-gen", "--queries", str(tagged), "--kb", stack["kb.jsonl"],
                 "--index", stack["index.json"], "--encoder", stack["encoder.json"],
                 "--seed", "1", "--k", "4", "--out", str(out), "--log", str(log), *extra])
    assert code == 0
    return out, log


def test_neg_gen_plain_style(dense_stack, toy_inputs, tmp_path):
    out, log = _neg_gen_train(dense_stack, toy_inputs, tmp_path, "--style", "plain",
                              "--count", "3")
    negatives, records = read_records(out, dict), read_records(log, dict)
    assert read_manifest(out)["config"]["style"] == "plain"
    assert len(negatives) == 3
    for negative in negatives:
        assert negative["provenance"] == "non_argument_aware"
        assert negative["generated"]["gold"] == "NIL"
        assert negative["generated"]["arguments"] == []
        assert len(negative["paired_candidate_ids"]) == 4
    assert [r["status"] for r in records] == ["accepted"] * 3
    assert all("<mention>" in r["passage_after_polish"] for r in records)
    assert all(r["plan_edit"] is None for r in records)


def test_neg_gen_records_the_kb_without_parsing_it(dense_stack, toy_inputs, tmp_path,
                                                   monkeypatch):
    def refuse(path):
        raise AssertionError(f"neg-gen parsed {path}")

    monkeypatch.setattr(cli, "load_kb", refuse)
    out, _ = _neg_gen_train(dense_stack, toy_inputs, tmp_path, "--style", "args", "--count", "2")
    assert len(read_records(out, dict)) == 2
    assert read_manifest(out)["inputs"]["kb"] == {
        "path": dense_stack["kb.jsonl"], "sha256": file_digest(dense_stack["kb.jsonl"])}


def test_neg_gen_count_below_zero_is_data_error(dense_stack, tmp_path, capsys):
    def neg_gen(count, out):
        return main(["neg-gen", "--queries", dense_stack["tagged.jsonl"],
                     "--kb", dense_stack["kb.jsonl"], "--index", dense_stack["index.json"],
                     "--encoder", dense_stack["encoder.json"], "--count", count,
                     "--out", str(out), "--log", str(out.with_suffix(".log"))])

    # once accepted: an empty negatives file whose manifest recorded count -3
    out = tmp_path / "negs.jsonl"
    assert neg_gen("-3", out) == 2
    assert capsys.readouterr().err == "data error: negative count -3\n"
    assert not out.exists() and not out.with_suffix(".log").exists()
    assert neg_gen("0", tmp_path / "none.jsonl") == 0
    assert read_records(tmp_path / "none.jsonl", dict) == []


def test_neg_gen_scripted_client_running_dry_skips_the_rest(dense_stack, toy_inputs, tmp_path):
    responses = tmp_path / "responses.jsonl"
    write_jsonl(responses, [{"completion": "New passage: a fleet <mention> sank </mention> ."}])
    out, log = _neg_gen_train(dense_stack, toy_inputs, tmp_path, "--style", "plain",
                              "--count", "3", "--client", "scripted",
                              "--responses", str(responses))
    negatives, records = read_records(out, dict), read_records(log, dict)
    # the origin where the script ran dry is logged once, and no later origin is tried
    accepted = [r for r in records if r["status"] == "accepted"]
    skipped = [r for r in records if r["status"] == "skipped"]
    assert len(accepted) == len(skipped) == 1 and len(records) == 2
    assert skipped[0]["reason"] == "scripted client has no completions left"
    assert skipped[0]["completion"] is None
    assert [n["origin_query_id"] for n in negatives] == [accepted[0]["origin_query_id"]]
    assert negatives[0]["generated"]["tokens"] == ["a", "fleet", "sank", "."]


def test_llm_link_rule_with_scripted_responses(tmp_path):
    paths = run_toy_pipeline(tmp_path / "run", bi_epochs=2, cross_epochs=1, train_negatives=2)
    tagged = read_records(paths["test_tagged"], dict)
    responses = tmp_path / "responses.jsonl"
    write_jsonl(
        responses,
        [{"completion": "The passage should be labeled as NIL."} for _ in tagged],
    )
    out = tmp_path / "llm-decisions.jsonl"
    assert main(
        ["link", "--kb", paths["kb_norm"], "--queries", paths["test_tagged"],
         "--index", paths["index"], "--encoder", paths["encoder"],
         "--rule", "llm", "--allow-nil", "--responses", str(responses),
         "--k", "10", "--out", str(out)]
    ) == 0
    decisions = read_records(out, dict)
    assert all(d["prediction"] == "NIL" for d in decisions)
    assert all(d["rule"] == "llm" for d in decisions)


def test_llm_link_with_k_other_than_ten_is_usage_error(tmp_path, capsys):
    # no input file exists: the option is refused before any input is read
    missing = {name: str(tmp_path / name) for name in ("kb", "queries", "index", "encoder", "responses")}
    out = tmp_path / "llm-decisions.jsonl"
    argv = ["link", *(f"--{name}={path}" for name, path in missing.items()),
            "--rule", "llm", "--k", "5", "--out", str(out)]
    assert main(argv) == 1
    assert "--k must be 10, not 5" in capsys.readouterr().err
    assert not out.exists()


def test_retrieve_bm25_baseline(toy_inputs, tmp_path):
    tagged = tmp_path / "tagged.jsonl"
    main(["tag", "--in", toy_inputs["test"], "--out", str(tagged),
          "--extractor", "rule", "--lexicon", toy_inputs["lexicon"]])
    out = tmp_path / "bm25.jsonl"
    assert main(
        ["retrieve", "--retriever", "bm25", "--kb", toy_inputs["kb"],
         "--queries", str(tagged), "--k", "5", "--out", str(out)]
    ) == 0
    records = read_records(out, dict)
    assert all(len(r["candidates"]) == 5 for r in records)


def test_retrieve_query_with_mention_wider_than_bm25_window(dense_stack, tmp_path):
    record = read_records(dense_stack["tagged.jsonl"], dict)[0]
    kb = read_records(dense_stack["kb.jsonl"], dict)
    # an 18-token mention, wider than BM25's 16-token window
    mention = (kb[0]["title"] + " " + kb[0]["description"]).split()[:18]
    assert len(mention) == 18
    record["mention_start"] = len(record["tokens"])
    record["tokens"] = record["tokens"] + mention
    record["mention_end"] = len(record["tokens"]) - 1
    queries = tmp_path / "wide.jsonl"
    write_jsonl(queries, [record])
    bm25, dense = tmp_path / "bm25.jsonl", tmp_path / "dense.jsonl"
    assert main(["retrieve", "--retriever", "bm25", "--kb", dense_stack["kb.jsonl"],
                 "--queries", str(queries), "--k", "3", "--out", str(bm25)]) == 0
    assert main(["retrieve", "--index", dense_stack["index.json"], "--queries", str(queries),
                 "--encoder", dense_stack["encoder.json"], "--k", "3",
                 "--out", str(dense)]) == 0
    for path in (bm25, dense):
        (candidates,) = read_records(path, dict)
        assert len(candidates["candidates"]) == 3


def test_report_command_compares_runs(tmp_path):
    paths = run_toy_pipeline(tmp_path / "run")
    second = tmp_path / "run" / "threshold-decisions.jsonl"
    assert main(
        ["link", "--kb", paths["kb_norm"], "--queries", paths["eval_tagged"],
         "--index", paths["index"], "--encoder", paths["encoder"],
         "--scorer", paths["scorer"], "--rule", "threshold", "--theta", "0.5",
         "--out", str(second)]
    ) == 0
    second_report = tmp_path / "run" / "threshold-report.json"
    assert main(
        ["eval", "--preds", str(second), "--gold", paths["eval_tagged"],
         "--out", str(second_report)]
    ) == 0
    comparison = tmp_path / "comparison.json"
    assert main(
        ["report", "--runs", paths["report_learned_nil"], str(second_report),
         "--out", str(comparison)]
    ) == 0
    _, payload = read_json(comparison)
    assert set(payload["rows"]) == {"learned_nil", "threshold-report"}
    assert "accuracy_all" in payload["best"]


# --- the option table ---------------------------------------------------------

def _link_argv(stack, out, *extra):
    return ["link", "--kb", stack["kb.jsonl"], "--queries", stack["tagged.jsonl"],
            "--index", stack["index.json"], "--encoder", stack["encoder.json"],
            "--out", str(out), *extra]


@pytest.mark.parametrize("section", [
    "[link]\nbogus = 1\n",
    "[link]\nk = ten\n",
    "[link]\nrule = bogus\n",
], ids=["unknown-key", "wrong-type", "outside-choices"])
def test_bad_config_value_is_usage_error(dense_stack, tmp_path, capsys, section):
    config = tmp_path / "run.ini"
    config.write_text(section, encoding="utf-8")
    out = tmp_path / "d.jsonl"
    assert main(_link_argv(dense_stack, out, "--config", str(config))) == 1
    assert str(config) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text", [
    "k = 3\n",
    "[link]\nk = 100%\n",
], ids=["no-section-header", "bad-interpolation"])
def test_malformed_config_file_is_data_error(dense_stack, tmp_path, capsys, text):
    config = tmp_path / "run.ini"
    config.write_text(text, encoding="utf-8")
    out = tmp_path / "d.jsonl"
    assert main(_link_argv(dense_stack, out, "--config", str(config))) == 2
    assert str(config) in capsys.readouterr().err
    assert not out.exists()


def test_unknown_rule_on_empty_queries_is_usage_error(dense_stack, tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    out = tmp_path / "d.jsonl"
    stack = dict(dense_stack, **{"tagged.jsonl": str(empty)})
    assert main(_link_argv(stack, out, "--rule", "bogus")) == 1
    assert not out.exists()


def test_bad_direction_and_ks_are_usage_errors(dense_stack, tmp_path):
    out = tmp_path / "d.jsonl"
    assert main(_link_argv(dense_stack, out, "--rule", "threshold", "--direction", "bogus")) == 1
    assert not out.exists()
    report = tmp_path / "r.json"
    code = main(["eval", "--preds", str(out), "--gold", dense_stack["tagged.jsonl"],
                 "--ks", "1,x", "--out", str(report)])
    assert code == 1
    assert not report.exists()


def test_manifest_records_every_default_typed(dense_stack, tmp_path):
    out = tmp_path / "c.jsonl"
    assert main(["retrieve", "--index", dense_stack["index.json"],
                 "--queries", dense_stack["tagged.jsonl"],
                 "--encoder", dense_stack["encoder.json"], "--out", str(out)]) == 0
    config = read_manifest(out)["config"]
    assert config["k"] == 10 and isinstance(config["k"], int)
    assert (config["retriever"], config["style"]) == ("dense", "args")
    assert set(config) == {"command", "encoder", "index", "k", "out", "queries", "retriever",
                           "style"}


def test_config_values_parse_like_flags(dense_stack, tmp_path):
    config = tmp_path / "run.ini"
    config.write_text("[retrieve]\nk = 3\nstyle = blink\n", encoding="utf-8")
    out = tmp_path / "c.jsonl"
    assert main(["retrieve", "--index", dense_stack["index.json"],
                 "--queries", dense_stack["tagged.jsonl"], "--encoder", dense_stack["encoder.json"],
                 "--config", str(config), "--out", str(out)]) == 0
    manifest, records = read_manifest(out), read_records(out, dict)
    assert (manifest["config"]["k"], manifest["config"]["style"]) == (3, "blink")
    assert all(len(r["candidates"]) == 3 for r in records)
    assert main(["retrieve", "--index", dense_stack["index.json"],
                 "--queries", dense_stack["tagged.jsonl"], "--encoder", dense_stack["encoder.json"],
                 "--config", str(config), "--k", "4", "--out", str(out)]) == 0
    manifest, records = read_manifest(out), read_records(out, dict)
    assert (manifest["config"]["k"], manifest["config"]["style"]) == (4, "blink")
    assert all(len(r["candidates"]) == 4 for r in records)


_COMMANDS = ("build-kb", "tag", "format", "train-bi", "index", "retrieve", "neg-gen",
             "train-cross", "link", "eval", "report")


@pytest.mark.parametrize("flag", ["--max-len", "--max-query-len", "--max-candidate-len",
                                  "--client-seed"])
@pytest.mark.parametrize("command", _COMMANDS)
def test_length_and_client_seed_flags_are_usage_errors(command, flag, tmp_path, capsys):
    out = tmp_path / "never.jsonl"
    assert main([command, flag, "12", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and f"unrecognized arguments: {flag} 12" in err
    assert not out.exists()


def test_config_setting_a_length_names_the_config_file(dense_stack, tmp_path, capsys):
    config = tmp_path / "run.ini"
    config.write_text("[retrieve]\nmax_query_len = 12\n", encoding="utf-8")
    out = tmp_path / "c.jsonl"
    assert main(["retrieve", "--index", dense_stack["index.json"],
                 "--queries", dense_stack["tagged.jsonl"], "--encoder", dense_stack["encoder.json"],
                 "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"{config} [retrieve]: unrecognized arguments: --max-query-len=12" in err
    assert not out.exists()


def _readme_commands():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    text = open(readme, encoding="utf-8").read()
    block = text.split("## Command-line pipeline", 1)[1].split("```")[1]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("eventlink ")]


def _choice_variants(argv):
    """One argv per alternative of every ``{a,b,c}`` placeholder."""
    for i, token in enumerate(argv):
        if token.startswith("{") and token.endswith("}"):
            return [variant
                    for choice in token[1:-1].split(",")
                    for variant in _choice_variants([*argv[:i], choice, *argv[i + 1:]])]
    return [argv]


def test_readme_commands_parse():
    commands = _readme_commands()
    assert {argv[0] for argv in commands} == set(_COMMANDS)
    parser = build_parser()
    for argv in commands:
        for variant in _choice_variants(argv):
            args = parser.parse_args(variant)
            assert args.command == variant[0]


# --- one subparser per run -------------------------------------------------------

# A representative command line per command, every option away from its default.
_ARGV = {
    "build-kb": ["--in", "kb.jsonl"],
    "tag": ["--in", "q.jsonl", "--extractor", "rule", "--lexicon", "lexicon.json"],
    "format": ["--in", "q.jsonl", "--style", "evelink"],
    "train-bi": ["--kb", "kb.jsonl", "--queries", "q.jsonl", "--style", "blink", "--dim", "8",
                 "--lr", "0.5", "--batch-size", "4", "--epochs", "3", "--seed", "2"],
    "index": ["--kb", "kb.jsonl", "--encoder", "encoder.json"],
    "retrieve": ["--kb", "kb.jsonl", "--queries", "q.jsonl", "--index", "index.json",
                 "--encoder", "encoder.json", "--retriever", "bm25", "--style", "blink", "--k", "3"],
    "neg-gen": ["--queries", "q.jsonl", "--style", "plain", "--count", "4", "--seed", "5",
                "--client", "scripted", "--responses", "r.jsonl", "--log", "log.jsonl", "--k", "2",
                "--prune-fraction", "0.25"],
    "train-cross": ["--kb", "kb.jsonl", "--queries", "q.jsonl", "--negatives", "n.jsonl",
                    "--k", "2", "--epochs", "1", "--lr", "0.01"],
    "link": ["--scorer", "s.json", "--rule", "threshold", "--theta", "0.25",
             "--direction", "literal", "--k", "4", "--style", "blink", "--allow-nil"],
    "eval": ["--preds", "p.jsonl", "--gold", "g.jsonl", "--candidates", "c.jsonl", "--ks", "1,3"],
    "report": ["--runs", "a.json", "b.json"],
}

# One section per command; each sets an option its command line above leaves alone,
# and one its command line overrides.
_CONFIG = """
[build-kb]
in = other.jsonl
[tag]
lexicon = other.json
extractor = rule
[format]
style = args
in = other.jsonl
[train-bi]
seed = 9
epochs = 7
[index]
encoder = other.json
kb = other.jsonl
[retrieve]
k = 7
index = other.json
[neg-gen]
kb = other.jsonl
count = 9
[train-cross]
dim = 16
k = 9
[link]
allow_nil = no
responses = other.jsonl
[eval]
ks = 2,4
[report]
runs = x.json
"""


@pytest.fixture
def stub_commands(monkeypatch):
    """Every ``cmd_*`` replaced by one that records its arguments; returns the record."""
    calls = []
    for name in _COMMANDS:
        monkeypatch.setattr(cli, "cmd_" + name.replace("-", "_"), calls.append)
    return calls


def _run_both(monkeypatch, capsys, argv):
    """``main(argv)`` as it runs, then with the every-command parser: ``[(code, out, err)] * 2``."""
    one_subparser = cli.build_parser
    built, outcomes = [], []

    def every_command(command=None):
        built.append(command)
        return one_subparser()

    for parser in (one_subparser, every_command):
        monkeypatch.setattr(cli, "build_parser", parser)
        try:
            code = main(argv)
        except SystemExit as exc:  # --help
            code = ("exit", exc.code)
        outcomes.append((code, *capsys.readouterr()))
    monkeypatch.setattr(cli, "build_parser", one_subparser)
    assert built == [argv[0] if argv else None]
    return outcomes


@pytest.mark.parametrize("command", _COMMANDS)
def test_one_subparser_parses_like_the_full_parser(command, tmp_path, monkeypatch, capsys,
                                                   stub_commands):
    parser = build_parser(command)
    assert parser.format_usage() == f"usage: eventlink [-h] {{{command}}} ...\n"
    config = tmp_path / "run.ini"
    config.write_text(_CONFIG, encoding="utf-8")
    argv = [command, *_ARGV[command], "--out", "out.jsonl"]
    for run in (argv, [command, "--config", str(config), *argv[1:]]):
        one, full = _run_both(monkeypatch, capsys, run)
        assert one == full and one[0] == 0 and one[2] == ""
    plain, from_config = stub_commands[0::2]
    assert stub_commands[1::2] == [plain, from_config]
    assert vars(plain) == vars(build_parser().parse_args(argv))
    assert plain.command == command and from_config != plain
    assert vars(from_config).items() >= {("config", str(config)), ("out", "out.jsonl")}


@pytest.mark.parametrize("tail", [
    [],                             # missing required option --out
    ["--out", "o", "--bogus", "1"],  # unknown option
    ["--out", "o", "--rule", "bogus"],
    ["--out", "o", "--k", "ten"],
], ids=["missing-required", "unknown-option", "bad-choice", "bad-type"])
def test_one_subparser_refuses_like_the_full_parser(tail, tmp_path, monkeypatch, capsys,
                                                    stub_commands):
    config = tmp_path / "run.ini"
    config.write_text("[link]\nk = ten\n", encoding="utf-8")
    for argv in (["link", *tail], ["retrieve", *tail], ["link", "--config", str(config), "--out", "o"]):
        one, full = _run_both(monkeypatch, capsys, argv)
        assert one == full
        assert one[0] == 1 and one[1] == "" and one[2].startswith("usage error: "), one
    assert stub_commands == []


def test_help_and_unknown_commands_build_every_subparser(monkeypatch, capsys, stub_commands):
    one, full = _run_both(monkeypatch, capsys, ["--help"])
    assert one == full and one[0] == ("exit", 0)
    assert "{" + ",".join(_COMMANDS) + "}" in one[1]
    for command in _COMMANDS:
        one, full = _run_both(monkeypatch, capsys, [command, "--help"])
        assert one == full and one[0] == ("exit", 0)
        assert one[1].startswith(f"usage: eventlink {command} [-h] [--config CONFIG] --out OUT")
    for argv, message in (([], "the following arguments are required: command"),
                          (["bogus"], "argument command: invalid choice: 'bogus' (choose from "
                                      + ", ".join(map(repr, _COMMANDS)) + ")"),
                          (["--out", "o"], "argument command: invalid choice: 'o' (choose from ")):
        one, full = _run_both(monkeypatch, capsys, argv)
        assert one == full and one[0] == 1 and one[2].startswith("usage error: " + message), one
    assert stub_commands == []


# --- checkpoints and scripted responses ------------------------------------------

def test_encoder_checkpoint_missing_key_is_data_error(dense_stack, tmp_path, capsys):
    state = json.loads(open(dense_stack["encoder.json"], encoding="utf-8").read())
    del state["vocab"]
    bad = tmp_path / "no-vocab.json"
    bad.write_text(json.dumps(state), encoding="utf-8")
    out = tmp_path / "index.json"
    assert main(["index", "--kb", dense_stack["kb.jsonl"], "--encoder", str(bad),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "'vocab'" in err
    assert not out.exists()


def test_checkpoint_of_another_kind_is_data_error(dense_stack, tmp_path, capsys):
    # and of another format_version, through the encoder of `index` and the scorer of `link`
    for command, wanted, other in (("index", TinyEncoder, TinyCrossScorer),
                                   ("link", TinyCrossScorer, TinyEncoder)):
        for fault, message in (("kind", f"checkpoint kind {other.kind!r}, expected {wanted.kind!r}"),
                               ("version", "checkpoint format_version 2 is not supported, expected 1")):
            state = (other if fault == "kind" else wanted)(["a", "b"], 4, seed=0).state_dict()
            if fault == "version":
                state["format_version"] = 2
            bad = tmp_path / f"{command}-{fault}.json"
            bad.write_text(json.dumps(state), encoding="utf-8")
            out = tmp_path / "out.jsonl"
            if command == "index":
                argv = ["index", "--kb", dense_stack["kb.jsonl"], "--encoder", str(bad),
                        "--out", str(out)]
            else:
                argv = _link_argv(dense_stack, out, "--scorer", str(bad))
            assert main(argv) == 2, (command, fault)
            assert f"{bad}: {message}" in capsys.readouterr().err
            assert not out.exists()


@pytest.mark.parametrize("vocab, message", [
    (["a", "b", "c"], "checkpoint vocab has no '[OOV]' token"),
    (["a", "a", "[OOV]"], "checkpoint vocab repeats the token 'a'"),
], ids=["no-oov", "repeated-token"])
def test_checkpoint_vocab_without_oov_or_with_a_repeat_is_data_error(dense_stack, tmp_path, capsys,
                                                                     vocab, message):
    state = TinyEncoder(["a", "b"], 4, seed=0).state_dict()
    assert len(state["embed"]) == len(vocab)
    state["vocab"] = vocab
    bad = tmp_path / "bad-vocab.json"
    bad.write_text(json.dumps(state), encoding="utf-8")
    out = tmp_path / "index.json"
    assert main(["index", "--kb", dense_stack["kb.jsonl"], "--encoder", str(bad),
                 "--out", str(out)]) == 2
    assert f"{bad}: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("field, value, message", [
    ("format_version", True, "checkpoint format_version True is not supported, expected 1"),
    ("dim", 4.9, "checkpoint dim 4.9 is not an integer of at least 2"),
    ("vocab", ["a", 7, "[OOV]"], "checkpoint vocab is not a list of strings"),
], ids=["format-version", "dim", "vocab"])
def test_checkpoint_field_that_is_no_json_integer_or_string_list_is_data_error(
        dense_stack, tmp_path, capsys, field, value, message):
    # each value loaded before: true == 1, int(4.9) == 4 with arrays 4 wide, and 7 as a token
    state = TinyEncoder(["a", "b"], 4, seed=0).state_dict()
    state[field] = value
    bad = tmp_path / "bad-field.json"
    bad.write_text(json.dumps(state), encoding="utf-8")
    out = tmp_path / "index.json"
    assert main(["index", "--kb", dense_stack["kb.jsonl"], "--encoder", str(bad),
                 "--out", str(out)]) == 2
    assert f"{bad}: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name, shape", [
    ("embed", [2, 4]), ("weight", [4, 3]), ("bias", [5]), ("nil", [3]), ("scale", [2]),
], ids=["embed", "weight", "bias", "nil", "scale"])
def test_checkpoint_array_of_wrong_shape_is_data_error(dense_stack, tmp_path, capsys, name, shape):
    # vocabulary a, b and [OOV] at dim 4: embed is (3, 4), weight (4, 4), bias and nil (4,)
    state = TinyCrossScorer(["a", "b"], 4, seed=0).state_dict()
    state[name] = np.zeros(shape).tolist()
    bad = tmp_path / "bad.json"
    out = tmp_path / "out.jsonl"
    if name in ("nil", "scale"):
        argv = _link_argv(dense_stack, out, "--scorer", str(bad))
    else:
        state = dict(state, kind="tiny")
        del state["nil"], state["scale"]
        argv = ["index", "--kb", dense_stack["kb.jsonl"], "--encoder", str(bad), "--out", str(out)]
    bad.write_text(json.dumps(state), encoding="utf-8")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and f"{name!r} has shape {shape}" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["retrieve", "link"])
def test_empty_queries_file_writes_manifest_only(dense_stack, tmp_path, command):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    stack = dict(dense_stack, **{"tagged.jsonl": str(empty)})
    out = tmp_path / "out.jsonl"
    scorer = tmp_path / "scorer.json"
    save_checkpoint(TinyCrossScorer(["a"], 16, seed=0), scorer)
    argv = {"retrieve": ["retrieve", "--index", stack["index.json"], "--queries", str(empty),
                         "--encoder", stack["encoder.json"], "--out", str(out)],
            "link": _link_argv(stack, out, "--scorer", str(scorer))}[command]
    assert main(argv) == 0
    assert read_manifest(out)["command"] == command
    assert read_records(out, dict) == []


def _cut(path, tmp_path, fraction=0.5):
    data = open(path, "rb").read()
    bad = tmp_path / ("cut-" + os.path.basename(path))
    bad.write_bytes(data[: int(len(data) * fraction)])
    return str(bad)


@pytest.mark.parametrize("case", ["truncated kb", "manifest-only kb", "truncated encoder",
                                  "truncated queries", "truncated index"])
def test_unreadable_input_is_data_error_naming_file(dense_stack, tmp_path, capsys, case):
    stack = dict(dense_stack)
    if case == "manifest-only kb":
        bad = stack["kb.jsonl"] = str(tmp_path / "only.jsonl")
        with open(bad, "w", encoding="utf-8") as fh:
            fh.write(open(dense_stack["kb.jsonl"], encoding="utf-8").readline())
    else:
        name = {"truncated kb": "kb.jsonl", "truncated encoder": "encoder.json",
                "truncated queries": "tagged.jsonl", "truncated index": "index.json"}[case]
        bad = stack[name] = _cut(dense_stack[name], tmp_path)
    out = tmp_path / "c.jsonl"
    code = main(["retrieve", "--kb", stack["kb.jsonl"], "--queries", stack["tagged.jsonl"],
                 "--index", stack["index.json"], "--encoder", stack["encoder.json"],
                 "--retriever", "bm25" if "kb" in case else "dense", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert bad in err
    assert not out.exists()


def _without(record, key):
    return {k: v for k, v in record.items() if k != key}


@pytest.mark.parametrize("case", [
    "query format", "query tag", "negatives", "decisions", "candidates", "report list",
    "report recall_at", "report keys", "lexicon list", "lexicon json", "lexicon utf-8",
    "directory kb", "directory lexicon",
])
def test_malformed_input_is_data_error_naming_file_and_line(toy_inputs, dense_stack, tmp_path,
                                                            capsys, case):
    query = read_records(dense_stack["tagged.jsonl"], dict)[0]
    decision = {"query_id": query["query_id"], "prediction": "NIL", "scores": [0.0],
                "rule": "learned"}
    gold = ["--gold", dense_stack["tagged.jsonl"]]
    kind, _, variant = case.partition(" ")
    bad, line = tmp_path / "bad.jsonl", None
    if kind == "query":
        write_jsonl(bad, [query, _without(query, "mention_start")])
        line = 2
        argv = (["format", "--in", str(bad)] if variant == "format" else
                ["tag", "--in", str(bad), "--lexicon", toy_inputs["lexicon"]])
    elif kind == "negatives":
        write_jsonl(bad, [{"origin_query_id": "q", "paired_candidate_ids": [],
                           "provenance": "kb_pruning"}])
        line = 1
        argv = ["train-cross", "--kb", dense_stack["kb.jsonl"],
                "--queries", dense_stack["tagged.jsonl"], "--index", dense_stack["index.json"],
                "--encoder", dense_stack["encoder.json"], "--negatives", str(bad)]
    elif kind == "decisions":
        write_jsonl(bad, [decision, _without(decision, "prediction")])
        line = 2
        argv = ["eval", "--preds", str(bad), *gold]
    elif kind == "candidates":
        preds = tmp_path / "preds.jsonl"
        write_jsonl(preds, [decision])
        write_jsonl(bad, [{"query_id": query["query_id"]}])
        line = 1
        argv = ["eval", "--preds", str(preds), *gold, "--candidates", str(bad)]
    elif kind == "report":
        bad.write_text({"list": "[]", "recall_at": '{"recall_at": []}', "keys": '{"runs": 1}'}[variant],
                       encoding="utf-8")
        argv = ["report", "--runs", str(bad)]
    elif kind == "lexicon":
        bad.write_bytes({"list": b"[]", "json": b'{"roles": ',
                         "utf-8": b'{"roles": {"\xff": "Agent"}}'}[variant])
        argv = ["tag", "--in", toy_inputs["test"], "--lexicon", str(bad)]
    else:  # a directory given where a file is expected
        bad.mkdir()
        argv = (["build-kb", "--in", str(bad)] if variant == "kb" else
                ["tag", "--in", toy_inputs["test"], "--lexicon", str(bad)])
    out = tmp_path / "out.json"
    code = main([*argv, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert str(bad) in err
    if line is not None:
        assert f"line {line}" in err, err
    assert not out.exists()


def test_llm_link_out_of_responses_keeps_nil_decisions(dense_stack, tmp_path):
    tagged = read_records(dense_stack["tagged.jsonl"], dict)
    responses = tmp_path / "responses.jsonl"
    write_jsonl(responses, [{"completion": "The passage should be labeled as NIL."}])
    out = tmp_path / "llm.jsonl"
    code = main(_link_argv(dense_stack, out, "--rule", "llm", "--allow-nil",
                           "--responses", str(responses)))
    assert code == 0
    decisions = read_records(out, dict)
    assert len(decisions) == len(tagged) > 1
    assert decisions[0].get("note") is None
    assert all(d["prediction"] == "NIL" for d in decisions)
    assert all(d["note"].startswith("transport_failure:") for d in decisions[1:])


def test_train_bi_evelink_vocab_has_sep(toy_inputs, tmp_path):
    kb, tagged, out = (str(tmp_path / n) for n in ("kb.jsonl", "tagged.jsonl", "enc.json"))
    assert main(["build-kb", "--in", toy_inputs["kb"], "--out", kb]) == 0
    assert main(["tag", "--in", toy_inputs["train"], "--out", tagged,
                 "--extractor", "rule", "--lexicon", toy_inputs["lexicon"]]) == 0
    assert main(["train-bi", "--kb", kb, "--queries", tagged, "--style", "evelink",
                 "--epochs", "1", "--batch-size", "4", "--dim", "8", "--out", out]) == 0
    assert "[SEP]" in read_json(out)[1]["vocab"]


def _bad_responses(tmp_path):
    responses = tmp_path / "responses.jsonl"
    write_jsonl(responses, [{"completion": "fine"}, {"text": "no completion"}])
    return responses


def test_link_malformed_responses_is_data_error(dense_stack, tmp_path, capsys):
    responses = _bad_responses(tmp_path)
    out = tmp_path / "d.jsonl"
    code = main(_link_argv(dense_stack, out, "--rule", "llm", "--responses", str(responses)))
    assert code == 2
    err = capsys.readouterr().err
    assert str(responses) in err and "line 2" in err
    assert not out.exists()


def test_neg_gen_malformed_responses_is_data_error(dense_stack, tmp_path, capsys):
    responses = _bad_responses(tmp_path)
    out = tmp_path / "negs.jsonl"
    code = main(["neg-gen", "--queries", dense_stack["tagged.jsonl"], "--kb", dense_stack["kb.jsonl"],
                 "--index", dense_stack["index.json"], "--encoder", dense_stack["encoder.json"],
                 "--client", "scripted", "--responses", str(responses), "--count", "2",
                 "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert str(responses) in err and "line 2" in err
    assert not out.exists()


def test_kb_pruning_negatives_train_cross_and_link(tmp_path):
    paths = run_toy_pipeline(tmp_path / "run", bi_epochs=2, cross_epochs=1, train_negatives=2)
    pruned = tmp_path / "pruned.jsonl"
    assert main(["neg-gen", "--queries", paths["train_tagged"], "--style", "prune",
                 "--prune-fraction", "0.2", "--out", str(pruned)]) == 0
    manifest, negatives = read_manifest(pruned), read_records(pruned, dict)
    assert len(manifest["config"]["pruned_labels"]) == 4
    assert negatives
    scorer = tmp_path / "pruned-scorer.json"
    assert main(["train-cross", "--kb", paths["kb_norm"], "--queries", paths["train_tagged"],
                 "--negatives", str(pruned), "--index", paths["index"],
                 "--encoder", paths["encoder"], "--out", str(scorer), "--dim", "32",
                 "--lr", "0.1", "--batch-size", "8", "--epochs", "1"]) == 0
    decisions = tmp_path / "d.jsonl"
    assert main(["link", "--kb", paths["kb_norm"], "--queries", paths["test_tagged"],
                 "--index", paths["index"], "--encoder", paths["encoder"],
                 "--scorer", str(scorer), "--out", str(decisions)]) == 0
    records = read_records(decisions, dict)
    assert len(records) == 10
