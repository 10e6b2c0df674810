import base64
import json
import os
import shlex

import numpy as np
import pytest

from eventlink.artifacts import json_digest, read_json, read_manifest, read_records
from eventlink.cli import build_parser, main
from eventlink.encoders import HashingEncoder, load_encoder, save_encoder
from eventlink.rerank import TinyCrossScorer
from eventlink.toy import build_toy_data, write_toy_inputs

from conftest import write_jsonl
from pipeline import run_toy_pipeline


@pytest.fixture(scope="module")
def toy_inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("inputs")
    data = build_toy_data(n_entries=10, n_train=30, n_test=5, seed=7)
    return write_toy_inputs(directory, data)


@pytest.fixture(scope="module")
def dense_stack(toy_inputs, tmp_path_factory):
    """A KB, tagged test queries, a hashing encoder and its dense index."""
    directory = tmp_path_factory.mktemp("dense")
    paths = {name: str(directory / name) for name in
             ("kb.jsonl", "tagged.jsonl", "encoder.json", "index.json")}
    assert main(["build-kb", "--in", toy_inputs["kb"], "--out", paths["kb.jsonl"]]) == 0
    assert main(["tag", "--in", toy_inputs["test"], "--out", paths["tagged.jsonl"],
                 "--extractor", "rule", "--lexicon", toy_inputs["lexicon"]]) == 0
    save_encoder(HashingEncoder(16, seed=3), paths["encoder.json"])
    assert main(["index", "--kb", paths["kb.jsonl"], "--encoder", paths["encoder.json"],
                 "--out", paths["index.json"]]) == 0
    return paths


def _drop_key(doc):
    del doc["ids"]


def _format_v1(doc):
    raw = base64.b64decode(doc["matrix"]["base64"])
    rows = np.frombuffer(raw, dtype="<f8").reshape(doc["matrix"]["shape"])
    doc["format_version"] = 1
    doc["matrix"] = rows.tolist()


def _shape_vs_ids(doc):
    doc["ids"] = doc["ids"][:-1]


def _shape_vs_bytes(doc):
    doc["matrix"]["shape"][1] += 1


def _non_finite(doc):
    rows = np.frombuffer(base64.b64decode(doc["matrix"]["base64"]), dtype="<f8").copy()
    rows[3] = np.nan
    doc["matrix"]["base64"] = base64.b64encode(rows.tobytes()).decode("ascii")


@pytest.mark.parametrize("corrupt, message", [
    (_drop_key, "missing key 'ids'"),
    (_format_v1, "rebuild it with `eventlink index`"),
    (_shape_vs_ids, "shape [10, 16] does not hold one row per id for 9 ids"),
    (_shape_vs_bytes, "shape [10, 17] needs 1360 bytes, found 1280"),
    (_non_finite, "non-finite"),
], ids=["missing-key", "format-v1", "shape-vs-ids", "shape-vs-bytes", "non-finite"])
def test_malformed_index_is_data_error_naming_file(dense_stack, tmp_path, capsys, corrupt, message):
    _, doc = read_json(dense_stack["index.json"])
    corrupt(doc)
    bad = tmp_path / "bad-index.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "c.jsonl"
    code = main(["retrieve", "--index", str(bad), "--queries", dense_stack["tagged.jsonl"],
                 "--encoder", dense_stack["encoder.json"], "--k", "3", "--out", str(out)])
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


def test_missing_input_names_path(tmp_path, capsys):
    missing = tmp_path / "nope.jsonl"
    code = main(
        ["retrieve", "--index", str(missing), "--queries", str(missing),
         "--encoder", str(missing), "--out", str(tmp_path / "o.jsonl")]
    )
    assert code == 2
    assert "nope.jsonl" in capsys.readouterr().err


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
    manifest, report = read_json(paths["report"])
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
    paths = run_toy_pipeline(tmp_path / "run", bi_epochs=2, cross_epochs=1, neg_count=2)
    code = main(
        ["eval", "--preds", paths["decisions"], "--gold", paths["train_tagged"],
         "--out", str(tmp_path / "bad.json")]
    )
    assert code == 2


def test_fingerprint_mismatch_between_index_and_encoder(tmp_path, capsys):
    paths = run_toy_pipeline(tmp_path / "run", bi_epochs=2, cross_epochs=1, neg_count=2)
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
                            neg_count=2)


def test_index_with_json_dump_fingerprint_asks_for_rebuild(small_run, tmp_path, capsys):
    # before encoder fingerprints hashed array bytes, they hashed the canonical
    # JSON of the whole checkpoint state, every float included
    _, doc = read_json(small_run["index"])
    doc["encoder_fingerprint"] = json_digest(load_encoder(small_run["encoder"]).state_dict())
    old = tmp_path / "old-index.json"
    old.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["retrieve", "--index", str(old), "--queries", small_run["test_tagged"],
                 "--encoder", small_run["encoder"], "--k", "3",
                 "--out", str(tmp_path / "c.jsonl")])
    err = capsys.readouterr().err
    assert code == 2
    assert str(old) in err and small_run["encoder"] in err and "rebuild" in err


@pytest.mark.parametrize("ks", ["0,-3,5", "5,0", "-1"])
@pytest.mark.parametrize("via", ["flag", "config"])
def test_eval_recall_depth_below_one_is_usage_error(small_run, tmp_path, capsys, ks, via):
    report = tmp_path / "r.json"
    argv = ["eval", "--preds", small_run["decisions"], "--gold", small_run["test_tagged"],
            "--candidates", small_run["candidates"], "--out", str(report)]
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
    paths = run_toy_pipeline(tmp_path / "run", bi_epochs=2, cross_epochs=1, neg_count=2)
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
    config.write_text("[format]\nstyle = blink\nmax-len = 12\n", encoding="utf-8")
    out = tmp_path / "fmt.jsonl"
    assert main(["format", "--in", str(tagged), "--out", str(out), "--config", str(config)]) == 0
    records = read_records(out, dict)
    assert records[0]["format"] == "blink"
    assert all(len(r["tokens"]) <= 12 for r in records)
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
    labels_out = tmp_path / "labels.json"
    assert main(
        ["neg-gen", "--queries", str(tagged), "--style", "prune",
         "--prune-fraction", "0.1", "--seed", "3", "--out", str(out),
         "--labels-out", str(labels_out)]
    ) == 0
    manifest, records = read_manifest(out), read_records(out, dict)
    pruned = set(manifest["config"]["pruned_labels"])
    assert len(pruned) == 1  # ceil(0.1 * 10 unique labels)
    assert all(r["provenance"] == "kb_pruning" for r in records)
    assert all(r["generated"]["gold"] == "NIL" for r in records)
    _, labels_doc = read_json(labels_out)
    assert set(labels_doc["pruned_labels"]) == pruned


def test_llm_link_rule_with_scripted_responses(tmp_path):
    paths = run_toy_pipeline(tmp_path / "run", n_entries=12, bi_epochs=2, cross_epochs=1, neg_count=2)
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
        ["link", "--kb", paths["kb_norm"], "--queries", paths["test_tagged"],
         "--index", paths["index"], "--encoder", paths["encoder"],
         "--scorer", paths["scorer"], "--rule", "threshold", "--theta", "0.5",
         "--out", str(second)]
    ) == 0
    second_report = tmp_path / "run" / "threshold-report.json"
    assert main(
        ["eval", "--preds", str(second), "--gold", paths["test_tagged"],
         "--out", str(second_report)]
    ) == 0
    comparison = tmp_path / "comparison.json"
    assert main(
        ["report", "--runs", paths["report"], str(second_report),
         "--out", str(comparison)]
    ) == 0
    _, payload = read_json(comparison)
    assert set(payload["rows"]) == {"report", "threshold-report"}
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
    assert config["max_query_len"] == 300
    assert (config["retriever"], config["style"]) == ("dense", "args")


def test_config_values_parse_like_flags(dense_stack, tmp_path):
    config = tmp_path / "run.ini"
    config.write_text("[retrieve]\nk = 3\nmax_query_len = 12\n", encoding="utf-8")
    out = tmp_path / "c.jsonl"
    assert main(["retrieve", "--index", dense_stack["index.json"],
                 "--queries", dense_stack["tagged.jsonl"], "--encoder", dense_stack["encoder.json"],
                 "--config", str(config), "--k", "4", "--out", str(out)]) == 0
    manifest, records = read_manifest(out), read_records(out, dict)
    assert (manifest["config"]["k"], manifest["config"]["max_query_len"]) == (4, 12)
    assert all(len(r["candidates"]) == 4 for r in records)


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
    assert {argv[0] for argv in commands} == {
        "build-kb", "tag", "format", "train-bi", "index", "retrieve",
        "neg-gen", "train-cross", "link", "eval", "report",
    }
    parser = build_parser()
    for argv in commands:
        for variant in _choice_variants(argv):
            args = parser.parse_args(variant)
            assert args.command == variant[0]


# --- checkpoints and scripted responses ------------------------------------------

def test_encoder_checkpoint_missing_key_is_data_error(dense_stack, tmp_path, capsys):
    state = json.loads(open(dense_stack["encoder.json"], encoding="utf-8").read())
    del state["seed"]
    bad = tmp_path / "no-seed.json"
    bad.write_text(json.dumps(state), encoding="utf-8")
    out = tmp_path / "index.json"
    assert main(["index", "--kb", dense_stack["kb.jsonl"], "--encoder", str(bad),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "'seed'" in err
    assert not out.exists()


def test_checkpoint_of_another_kind_is_data_error(dense_stack, tmp_path, capsys):
    out = tmp_path / "d.jsonl"
    code = main(_link_argv(dense_stack, out, "--scorer", dense_stack["encoder.json"]))
    assert code == 2
    err = capsys.readouterr().err
    assert dense_stack["encoder.json"] in err and "'hashing'" in err
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
    TinyCrossScorer(["a"], 16, seed=0).save(scorer)
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
    paths = run_toy_pipeline(tmp_path / "run", bi_epochs=2, cross_epochs=1, neg_count=2)
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
