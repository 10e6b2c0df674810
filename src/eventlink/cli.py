"""Command-line pipeline driver.

One subcommand per pipeline stage, driven by flags or an INI config file
with one section per command (flags win). Outputs are written atomically
and carry a manifest header recording the command, its resolved options,
and sha256 digests of every input, so downstream stages can refuse
mismatched lineages.

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal error.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys

from . import artifacts, encoders, evaluation, neggen, training
from .extraction import (
    RoleLexicon,
    extract,
    query_from_record,
    rule_extractor,
    tagged_from_record,
    tagged_to_record,
)
from .formatting import FORMAT_STYLES, format_query
from .kb import NIL, KBError, entry_to_record, load_kb
from .llm import ScriptedClient
from .rerank import (
    TinyCrossScorer,
    LinkDecision,
    llm_rerank,
    score_pairs,
    select_learned_nil,
    select_threshold,
)
from .retrieval import CandidateSet, DenseIndex, bm25_build, bm25_retrieve, build_index, retrieve
from .toy import StorytellerMock, build_vocab


class UsageError(Exception):
    exit_code = 1


class DataError(Exception):
    exit_code = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2; we reserve 2 for data
        raise UsageError(message)


def _require(path, what: str) -> str:
    if path is None:
        raise UsageError(f"missing required option for {what}")
    if not os.path.exists(path):
        raise DataError(f"missing input: {path}")
    return path


def _int(value, name: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError):
        raise UsageError(f"option {name} must be an integer, got {value!r}")


def _float(value, name: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise UsageError(f"option {name} must be a number, got {value!r}")


def _bool(value, name: str) -> bool:
    """A flag's value: True, False, None (unset) or a config word such as yes/off."""
    if value is None or isinstance(value, bool):
        return bool(value)
    word = str(value).strip().lower()
    if word not in configparser.ConfigParser.BOOLEAN_STATES:
        raise UsageError(f"option {name} must be a boolean, got {value!r}")
    return configparser.ConfigParser.BOOLEAN_STATES[word]


def _apply_config(args: argparse.Namespace, command: str) -> None:
    if not getattr(args, "config", None):
        return
    path = _require(args.config, "--config")
    parser = configparser.ConfigParser()
    parser.read(path, encoding="utf-8")
    if command not in parser:
        return
    for key, value in parser[command].items():
        attr = key.replace("-", "_")
        if getattr(args, attr, None) is None:
            setattr(args, attr, value)


def _manifest(command: str, args: argparse.Namespace, inputs: dict[str, str]) -> dict:
    config = {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in ("func", "config") and value is not None
    }
    return artifacts.make_manifest(command, config, inputs)


def _load_tagged(path):
    return [tagged_from_record(record, lineno) for lineno, record in artifacts.iter_jsonl(path)]


def _load_queries(path):
    return [query_from_record(record, lineno) for lineno, record in artifacts.iter_jsonl(path)]


def _load_candidates(path):
    return [CandidateSet.from_record(record) for _, record in artifacts.iter_jsonl(path)]


def _load_decisions(path):
    return [LinkDecision.from_record(record) for _, record in artifacts.iter_jsonl(path)]


def _save_checkpoint(obj, path: str, report: training.TrainReport) -> None:
    encoders.save_encoder(obj, path)
    report.checkpoint_path = os.path.basename(path)
    artifacts.write_json(path + ".report.json", report.to_dict())


# --- commands ---------------------------------------------------------------

def cmd_build_kb(args) -> None:
    source = _require(args.in_path, "--in")
    kb = load_kb(source)
    manifest = _manifest("build-kb", args, {"kb": source})
    artifacts.write_jsonl(args.out, (entry_to_record(e) for e in kb), manifest)
    return manifest


def cmd_tag(args) -> None:
    source = _require(args.in_path, "--in")
    extractor_name = args.extractor or "rule"
    if extractor_name != "rule":
        raise UsageError(f"unknown extractor {extractor_name!r}; available: rule")
    lexicon_path = _require(args.lexicon, "--lexicon")
    extractor = rule_extractor(RoleLexicon.from_file(lexicon_path))
    queries = _load_queries(source)
    tagged = [extract(extractor, q) for q in queries]
    manifest = _manifest("tag", args, {"queries": source, "lexicon": lexicon_path})
    artifacts.write_jsonl(args.out, (tagged_to_record(t) for t in tagged), manifest)
    return manifest


def cmd_format(args) -> None:
    source = _require(args.in_path, "--in")
    style = args.style or "args"
    if style not in FORMAT_STYLES:
        raise UsageError(f"unknown style {style!r}; expected one of {FORMAT_STYLES}")
    max_len = _int(args.max_len or 300, "--max-len")
    tagged = _load_tagged(source)
    records = (
        {"query_id": t.base.query_id, "format": style, "tokens": format_query(t, style, max_len)}
        for t in tagged
    )
    manifest = _manifest("format", args, {"queries": source})
    artifacts.write_jsonl(args.out, records, manifest)
    return manifest


def cmd_train_bi(args) -> None:
    kb_path = _require(args.kb, "--kb")
    queries_path = _require(args.queries, "--queries")
    kb = load_kb(kb_path)
    tagged = _load_tagged(queries_path)
    style = args.style or "args"
    cfg = training.TrainConfig.biencoder_defaults(
        learning_rate=_float(args.lr or 1e-5, "--lr"),
        batch_size=_int(args.batch_size or 48, "--batch-size"),
        epochs=_int(args.epochs or 15, "--epochs"),
        max_query_len=_int(args.max_query_len or 300, "--max-query-len"),
        max_candidate_len=_int(args.max_candidate_len or 300, "--max-candidate-len"),
        seed=_int(args.seed or 0, "--seed"),
    )
    vocab = build_vocab(kb, tagged, cfg.max_query_len)
    encoder = encoders.TinyEncoder(vocab, _int(args.dim or 64, "--dim"), seed=cfg.seed)
    data = []
    for query in tagged:
        if query.base.gold == NIL:
            continue
        entry = kb.get(query.base.gold)
        if entry is None:
            raise DataError(f"query {query.base.query_id!r}: gold {query.base.gold!r} not in KB")
        data.append((format_query(query, style, cfg.max_query_len), entry))
    report = training.train_biencoder(data, encoder, cfg)
    _save_checkpoint(encoder, args.out, report)
    return _manifest("train-bi", args, {"kb": kb_path, "queries": queries_path})


def cmd_index(args) -> None:
    kb_path = _require(args.kb, "--kb")
    encoder_path = _require(args.encoder, "--encoder")
    kb = load_kb(kb_path)
    encoder = encoders.load_encoder(encoder_path)
    index = build_index(kb, encoder, _int(args.max_len or 300, "--max-len"))
    manifest = _manifest("index", args, {"kb": kb_path, "encoder": encoder_path})
    index.save(args.out, manifest)
    return manifest


def _load_index(path) -> DenseIndex:
    return DenseIndex.load(path)


def _check_fingerprint(index: DenseIndex, encoder) -> None:
    actual = encoders.encoder_fingerprint(encoder)
    if index.encoder_fingerprint != actual:
        raise DataError("index was built by a different encoder (fingerprint mismatch)")


def cmd_retrieve(args) -> None:
    queries_path = _require(args.queries, "--queries")
    tagged = _load_tagged(queries_path)
    k = _int(args.k or 10, "--k")
    retriever = args.retriever or "dense"
    if retriever == "bm25":
        kb_path = _require(args.kb, "--kb")
        kb = load_kb(kb_path)
        index = bm25_build(kb)
        results = [bm25_retrieve(index, query.base, k) for query in tagged]
        inputs = {"kb": kb_path, "queries": queries_path}
    elif retriever == "dense":
        index_path = _require(args.index, "--index")
        encoder_path = _require(args.encoder, "--encoder")
        index = _load_index(index_path)
        encoder = encoders.load_encoder(encoder_path)
        _check_fingerprint(index, encoder)
        style = args.style or "args"
        max_len = _int(args.max_query_len or 300, "--max-query-len")
        results = []
        for query in tagged:
            embedding = encoder.encode(format_query(query, style, max_len))
            results.append(retrieve(index, embedding, k, query_id=query.base.query_id))
        inputs = {"index": index_path, "queries": queries_path, "encoder": encoder_path}
    else:
        raise UsageError(f"unknown retriever {retriever!r}; expected dense or bm25")
    manifest = _manifest("retrieve", args, inputs)
    artifacts.write_jsonl(args.out, (r.to_record() for r in results), manifest)
    return manifest


def cmd_neg_gen(args) -> None:
    queries_path = _require(args.queries, "--queries")
    tagged = _load_tagged(queries_path)
    style = args.style or "args"
    seed = _int(args.seed or 0, "--seed")
    if style == "prune":
        fraction = _float(args.prune_fraction or 0.1, "--prune-fraction")
        pruned, relabeled = neggen.kb_pruning_negatives(tagged, fraction, seed)
        negatives = [
            neggen.NegativeExample(
                generated=query,
                origin_query_id=query.base.query_id,
                paired_candidate_ids=(),
                provenance=neggen.PROVENANCE_KB_PRUNING,
            )
            for query, before in zip(relabeled, tagged)
            if before.base.gold in pruned
        ]
        manifest = _manifest("neg-gen", args, {"queries": queries_path})
        manifest["config"]["pruned_labels"] = sorted(pruned)
        artifacts.write_jsonl(args.out, (n.to_record() for n in negatives), manifest)
        if args.labels_out:
            artifacts.write_json(args.labels_out, {"pruned_labels": sorted(pruned)}, manifest)
        return manifest
    if style not in ("args", "plain"):
        raise UsageError(f"unknown negative style {style!r}; expected args, plain, or prune")
    gen_style = neggen.STYLE_ARGUMENT_AWARE if style == "args" else neggen.STYLE_PLAIN
    kb_path = _require(args.kb, "--kb")
    index_path = _require(args.index, "--index")
    encoder_path = _require(args.encoder, "--encoder")
    kb = load_kb(kb_path)
    index = _load_index(index_path)
    encoder = encoders.load_encoder(encoder_path)
    _check_fingerprint(index, encoder)
    client_name = args.client or "storyteller"
    if client_name == "storyteller":
        client = StorytellerMock(seed=_int(args.client_seed or 0, "--client-seed"))
    elif client_name == "scripted":
        responses_path = _require(args.responses, "--responses")
        completions = [r["completion"] for _, r in artifacts.iter_jsonl(responses_path)]
        client = ScriptedClient(completions)
    else:
        raise UsageError(f"unknown client {client_name!r}; available: storyteller, scripted")
    count = _int(args.count, "--count") if args.count else neggen.DESK_SCALE_TRAIN_GENERATIONS
    negatives, records = neggen.generate_negatives(
        tagged, kb, index, encoder, client, gen_style, count,
        seed=seed,
        k=_int(args.k or 10, "--k"),
        query_max_len=_int(args.max_query_len or 300, "--max-query-len"),
    )
    manifest = _manifest(
        "neg-gen", args,
        {"queries": queries_path, "kb": kb_path, "index": index_path, "encoder": encoder_path},
    )
    artifacts.write_jsonl(args.out, (n.to_record() for n in negatives), manifest)
    if args.log:
        artifacts.write_jsonl(args.log, (r.to_record() for r in records), manifest)
    return manifest


def cmd_train_cross(args) -> None:
    kb_path = _require(args.kb, "--kb")
    queries_path = _require(args.queries, "--queries")
    index_path = _require(args.index, "--index")
    encoder_path = _require(args.encoder, "--encoder")
    kb = load_kb(kb_path)
    tagged = _load_tagged(queries_path)
    index = _load_index(index_path)
    encoder = encoders.load_encoder(encoder_path)
    _check_fingerprint(index, encoder)
    style = args.style or "args"
    cfg = training.TrainConfig.crossencoder_defaults(
        learning_rate=_float(args.lr or 2e-5, "--lr"),
        batch_size=_int(args.batch_size or 6, "--batch-size"),
        epochs=_int(args.epochs or 20, "--epochs"),
        max_query_len=_int(args.max_query_len or 256, "--max-query-len"),
        max_candidate_len=_int(args.max_candidate_len or 256, "--max-candidate-len"),
        seed=_int(args.seed or 0, "--seed"),
        k=_int(args.k or 10, "--k"),
    )
    negatives = []
    if args.negatives:
        negatives_path = _require(args.negatives, "--negatives")
        negatives = [
            neggen.NegativeExample.from_record(record)
            for _, record in artifacts.iter_jsonl(negatives_path)
        ]
    mined = training.mine_candidates(tagged, index, encoder, cfg.k, style, cfg.max_query_len)
    positives = training.positive_examples(tagged, mined, style, cfg.max_query_len)
    generated = [n for n in negatives if n.provenance != neggen.PROVENANCE_KB_PRUNING]
    pruned_queries = [n.generated for n in negatives if n.provenance == neggen.PROVENANCE_KB_PRUNING]
    if pruned_queries:
        pruned_mined = training.mine_candidates(
            pruned_queries, index, encoder, cfg.k, style, cfg.max_query_len
        )
        positives += training.positive_examples(pruned_queries, pruned_mined, style, cfg.max_query_len)
    vocab = build_vocab(kb, tagged, cfg.max_query_len)
    scorer = TinyCrossScorer(vocab, _int(args.dim or 64, "--dim"), seed=cfg.seed)
    report = training.train_crossencoder(positives, generated, scorer, cfg, kb, style)
    _save_checkpoint(scorer, args.out, report)
    return _manifest(
        "train-cross", args,
        {"kb": kb_path, "queries": queries_path, "index": index_path, "encoder": encoder_path},
    )


def cmd_link(args) -> None:
    kb_path = _require(args.kb, "--kb")
    queries_path = _require(args.queries, "--queries")
    index_path = _require(args.index, "--index")
    encoder_path = _require(args.encoder, "--encoder")
    kb = load_kb(kb_path)
    tagged = _load_tagged(queries_path)
    index = _load_index(index_path)
    encoder = encoders.load_encoder(encoder_path)
    _check_fingerprint(index, encoder)
    rule = args.rule or "learned"
    style = args.style or "args"
    args.allow_nil = _bool(args.allow_nil, "--allow-nil")
    k = _int(args.k or 10, "--k")
    max_query_len = _int(args.max_query_len or 256, "--max-query-len")
    max_candidate_len = _int(args.max_candidate_len or 256, "--max-candidate-len")
    inputs = {
        "kb": kb_path, "queries": queries_path,
        "index": index_path, "encoder": encoder_path,
    }
    scorer = None
    if rule in ("learned", "threshold"):
        scorer_path = _require(args.scorer, "--scorer")
        scorer = TinyCrossScorer.load(scorer_path)
        inputs["scorer"] = scorer_path
    client = None
    if rule == "llm":
        responses_path = _require(args.responses, "--responses")
        completions = [r["completion"] for _, r in artifacts.iter_jsonl(responses_path)]
        client = ScriptedClient(completions)
        inputs["responses"] = responses_path
    decisions = []
    for query in tagged:
        query_tokens = format_query(query, style, max_query_len)
        embedding = encoder.encode(query_tokens)
        candidates = retrieve(index, embedding, k, query_id=query.base.query_id)
        if rule == "learned":
            scores = score_pairs(scorer, query_tokens, candidates, kb, max_candidate_len)
            decisions.append(select_learned_nil(scores, candidates))
        elif rule == "threshold":
            scores = score_pairs(scorer, query_tokens, candidates, kb, max_candidate_len)
            decisions.append(
                select_threshold(
                    scores[1:], candidates,
                    theta=_float(args.theta or 0.5, "--theta"),
                    direction=args.direction or "conventional",
                )
            )
        elif rule == "llm":
            decisions.append(
                llm_rerank(client, query_tokens, candidates, kb, allow_nil=args.allow_nil)
            )
        else:
            raise UsageError(f"unknown rule {rule!r}; expected learned, threshold, or llm")
    manifest = _manifest("link", args, inputs)
    artifacts.write_jsonl(args.out, (d.to_record() for d in decisions), manifest)
    return manifest


def cmd_eval(args) -> None:
    preds_path = _require(args.preds, "--preds")
    gold_path = _require(args.gold, "--gold")
    decisions = _load_decisions(preds_path)
    golds = [q.base for q in _load_tagged(gold_path)]
    preds_manifest = artifacts.read_manifest(preds_path)
    gold_digest = artifacts.file_digest(gold_path)
    if preds_manifest:
        recorded = preds_manifest.get("inputs", {}).get("queries", {}).get("sha256")
        if recorded and recorded != gold_digest:
            raise DataError(
                "lineage mismatch: predictions were linked against a different queries file"
            )
    candidate_sets = None
    ks = evaluation.RECALL_GRID
    if args.candidates:
        candidates_path = _require(args.candidates, "--candidates")
        candidate_sets = _load_candidates(candidates_path)
    if args.ks:
        ks = tuple(int(x) for x in str(args.ks).split(","))
    report = evaluation.evaluate(
        decisions, golds, candidate_sets, ks,
        dataset_fingerprint=gold_digest,
        config_fingerprint=artifacts.manifest_digest(preds_manifest) if preds_manifest else "",
    )
    manifest = _manifest("eval", args, {"preds": preds_path, "gold": gold_path})
    artifacts.write_json(args.out, report.to_dict(), manifest)
    return manifest


def cmd_report(args) -> None:
    runs = []
    names = []
    for path in args.runs:
        _require(path, "--runs")
        _, payload = artifacts.read_json(path)
        name = os.path.splitext(os.path.basename(path))[0]
        names.append(name)
        runs.append((name, evaluation.EvalReport.from_dict(payload)))
    comparison = evaluation.compare_report(runs)
    manifest = _manifest("report", args, {name: path for name, path in zip(names, args.runs)})
    artifacts.write_json(args.out, comparison, manifest)
    return manifest


# --- parser -----------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="eventlink", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, options):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=fn)
        return p

    out = ("--out", dict(required=True))
    add("build-kb", cmd_build_kb, [("--in", dict(dest="in_path")), out])
    add("tag", cmd_tag, [
        ("--in", dict(dest="in_path")), out,
        ("--extractor", dict()), ("--lexicon", dict()),
    ])
    add("format", cmd_format, [
        ("--in", dict(dest="in_path")), out,
        ("--style", dict()), ("--max-len", dict()),
    ])
    add("train-bi", cmd_train_bi, [
        ("--kb", dict()), ("--queries", dict()), out, ("--style", dict()),
        ("--dim", dict()), ("--lr", dict()), ("--batch-size", dict()),
        ("--epochs", dict()), ("--seed", dict()),
        ("--max-query-len", dict()), ("--max-candidate-len", dict()),
    ])
    add("index", cmd_index, [
        ("--kb", dict()), ("--encoder", dict()), out, ("--max-len", dict()),
    ])
    add("retrieve", cmd_retrieve, [
        ("--index", dict()), ("--queries", dict()), ("--encoder", dict()), out,
        ("--style", dict()), ("--k", dict()), ("--max-query-len", dict()),
        ("--retriever", dict()), ("--kb", dict()),
    ])
    add("neg-gen", cmd_neg_gen, [
        ("--queries", dict()), out, ("--style", dict()), ("--count", dict()),
        ("--seed", dict()), ("--kb", dict()), ("--index", dict()),
        ("--encoder", dict()), ("--client", dict()), ("--client-seed", dict()),
        ("--responses", dict()), ("--log", dict()), ("--k", dict()),
        ("--max-query-len", dict()), ("--prune-fraction", dict()),
        ("--labels-out", dict()),
    ])
    add("train-cross", cmd_train_cross, [
        ("--kb", dict()), ("--queries", dict()), ("--negatives", dict()),
        ("--index", dict()), ("--encoder", dict()), out, ("--style", dict()),
        ("--dim", dict()), ("--lr", dict()), ("--batch-size", dict()),
        ("--epochs", dict()), ("--seed", dict()), ("--k", dict()),
        ("--max-query-len", dict()), ("--max-candidate-len", dict()),
    ])
    add("link", cmd_link, [
        ("--kb", dict()), ("--queries", dict()), ("--index", dict()),
        ("--encoder", dict()), ("--scorer", dict()), out,
        ("--rule", dict()), ("--theta", dict()), ("--direction", dict()),
        ("--k", dict()), ("--style", dict()),
        ("--allow-nil", dict(action="store_true", default=None)),
        ("--responses", dict()), ("--max-query-len", dict()), ("--max-candidate-len", dict()),
    ])
    add("eval", cmd_eval, [
        ("--preds", dict()), ("--gold", dict()), out,
        ("--candidates", dict()), ("--ks", dict()),
    ])
    add("report", cmd_report, [
        ("--runs", dict(nargs="+")), out,
    ])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _apply_config(args, args.command)
        manifest = args.func(args)
        if manifest is not None:
            print(artifacts.canonical_json({"manifest": manifest}))
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataError, KBError, FileNotFoundError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
