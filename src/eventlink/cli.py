"""Command-line pipeline driver.

One subcommand per pipeline stage, driven by flags or an INI config file
with one section per command. ``build_parser`` declares every option once,
with its type, choices and default; a config section is parsed as flags
placed before the command line, so explicit flags win. Sequence lengths are
not options: each stage uses the budget of the model it feeds,
``kb.RETRIEVER_MAX_LEN`` or ``kb.SCORER_MAX_LEN``. Outputs are written
atomically and carry a manifest header recording the command, every
resolved option, and sha256 digests of every input, so downstream stages
can refuse mismatched lineages.

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal error.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
from operator import attrgetter

from . import artifacts, encoders, evaluation, neggen, rerank, training
from .extraction import RoleLexicon, RuleExtractor, extract, query_from_record
from .extraction import tagged_from_record, tagged_to_record
from .formatting import FORMAT_STYLES, format_query
from .kb import NIL, RETRIEVER_MAX_LEN, SCORER_MAX_LEN, KBError, load_kb
from .llm import ScriptedClient, StorytellerMock
from .rerank import LinkDecision, TinyCrossScorer, llm_rerank, score_pairs
from .rerank import select_learned_nil, select_threshold
from .retrieval import CandidateSet, DenseIndex, bm25_build, bm25_retrieve_many, build_index, retrieve_many


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
    if os.path.isdir(path):
        raise DataError(f"{path}: is a directory, not a file")
    return path


def _config_argv(path, command: str) -> list[str]:
    """The ``[command]`` section of an INI file as ``--key=value`` flags."""
    parser = configparser.ConfigParser()
    try:
        parser.read(_require(path, "--config"), encoding="utf-8")
        items = parser.items(command) if parser.has_section(command) else []
    except configparser.Error as exc:
        raise DataError(f"{path}: {exc}") from None
    return [f"--{key.replace('_', '-')}={value}" for key, value in items]


def _manifest(command: str, args: argparse.Namespace, inputs: dict[str, str]) -> dict:
    config = {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in ("func", "config") and value is not None
    }
    return artifacts.make_manifest(command, config, inputs)


def _load_tagged(path, distinct: bool = False):
    """Tagged queries in file order; with ``distinct``, a repeated query_id fails naming its line."""
    unique = ("query_id", attrgetter("base.query_id")) if distinct else None
    return artifacts.read_records(path, tagged_from_record, unique)


def _load_index(path) -> DenseIndex:
    return DenseIndex.load(path)


def _stack(args, kb: bool = True, dense: bool = True, distinct: bool = False):
    """Load ``--queries``, and ``--kb`` and the ``--index``/``--encoder`` pair as asked.

    Returns ``(inputs, kb, tagged, index, encoder)``: the manifest inputs
    of every file read, then the loaded objects, None where not asked. The
    index must have been built by the encoder. With ``distinct``, no two
    queries may share a query_id.
    """
    inputs = {}

    def path(name):
        inputs[name] = _require(getattr(args, name), f"--{name}")
        return inputs[name]

    loaded_kb = load_kb(path("kb")) if kb else None
    tagged = _load_tagged(path("queries"), distinct)
    index = encoder = None
    if dense:
        index = _load_index(path("index"))
        encoder = encoders.load_encoder(path("encoder"))
        if index.encoder_fingerprint != encoders.encoder_fingerprint(encoder):
            raise DataError(f"index {inputs['index']} does not match encoder {inputs['encoder']}"
                            " (fingerprint mismatch); rebuild the index with `eventlink index`")
    return inputs, loaded_kb, tagged, index, encoder


def _scripted_client(args, inputs: dict) -> ScriptedClient:
    """A client replaying the ``completion`` of each ``--responses`` record in order."""
    inputs["responses"] = _require(args.responses, "--responses")
    return ScriptedClient(artifacts.read_records(
        inputs["responses"], lambda record: artifacts.typed(record["completion"], str, "completion")))


def _train_config(args) -> training.TrainConfig:
    return training.TrainConfig(
        learning_rate=args.lr, batch_size=args.batch_size, epochs=args.epochs, seed=args.seed,
    )


def _save_checkpoint(obj, path: str, report: training.TrainReport) -> None:
    encoders.save_checkpoint(obj, path)
    report.checkpoint_path = os.path.basename(path)
    artifacts.write_json(path + ".report.json", report.to_dict())


# --- commands ---------------------------------------------------------------

def cmd_build_kb(args) -> dict:
    source = _require(args.in_path, "--in")
    kb = load_kb(source)
    manifest = _manifest("build-kb", args, {"kb": source})
    artifacts.write_jsonl(args.out, map(artifacts.json_line, kb.records()), manifest)
    return manifest


def cmd_tag(args) -> dict:
    source = _require(args.in_path, "--in")
    lexicon_path = _require(args.lexicon, "--lexicon")
    extractor = RuleExtractor(RoleLexicon.from_file(lexicon_path))
    tagged = [extract(extractor, q) for q in artifacts.read_records(source, query_from_record)]
    manifest = _manifest("tag", args, {"queries": source, "lexicon": lexicon_path})
    artifacts.write_jsonl(args.out, (artifacts.json_line(tagged_to_record(t)) for t in tagged), manifest)
    return manifest


def cmd_format(args) -> dict:
    source = _require(args.in_path, "--in")
    records = (
        {"query_id": t.base.query_id, "format": args.style,
         "tokens": format_query(t, args.style, RETRIEVER_MAX_LEN)}
        for t in _load_tagged(source)
    )
    manifest = _manifest("format", args, {"queries": source})
    artifacts.write_jsonl(args.out, map(artifacts.json_line, records), manifest)
    return manifest


def cmd_train_bi(args) -> dict:
    inputs, kb, tagged, _, _ = _stack(args, dense=False)
    cfg = _train_config(args)
    vocab = training.build_vocab(kb, tagged, RETRIEVER_MAX_LEN, args.style)
    encoder = encoders.TinyEncoder(vocab, args.dim, seed=cfg.seed)
    labeled = [query for query in tagged if query.base.gold != NIL]
    try:
        gold_rows = kb.rows(query.base.gold for query in labeled)
    except KBError:
        query = next(q for q in labeled if q.base.gold not in kb.ids)
        raise DataError(
            f"query {query.base.query_id!r}: gold {query.base.gold!r} not in KB") from None
    queries = [format_query(query, args.style, RETRIEVER_MAX_LEN) for query in labeled]
    data = list(zip(queries, kb.candidate_texts(RETRIEVER_MAX_LEN, gold_rows)))
    report = training.train_biencoder(data, encoder, cfg)
    _save_checkpoint(encoder, args.out, report)
    return _manifest("train-bi", args, inputs)


def cmd_index(args) -> dict:
    inputs = {"kb": _require(args.kb, "--kb"), "encoder": _require(args.encoder, "--encoder")}
    encoder = encoders.load_encoder(inputs["encoder"])
    index = build_index(load_kb(inputs["kb"]), encoder)
    manifest = _manifest("index", args, inputs)
    index.save(args.out, manifest)
    return manifest


def cmd_retrieve(args) -> dict:
    bm25 = args.retriever == "bm25"
    inputs, kb, tagged, index, encoder = _stack(args, kb=bm25, dense=not bm25)
    if bm25:
        index = bm25_build(kb)
        results = bm25_retrieve_many(index, [query.base for query in tagged], args.k)
    else:
        embeddings = encoder.encode_many(
            [format_query(query, args.style, RETRIEVER_MAX_LEN) for query in tagged])
        results = retrieve_many(index, embeddings, args.k, [q.base.query_id for q in tagged])
    manifest = _manifest("retrieve", args, inputs)
    artifacts.write_jsonl(args.out, (r.to_line() for r in results), manifest)
    return manifest


def cmd_neg_gen(args) -> dict:
    generated = args.style != "prune"
    inputs, _, tagged, index, encoder = _stack(args, kb=False, dense=generated)
    if generated:  # paired candidate ids name the KB's entries, so the manifest records it
        inputs["kb"] = _require(args.kb, "--kb")
    if not generated:
        pruned, relabeled = neggen.kb_pruning_negatives(tagged, args.prune_fraction, args.seed)
        negatives = [
            neggen.NegativeExample(query, query.base.query_id, (), neggen.PROVENANCE_KB_PRUNING)
            for query, before in zip(relabeled, tagged)
            if before.base.gold in pruned
        ]
        manifest = _manifest("neg-gen", args, inputs)
        manifest["config"]["pruned_labels"] = sorted(pruned)
        artifacts.write_jsonl(args.out, (artifacts.json_line(n.to_record()) for n in negatives), manifest)
        return manifest
    storyteller = args.client == "storyteller"
    client = StorytellerMock() if storyteller else _scripted_client(args, inputs)
    gen_style = neggen.STYLE_ARGUMENT_AWARE if args.style == "args" else neggen.STYLE_PLAIN
    negatives, records = neggen.generate_negatives(
        tagged, index, encoder, client, gen_style, args.count, seed=args.seed, k=args.k,
    )
    manifest = _manifest("neg-gen", args, inputs)
    artifacts.write_jsonl(args.out, (artifacts.json_line(n.to_record()) for n in negatives), manifest)
    if args.log:
        artifacts.write_jsonl(args.log, (artifacts.json_line(r.to_record()) for r in records), manifest)
    return manifest


def cmd_train_cross(args) -> dict:
    # KB pruning replaces queries by query_id, and the canonical row order sorts by it
    inputs, kb, tagged, index, encoder = _stack(args, distinct=True)
    cfg = _train_config(args)
    negatives = []
    if args.negatives:
        inputs["negatives"] = _require(args.negatives, "--negatives")

        def negative(record: dict) -> neggen.NegativeExample:
            example = neggen.NegativeExample.from_record(record)
            kb.rows(example.paired_candidate_ids)  # an unknown id fails naming file and line
            return example

        negatives = artifacts.read_records(args.negatives, negative)
    vocab = training.build_vocab(kb, tagged, SCORER_MAX_LEN, args.style)
    pruned = [n for n in negatives if n.provenance == neggen.PROVENANCE_KB_PRUNING]
    generated = [n for n in negatives if n.provenance != neggen.PROVENANCE_KB_PRUNING]
    queries, index = training.apply_kb_pruning(tagged, pruned, index)
    positives = training.mine_candidates(queries, index, encoder, args.k, args.style)
    scorer = TinyCrossScorer(vocab, args.dim, seed=cfg.seed)
    report = training.train_crossencoder(positives, generated, scorer, cfg, kb, args.style)
    _save_checkpoint(scorer, args.out, report)
    return _manifest("train-cross", args, inputs)


def cmd_link(args) -> dict:
    if args.rule == "llm" and args.k != rerank.RERANK_POOL_SIZE:
        raise UsageError(f"--rule llm re-ranks exactly {rerank.RERANK_POOL_SIZE} candidates, "
                         f"so --k must be {rerank.RERANK_POOL_SIZE}, not {args.k}")
    inputs, kb, tagged, index, encoder = _stack(args)
    if args.rule == "llm":
        client = _scripted_client(args, inputs)
    else:
        inputs["scorer"] = _require(args.scorer, "--scorer")
        scorer = encoders.load_checkpoint(args.scorer, TinyCrossScorer)
    query_rows = [format_query(query, args.style, SCORER_MAX_LEN) for query in tagged]
    embeddings = encoder.encode_many(query_rows)
    candidate_sets = retrieve_many(index, embeddings, args.k, [q.base.query_id for q in tagged])
    if args.rule == "llm":
        decisions = [llm_rerank(client, query_tokens, candidates, kb, args.allow_nil)
                     for query_tokens, candidates in zip(query_rows, candidate_sets)]
    else:
        score_lists = score_pairs(scorer, query_rows, candidate_sets, kb)
        decisions = [
            select_learned_nil(scores, candidates) if args.rule == "learned" else
            select_threshold(scores[1:], candidates, theta=args.theta, direction=args.direction)
            for scores, candidates in zip(score_lists, candidate_sets)
        ]
    manifest = _manifest("link", args, inputs)
    artifacts.write_jsonl(args.out, (d.to_line() for d in decisions), manifest)
    return manifest


def _lineage_digest(manifest: dict) -> str | None:
    """The sha256 a predictions manifest records for the queries file it linked."""
    return manifest.get("inputs", {}).get("queries", {}).get("sha256")


def cmd_eval(args) -> dict:
    inputs = {"preds": _require(args.preds, "--preds"), "gold": _require(args.gold, "--gold")}
    if args.candidates:
        inputs["candidates"] = _require(args.candidates, "--candidates")
    decisions = artifacts.read_records(inputs["preds"], LinkDecision.from_record)
    golds = [q.base for q in _load_tagged(inputs["gold"])]
    preds_manifest = artifacts.read_manifest(inputs["preds"])
    manifest = _manifest("eval", args, inputs)
    gold_digest = manifest["inputs"]["gold"]["sha256"]
    if preds_manifest is not None:
        recorded = artifacts._parse(_lineage_digest, preds_manifest, inputs["preds"])
        if recorded and recorded != gold_digest:
            raise DataError(
                "lineage mismatch: predictions were linked against a different queries file"
            )
    candidate_sets = (artifacts.read_records(inputs["candidates"], CandidateSet.from_record)
                      if args.candidates else None)
    try:
        report = evaluation.evaluate(
            decisions, golds, candidate_sets, args.ks,
            dataset_fingerprint=gold_digest,
            config_fingerprint=artifacts.json_digest(preds_manifest) if preds_manifest else "",
        )
    except evaluation.CoverageError as exc:
        paths = {"decisions": inputs["preds"], "golds": inputs["gold"], "candidate_sets": args.candidates}
        raise DataError(f"{paths[exc.source]}: {exc}") from None
    artifacts.write_json(args.out, report.to_dict(), manifest)
    return manifest


def cmd_report(args) -> dict:
    names = [os.path.splitext(os.path.basename(_require(p, "--runs")))[0] for p in args.runs]
    runs = [
        (name, artifacts.read_document(path, evaluation.EvalReport.from_dict))
        for name, path in zip(names, args.runs)
    ]
    manifest = _manifest("report", args, dict(zip(names, args.runs)))
    artifacts.write_json(args.out, evaluation.compare_report(runs), manifest)
    return manifest


# --- parser -----------------------------------------------------------------

def boolean(word: str) -> bool:
    """A configparser boolean word: yes/no, on/off, true/false, 1/0."""
    states = configparser.ConfigParser.BOOLEAN_STATES
    if word.lower() not in states:
        raise ValueError(word)
    return states[word.lower()]


def recall_ks(text: str) -> tuple[int, ...]:
    """A comma-separated list of distinct recall depths of at least 1, such as ``1,5,10``."""
    ks = tuple(int(k) for k in text.split(","))
    if min(ks) < 1 or len(set(ks)) < len(ks):
        raise ValueError(text)
    return ks


def build_parser(command: str | None = None) -> _Parser:
    """Every subcommand, or only ``command`` if it names one; each option's type and default are here."""
    bi = training.TrainConfig.biencoder_defaults()
    cross = training.TrainConfig.crossencoder_defaults()
    path = {}
    source = dict(dest="in_path")
    style = dict(choices=FORMAT_STYLES, default="args")

    def of(kind, default):
        return dict(type=kind, default=default)

    k = of(int, 10)

    def trainer(cfg):
        return {
            "kb": path, "queries": path, "style": style, "dim": of(int, 64),
            "lr": of(float, cfg.learning_rate), "batch-size": of(int, cfg.batch_size),
            "epochs": of(int, cfg.epochs), "seed": of(int, cfg.seed),
        }

    dense = {"kb": path, "queries": path, "index": path, "encoder": path}
    commands = {
        "build-kb": (cmd_build_kb, {"in": source}),
        "tag": (cmd_tag, {
            "in": source, "extractor": dict(choices=("rule",), default="rule"), "lexicon": path,
        }),
        "format": (cmd_format, {"in": source, "style": style}),
        "train-bi": (cmd_train_bi, trainer(bi)),
        "index": (cmd_index, {"kb": path, "encoder": path}),
        "retrieve": (cmd_retrieve, {
            **dense, "retriever": dict(choices=("dense", "bm25"), default="dense"),
            "style": style, "k": k,
        }),
        "neg-gen": (cmd_neg_gen, {
            **dense, "style": dict(choices=("args", "plain", "prune"), default="args"),
            "count": of(int, neggen.DESK_SCALE_TRAIN_GENERATIONS), "seed": of(int, 0),
            "client": dict(choices=("storyteller", "scripted"), default="storyteller"),
            "responses": path, "log": path, "k": k, "prune-fraction": of(float, 0.1),
        }),
        "train-cross": (cmd_train_cross, {**trainer(cross), **dense, "negatives": path, "k": k}),
        "link": (cmd_link, {
            **dense, "scorer": path,
            "rule": dict(choices=("learned", "threshold", "llm"), default="learned"),
            "theta": of(float, rerank.DEFAULT_THETA),
            "direction": dict(choices=("conventional", "literal"), default="conventional"),
            "k": k, "style": style, "responses": path,
            "allow-nil": dict(nargs="?", const=True, type=boolean, default=False),
        }),
        "eval": (cmd_eval, {
            "preds": path, "gold": path, "candidates": path,
            "ks": of(recall_ks, evaluation.RECALL_GRID),
        }),
        "report": (cmd_report, {"runs": dict(nargs="+")}),
    }
    parser = _Parser(prog="eventlink", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, options) in commands.items():
        if command in commands and name != command:
            continue
        p = sub.add_parser(name)
        p.set_defaults(func=fn)
        p.add_argument("--config")
        p.add_argument("--out", required=True)
        for flag, kwargs in options.items():
            p.add_argument(f"--{flag}", **kwargs)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
        if args.config:  # the flags parsed once already, so an error here is the config's
            config_argv = _config_argv(args.config, args.command)
            try:
                args = parser.parse_args([argv[0], *config_argv, *argv[1:]])
            except UsageError as exc:
                raise UsageError(f"{args.config} [{args.command}]: {exc}") from None
        print(artifacts.canonical_json({"manifest": args.func(args)}))
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataError, KBError, FileNotFoundError, ValueError, training.TrainingError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
