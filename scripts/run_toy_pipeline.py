#!/usr/bin/env python3
"""End-to-end desk-scale experiment on the synthetic event corpus.

Builds the toy KB and query splits, trains the retriever and the cross
scorer (with argument-manipulated negatives from the deterministic
rewrite client), links a combined eval set (in-KB test queries plus
held-out synthetic out-of-KB queries) under the learned-NIL and both
threshold rules, and prints the comparison alongside a dense-vs-BM25
recall table.

Usage: python scripts/run_toy_pipeline.py --workdir out/toy --seed 0
"""

import argparse
import json
import os
import sys

from eventlink.artifacts import iter_jsonl, read_json, read_records
from eventlink.cli import main as cli
from eventlink.evaluation import RECALL_GRID, recall_at_k
from eventlink.extraction import tagged_from_record
from eventlink.retrieval import CandidateSet
from eventlink.toy import build_toy_data, write_toy_inputs


def run(argv):
    code = cli(argv)
    if code != 0:
        raise SystemExit(f"stage {argv[0]} failed with exit code {code}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", default="out/toy")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--entries", type=int, default=50)
    parser.add_argument("--train", type=int, default=200)
    parser.add_argument("--test", type=int, default=50)
    parser.add_argument("--dim", type=int, default=64)
    parser.add_argument("--bi-epochs", type=int, default=300)
    parser.add_argument("--cross-epochs", type=int, default=10)
    parser.add_argument("--train-negatives", type=int, default=50)
    parser.add_argument("--eval-negatives", type=int, default=30)
    args = parser.parse_args()

    w = args.workdir
    os.makedirs(w, exist_ok=True)
    seed = str(args.seed)
    data = build_toy_data(args.entries, args.train, args.test, seed=7)
    inputs = write_toy_inputs(w, data)
    p = lambda name: os.path.join(w, name)

    print(f"== corpus: {args.entries} entries, {args.train} train / {args.test} test")
    run(["build-kb", "--in", inputs["kb"], "--out", p("kb.norm.jsonl")])
    for split in ("train", "test"):
        run(["tag", "--in", inputs[split], "--out", p(f"{split}.tagged.jsonl"),
             "--extractor", "rule", "--lexicon", inputs["lexicon"]])

    print("== training retriever encoder")
    run(["train-bi", "--kb", p("kb.norm.jsonl"), "--queries", p("train.tagged.jsonl"),
         "--out", p("encoder.json"), "--dim", str(args.dim), "--lr", "0.3",
         "--batch-size", "8", "--epochs", str(args.bi_epochs), "--seed", seed])
    run(["index", "--kb", p("kb.norm.jsonl"), "--encoder", p("encoder.json"),
         "--out", p("index.json")])

    depth = min(args.entries, 20)
    grid = [k for k in RECALL_GRID if k <= depth]
    run(["retrieve", "--index", p("index.json"), "--queries", p("test.tagged.jsonl"),
         "--encoder", p("encoder.json"), "--k", str(depth), "--out", p("dense.candidates.jsonl")])
    run(["retrieve", "--retriever", "bm25", "--kb", p("kb.norm.jsonl"),
         "--queries", p("test.tagged.jsonl"), "--k", str(depth),
         "--out", p("bm25.candidates.jsonl")])

    print("== generating out-of-KB negatives (deterministic rewrite client)")
    run(["neg-gen", "--queries", p("train.tagged.jsonl"), "--kb", p("kb.norm.jsonl"),
         "--index", p("index.json"), "--encoder", p("encoder.json"), "--style", "args",
         "--count", str(args.train_negatives), "--seed", seed,
         "--out", p("negatives.train.jsonl"), "--log", p("negatives.log.jsonl")])
    run(["neg-gen", "--queries", p("train.tagged.jsonl"), "--kb", p("kb.norm.jsonl"),
         "--index", p("index.json"), "--encoder", p("encoder.json"), "--style", "args",
         "--count", str(args.eval_negatives), "--seed", str(args.seed + 1),
         "--out", p("negatives.eval.jsonl")])

    print("== training cross scorer with learned out-of-KB option")
    run(["train-cross", "--kb", p("kb.norm.jsonl"), "--queries", p("train.tagged.jsonl"),
         "--negatives", p("negatives.train.jsonl"), "--index", p("index.json"),
         "--encoder", p("encoder.json"), "--out", p("scorer.json"), "--dim", str(args.dim),
         "--lr", "0.1", "--batch-size", "8", "--epochs", str(args.cross_epochs),
         "--seed", seed])

    # combined eval set: in-KB test rows plus generated NIL-gold rows
    combined = p("eval.tagged.jsonl")
    with open(combined, "w", encoding="utf-8") as fh:
        for _, record in iter_jsonl(p("test.tagged.jsonl")):
            fh.write(json.dumps(record, sort_keys=True) + "\n")
        for _, record in iter_jsonl(p("negatives.eval.jsonl")):
            fh.write(json.dumps(record["generated"], sort_keys=True) + "\n")
    run(["retrieve", "--index", p("index.json"), "--queries", combined,
         "--encoder", p("encoder.json"), "--k", str(depth), "--out", p("eval.candidates.jsonl")])

    reports = []
    for name, rule_args in (
        ("learned_nil", ["--rule", "learned"]),
        ("threshold_conventional", ["--rule", "threshold", "--theta", "0.5",
                                    "--direction", "conventional"]),
        ("threshold_literal", ["--rule", "threshold", "--theta", "0.5",
                               "--direction", "literal"]),
    ):
        decisions = p(f"decisions.{name}.jsonl")
        run(["link", "--kb", p("kb.norm.jsonl"), "--queries", combined,
             "--index", p("index.json"), "--encoder", p("encoder.json"),
             "--scorer", p("scorer.json"), "--out", decisions, *rule_args])
        report = p(f"{name}.json")
        run(["eval", "--preds", decisions, "--gold", combined,
             "--candidates", p("eval.candidates.jsonl"), "--out", report,
             "--ks", ",".join(map(str, grid))])
        reports.append(report)
    run(["report", "--runs", *reports, "--out", p("comparison.json")])

    _, comparison = read_json(p("comparison.json"))
    print("\n== decision-rule comparison (in-KB test + synthetic out-of-KB)")
    columns = ["accuracy_all", "accuracy_verb", "accuracy_noun",
               "accuracy_in_kb", "accuracy_out_of_kb"]
    header = f"{'run':<24}" + "".join(f"{c.removeprefix('accuracy_'):>10}" for c in columns)
    print(header)
    for name, row in comparison["rows"].items():
        cells = "".join(
            f"{row[c]:>10.3f}" if row[c] is not None else f"{'-':>10}" for c in columns
        )
        print(f"{name:<24}{cells}")

    def recall_table(path):
        sets = read_records(path, CandidateSet.from_record)
        golds = [t.base for t in read_records(p("test.tagged.jsonl"), tagged_from_record)]
        return recall_at_k(sets, golds, ks=grid)

    print("\n== retrieval recall on the in-KB test split")
    dense = recall_table(p("dense.candidates.jsonl"))
    bm25 = recall_table(p("bm25.candidates.jsonl"))
    print(f"{'k':>4}" + "".join(f"{k:>8}" for k in grid))
    print("dense" + "".join(f"{dense[k]:>8.3f}" for k in grid))
    print("bm25 " + "".join(f"{bm25[k]:>8.3f}" for k in grid))
    print(f"\nartifacts in {w}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
