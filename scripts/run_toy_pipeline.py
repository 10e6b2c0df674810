#!/usr/bin/env python3
"""End-to-end desk-scale experiment on the synthetic event corpus.

Builds the toy KB and query splits, trains the retriever and the cross
scorer (with argument-manipulated negatives from the deterministic
rewrite client), links a combined eval set (in-KB test queries plus
held-out synthetic out-of-KB queries) under the learned-NIL and both
threshold rules, and prints the comparison alongside a dense-vs-BM25
recall table. The stages are ``eventlink.toy.toy_stages``.

Usage: python scripts/run_toy_pipeline.py --workdir out/toy --seed 0
"""

import argparse
import dataclasses
import os
import sys

from eventlink.artifacts import read_json, read_records
from eventlink.cli import main as cli
from eventlink.evaluation import recall_at_k
from eventlink.extraction import tagged_from_record
from eventlink.retrieval import CandidateSet
from eventlink.toy import ToyConfig, build_toy_data, toy_stages
from eventlink.toy import write_toy_eval_set, write_toy_inputs

# printed before the first stage of each command named
HEADINGS = {
    "train-bi": "== training retriever encoder",
    "neg-gen": "== generating out-of-KB negatives (deterministic rewrite client)",
    "train-cross": "== training cross scorer with learned out-of-KB option",
}


def run(stages, headings):
    for argv in stages:
        if argv[0] in headings:
            print(headings.pop(argv[0]))
        code = cli(argv)
        if code != 0:
            raise SystemExit(f"stage {argv[0]} failed with exit code {code}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", default="out/toy")
    parser.add_argument("--entries", type=int, default=50)
    parser.add_argument("--train", type=int, default=200)
    parser.add_argument("--test", type=int, default=50)
    for field in dataclasses.fields(ToyConfig):
        parser.add_argument("--" + field.name.replace("_", "-"), type=int, default=field.default)
    args = parser.parse_args(argv)
    if args.test < 1:  # the recall table averages over the test split
        parser.error(f"--test must be at least 1, not {args.test}")
    try:
        data = build_toy_data(args.entries, args.train, args.test, seed=7)
    except ValueError as exc:
        parser.error(str(exc))

    w = args.workdir
    os.makedirs(w, exist_ok=True)
    config = ToyConfig(**{field.name: getattr(args, field.name)
                          for field in dataclasses.fields(ToyConfig)})
    stages = toy_stages(w, write_toy_inputs(w, data), data.kb.n, config)
    p = stages.paths

    print(f"== corpus: {args.entries} entries, {args.train} train / {args.test} test")
    headings = dict(HEADINGS)
    run(stages.prepare, headings)
    write_toy_eval_set(p)
    run(stages.evaluate, headings)

    _, comparison = read_json(p["comparison"])
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

    golds = [t.base for t in read_records(p["test_tagged"], tagged_from_record)]

    def recall_table(path):
        return recall_at_k(read_records(path, CandidateSet.from_record), golds, ks=stages.ks)

    print("\n== retrieval recall on the in-KB test split")
    dense = recall_table(p["candidates"])
    bm25 = recall_table(p["bm25_candidates"])
    print(f"{'k':>4}" + "".join(f"{k:>8}" for k in stages.ks))
    print("dense" + "".join(f"{dense[k]:>8.3f}" for k in stages.ks))
    print("bm25 " + "".join(f"{bm25[k]:>8.3f}" for k in stages.ks))
    print(f"\nartifacts in {w}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
