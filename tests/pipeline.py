"""Shared helper running the full CLI pipeline on the toy corpus."""

import os

from eventlink.cli import main
from eventlink.toy import build_toy_data, write_toy_inputs


def run_toy_pipeline(
    workdir,
    *,
    seed=0,
    n_entries=20,
    n_train=60,
    n_test=10,
    dim=32,
    bi_epochs=20,
    cross_epochs=3,
    neg_count=10,
    neg_k=10,
    cross_k=10,
    lr_bi="0.3",
    lr_cross="0.1",
):
    """Run every pipeline command end to end; returns artifact paths.

    Raises AssertionError on any nonzero exit so callers see the failing
    stage immediately.
    """
    workdir = os.fspath(workdir)
    data = build_toy_data(n_entries=n_entries, n_train=n_train, n_test=n_test, seed=7)
    inputs = write_toy_inputs(workdir, data)
    paths = dict(inputs)
    paths.update(
        kb_norm=os.path.join(workdir, "kb_norm.jsonl"),
        train_tagged=os.path.join(workdir, "train_tagged.jsonl"),
        test_tagged=os.path.join(workdir, "test_tagged.jsonl"),
        encoder=os.path.join(workdir, "encoder.json"),
        index=os.path.join(workdir, "index.json"),
        candidates=os.path.join(workdir, "candidates.jsonl"),
        negatives=os.path.join(workdir, "negatives.jsonl"),
        genlog=os.path.join(workdir, "genlog.jsonl"),
        scorer=os.path.join(workdir, "scorer.json"),
        decisions=os.path.join(workdir, "decisions.jsonl"),
        report=os.path.join(workdir, "report.json"),
    )
    seed = str(seed)
    stages = [
        ["build-kb", "--in", paths["kb"], "--out", paths["kb_norm"]],
        ["tag", "--in", paths["train"], "--out", paths["train_tagged"],
         "--extractor", "rule", "--lexicon", paths["lexicon"]],
        ["tag", "--in", paths["test"], "--out", paths["test_tagged"],
         "--extractor", "rule", "--lexicon", paths["lexicon"]],
        ["train-bi", "--kb", paths["kb_norm"], "--queries", paths["train_tagged"],
         "--out", paths["encoder"], "--dim", str(dim), "--lr", lr_bi,
         "--batch-size", "8", "--epochs", str(bi_epochs), "--seed", seed],
        ["index", "--kb", paths["kb_norm"], "--encoder", paths["encoder"],
         "--out", paths["index"]],
        ["retrieve", "--index", paths["index"], "--queries", paths["test_tagged"],
         "--encoder", paths["encoder"], "--k", str(n_entries), "--out", paths["candidates"]],
        ["neg-gen", "--queries", paths["train_tagged"], "--kb", paths["kb_norm"],
         "--index", paths["index"], "--encoder", paths["encoder"], "--style", "args",
         "--count", str(neg_count), "--k", str(neg_k), "--seed", seed,
         "--out", paths["negatives"],
         "--log", paths["genlog"]],
        ["train-cross", "--kb", paths["kb_norm"], "--queries", paths["train_tagged"],
         "--negatives", paths["negatives"], "--index", paths["index"],
         "--encoder", paths["encoder"], "--out", paths["scorer"], "--dim", str(dim),
         "--lr", lr_cross, "--batch-size", "8", "--epochs", str(cross_epochs),
         "--k", str(cross_k), "--seed", seed],
        ["link", "--kb", paths["kb_norm"], "--queries", paths["test_tagged"],
         "--index", paths["index"], "--encoder", paths["encoder"],
         "--scorer", paths["scorer"], "--rule", "learned", "--out", paths["decisions"]],
        ["eval", "--preds", paths["decisions"], "--gold", paths["test_tagged"],
         "--candidates", paths["candidates"], "--out", paths["report"],
         "--ks", ",".join(str(k) for k in (1, 2, 3, 4, 5, 8, 10, 15, 20) if k <= n_entries)],
    ]
    for argv in stages:
        code = main(argv)
        assert code == 0, f"stage {argv[0]} exited {code}"
    return paths
