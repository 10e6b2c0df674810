#!/usr/bin/env python3
"""eventlink benchmark: real CLI stages on three workloads, checked by its own oracles.

Usage (from the repository root):

    python3 bench/run.py --workload {toy-train,large-kb-link,long-rerank} \\
        --seed N --seconds S --trace {0,1}

One run writes the workload's inputs from the seed several times (the
median is ``setup_s``), makes one untimed pass at tiny sizes to warm the
process, then repeats the workload's CLI stages, each called in-process
through ``eventlink.cli.main`` as a user runs it, until ``--seconds``
have passed. Each time metric is the median over those passes. The
oracles in ``oracles.py`` then check the outputs, and every later pass
must write byte-identical files. With ``--trace 1`` passes alternate
between untraced and traced; the traced ones give the per-layer metrics,
and the difference of the two medians is the tracing overhead.

Times are scaled to a reference machine speed. This machine's cores are
shared with other tenants and their speed drifts by 10-15% between runs,
so a fixed CPU-bound probe that never calls eventlink is timed before
and after every stage, and the stage's wall time is multiplied by
``PROBE_REF_S`` over the mean of those two probe times. The raw wall
times are kept in the full record.

The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``, where ``attempted``
counts stage invocations plus oracle checks and ``failed`` those that
failed. The full record (environment, sizes, every pass, oracle
failures, self times) is printed before it and written to
``.bench_work/<workload>/result.json``; traced spans go to
``trace-spans-<n>.npz`` beside it.
"""

from __future__ import annotations

import os
import sys

# BLAS threads are fixed before numpy loads: one closed-loop client on a
# small shared machine, so one thread, which is at most nproc.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = BLAS_THREADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [HERE, SRC]

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

SETUP_REPEATS = 5
# Nominal probe time: probe-scaled times read as seconds on a machine
# where the probe takes exactly this long.
PROBE_REF_S = 0.025
PROBE_ITERATIONS = 3300


def _import_program():
    """Import eventlink from this checkout's ``src``, never from anywhere else."""
    try:
        import eventlink
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import eventlink from {SRC}: {exc}")
    where = os.path.dirname(os.path.abspath(eventlink.__file__))
    if os.path.commonpath([where, SRC]) != SRC:
        raise SystemExit(f"bench: eventlink was imported from {where}, not from {SRC}")


def probe() -> float:
    """Seconds for a fixed mix of small numpy calls and Python sorting."""
    import numpy as np

    x = np.linspace(0.0, 1.0, 64)
    w = np.eye(64)
    t0 = time.perf_counter()
    for _ in range(PROBE_ITERATIONS):
        float(np.linalg.norm(w @ x))
        sorted(range(64), key=lambda i: -i)
    return time.perf_counter() - t0


class Clock:
    """Times calls in raw and in probe-scaled seconds, probing between calls."""

    def __init__(self):
        self.last_probe = probe()
        self.probes = [self.last_probe]

    def time(self, fn):
        t0 = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - t0
        after = probe()
        self.probes.append(after)
        scaled = raw * PROBE_REF_S / ((self.last_probe + after) / 2)
        self.last_probe = after
        return result, raw, scaled


def env_record() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "machine": platform.machine(),
    }


def digest_dir(path: str) -> dict[str, str]:
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def run_pass(workload, inputs, out: str, checks, clock: Clock, tracer=None) -> dict:
    """Run every stage in order, cold; return raw and scaled seconds per stage label.

    A stage with ``repeats > 1`` is invoked that many times in a row and
    counts with its median; a traced pass invokes every stage once.
    Labels that occur more than once in a pass add up.
    """
    from eventlink.cli import main as cli_main

    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    raw: dict[str, float] = {}
    scaled: dict[str, float] = {}
    for stage in workload.stages(inputs, out):
        if stage.label == "retrieve.eval":
            workload.write_eval_set(out)
        span_name = f"cli.{stage.argv[0]}"
        samples = []
        for _ in range(1 if tracer else stage.repeats):
            sink_out, sink_err = io.StringIO(), io.StringIO()

            def invoke():
                with contextlib.redirect_stdout(sink_out), contextlib.redirect_stderr(sink_err):
                    with tracer.span(span_name) if tracer else contextlib.nullcontext():
                        return cli_main(list(stage.argv))

            code, seconds, scaled_seconds = clock.time(invoke)
            samples.append((seconds, scaled_seconds))
            checks.record(f"stage {stage.label}",
                          None if code == 0 else f"exit {code}: {sink_err.getvalue().strip()}")
        raw[stage.label] = raw.get(stage.label, 0.0) + statistics.median(s[0] for s in samples)
        scaled[stage.label] = scaled.get(stage.label, 0.0) + statistics.median(
            s[1] for s in samples)
    raw["pipeline"] = sum(raw.values())
    scaled["pipeline"] = sum(scaled.values())
    return {"raw": raw, "scaled": scaled}


class DenseHolder:
    """Builds the oracle index on first use, so that a failure there counts as a check."""

    def __init__(self, kb, encoder_state):
        self._args = (kb, encoder_state)
        self._oracle = None

    def get(self):
        import oracles
        import workloads

        if self._oracle is None:
            self._oracle = oracles.DenseOracle(*self._args, workloads.STYLE)
        return self._oracle


def run_oracles(workload, inputs, out: str, checks, seed: int) -> dict:
    """Check the last pass's outputs; return the quality figures."""
    import oracles as o
    import workloads as w

    k = workload.sizes["k"]
    path = lambda name: os.path.join(out, name)  # noqa: E731
    quality = {}
    if workload.name == "toy-train":
        kb = o.read_records(path("kb.norm.jsonl"))
        kb_ids = {e["id"] for e in kb}
        scorer = o.read_json(path("scorer.json"))
        test = o.read_records(path("test.tagged.jsonl"))
        evalset = o.read_records(path("eval.tagged.jsonl"))
        dense = DenseHolder(kb, o.read_json(path("encoder.json")))
        for name, queries in (("dense", test), ("eval", evalset)):
            cands = o.read_records(path(f"{name}.candidates.jsonl"))
            checks.run(f"structure {name}.candidates", o.check_candidate_sets,
                       cands, queries, kb_ids, k)
            checks.run(f"oracle dense top-k ({name}, query len {w.RETRIEVE_QUERY_LEN})",
                       lambda: o.check_dense(dense.get(), queries, cands, w.RETRIEVE_QUERY_LEN,
                                             k, o.sample_positions(len(queries), seed)))
        bm25 = o.read_records(path("bm25.candidates.jsonl"))
        checks.run("structure bm25.candidates", o.check_candidate_sets, bm25, test, kb_ids, k)
        for name, rule in (("learned", ("learned",)),
                           ("threshold_conventional", ("threshold", 0.5, "conventional")),
                           ("threshold_literal", ("threshold", 0.5, "literal"))):
            decisions = o.read_records(path(f"decisions.{name}.jsonl"))
            checks.run(f"structure decisions.{name}", o.check_decisions,
                       decisions, evalset, kb_ids, w.K)
            checks.run(f"oracle pair scores ({name}, query len {w.LINK_QUERY_LEN})",
                       lambda: o.check_link(dense.get(), scorer, evalset, decisions, rule,
                                            w.LINK_QUERY_LEN, w.CANDIDATE_LEN, w.K,
                                            o.sample_positions(len(evalset), seed + 1)))
            checks.run(f"quality eval report {name}", o.check_report,
                       o.read_json(path(f"{name}.json")), decisions, evalset, cands, w.K)
            if name == "learned":
                quality["accuracy_all"] = o.accuracy(decisions, evalset)
                quality["accuracy_out_of_kb"] = o.accuracy(decisions, evalset, out_of_kb=True)
        quality["recall_at_10"] = o.recall_at(cands, evalset, 10)
        return quality

    kb = o.read_records(inputs.paths["kb"])
    kb_ids = {e["id"] for e in kb}
    queries = o.read_records(inputs.paths["queries"])
    dense = DenseHolder(kb, o.read_json(inputs.paths["encoder"]))
    cands = o.read_records(path("dense.candidates.jsonl"))
    decisions = o.read_records(path("decisions.learned.jsonl"))
    sample = o.sample_positions(len(queries), seed)
    checks.run("structure dense.candidates", o.check_candidate_sets, cands, queries, kb_ids, k)
    checks.run("structure bm25.candidates", o.check_candidate_sets,
               o.read_records(path("bm25.candidates.jsonl")), queries, kb_ids, k)
    checks.run("structure decisions.learned", o.check_decisions, decisions, queries, kb_ids, k)
    checks.run(f"oracle dense top-k (retrieve, query len {w.RETRIEVE_QUERY_LEN})",
               lambda: o.check_dense(dense.get(), queries, cands, w.RETRIEVE_QUERY_LEN, k, sample))
    checks.run(f"oracle pair scores (learned, query len {w.LINK_QUERY_LEN})",
               lambda: o.check_link(dense.get(), o.read_json(inputs.paths["scorer"]), queries,
                                    decisions, ("learned",), w.LINK_QUERY_LEN, w.CANDIDATE_LEN,
                                    k, sample))
    quality["accuracy_all"] = o.accuracy(decisions, queries)
    quality["recall_at_10"] = o.recall_at(cands, queries, 10)
    return quality


def end_to_end(workload, sizes: dict, passes: list[dict], setup_s: float, quality: dict) -> dict:
    """The end-to-end metrics of ``BENCHMARK.json``: medians of scaled times over passes."""
    med = {label: statistics.median(p["scaled"][label] for p in passes)
           for label in passes[0]["scaled"]}
    if workload.name == "toy-train":
        n_retrieve, n_link = sizes["test"], sizes["eval"]
    else:
        n_retrieve = n_link = sizes["queries"]
    # a run whose oracles could not read the outputs reports quality 0; it is
    # already marked incorrect
    return {
        "setup_s": (setup_s, "s"),
        "pipeline_s": (med["pipeline"], "s"),
        "index_rows_per_s": (sizes["entries"] / med["index"], "1/s"),
        "retrieve_qps": (n_retrieve / med["retrieve.dense"], "1/s"),
        "bm25_qps": (n_retrieve / med["retrieve.bm25"], "1/s"),
        "link_qps": (n_link / med["link.learned"], "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "recall_at_10": (quality.get("recall_at_10", 0.0), "ratio"),
        "accuracy_all": (quality.get("accuracy_all", 0.0), "ratio"),
    }


def toy_extras(workload, out: str, passes: list[dict], quality: dict) -> dict:
    """toy-train figures no other workload has; kept in the full record only."""
    import oracles

    s = workload.sizes
    pairs = sum(q["gold"] != "NIL"
                for q in oracles.read_records(os.path.join(out, "train.tagged.jsonl")))
    rows = pairs + len(oracles.read_records(os.path.join(out, "negatives.train.jsonl")))

    def med(label):
        return statistics.median(p["scaled"][label] for p in passes)

    return {
        "train_bi_examples_per_s": s["bi_epochs"] * pairs / med("train-bi"),
        "train_cross_rows_per_s": s["cross_epochs"] * rows / med("train-cross"),
        "accuracy_out_of_kb": quality.get("accuracy_out_of_kb"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny input sizes, for the benchmark's own smoke test")
    args = parser.parse_args(argv)

    _import_program()
    import numpy as np

    import oracles
    import tracing
    import workloads

    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}; expected one of {workloads.NAMES}")
    workload = workloads.make(args.workload, tiny=args.tiny)
    work = os.path.join(ROOT, ".bench_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    in_dir, out_dir = os.path.join(work, "inputs"), os.path.join(work, "out")
    clock = Clock()

    setup_raw, setup_scaled = [], []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(in_dir, ignore_errors=True)
        inputs, raw, scaled = clock.time(lambda: workload.setup(in_dir, args.seed))
        setup_raw.append(raw)
        setup_scaled.append(scaled)

    # One untimed pass at tiny sizes first, so lazy imports and first-call
    # costs of the process do not land in the first timed pass.
    warm = workloads.make(args.workload, tiny=True)
    warm_dir = os.path.join(work, "warmup")
    run_pass(warm, warm.setup(os.path.join(warm_dir, "inputs"), args.seed),
             os.path.join(warm_dir, "out"), oracles.Checks(), clock)
    shutil.rmtree(warm_dir)

    checks = oracles.Checks()
    plain, traced, tracers = [], [], []
    first_digests = None
    start = time.perf_counter()
    while True:
        tracer = tracing.Tracer() if args.trace and len(plain) > len(traced) else None
        if tracer:
            tracing.install(tracer)
        try:
            result = run_pass(workload, inputs, out_dir, checks, clock, tracer)
        finally:
            if tracer:
                tracer.restore()
        (traced if tracer else plain).append(result)
        if tracer:
            tracers.append(tracer)
        digests = digest_dir(out_dir)
        if first_digests is None:
            first_digests = digests
        else:
            checks.record("outputs identical to the first pass",
                          None if digests == first_digests else "outputs differ between passes")
        if time.perf_counter() - start >= args.seconds and (traced or not args.trace):
            break
    measured_s = time.perf_counter() - start

    try:
        if workload.name == "toy-train":
            inputs.sizes["eval"] = len(oracles.read_records(
                os.path.join(out_dir, "eval.tagged.jsonl")))
        quality = run_oracles(workload, inputs, out_dir, checks, args.seed)
    except (OSError, ValueError, KeyError) as exc:  # e.g. a stage left no output
        checks.record("oracles", f"{type(exc).__name__}: {exc}")
        quality = {}

    sizes = {**workload.sizes, **inputs.sizes}
    record = {
        "workload": workload.name,
        "why": workload.why,
        "sizes": sizes,
        "load": "closed loop: one client, one CLI stage at a time, no pools",
        "seed": args.seed,
        "seconds": args.seconds,
        "measured_s": measured_s,
        "trace": args.trace,
        "env": env_record(),
        "probe_ref_s": PROBE_REF_S,
        "probe_s": clock.probes,
        "setup_raw_s": setup_raw,
        "setup_scaled_s": setup_scaled,
        "untraced_passes": plain,
        "traced_passes": traced,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "error_rate": checks.failed / checks.attempted,
        "failures": checks.failures,
        "quality": quality,
    }
    e2e = end_to_end(workload, sizes, plain, statistics.median(setup_scaled), quality)
    record["end_to_end"] = {name: value for name, (value, _) in e2e.items()}
    if workload.name == "toy-train" and not checks.failed:
        record["toy_train_only"] = toy_extras(workload, out_dir, plain, quality)
    metrics = e2e
    if args.trace:
        overhead = (statistics.median(p["scaled"]["pipeline"] for p in traced)
                    - statistics.median(p["scaled"]["pipeline"] for p in plain))
        summaries = [t.summary() for t in tracers]
        metrics = tracing.per_layer(summaries, [t.counts for t in tracers], overhead)
        record["per_layer"] = {name: value for name, (value, _) in metrics.items()}
        record["self_s"] = {
            name: float(np.median([s[name]["self_s"] for s in summaries if name in s]))
            for name in sorted({n for s in summaries for n in s})
        }
        for n, tracer in enumerate(tracers):
            tracer.save(os.path.join(work, f"trace-spans-{n}.npz"))
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
