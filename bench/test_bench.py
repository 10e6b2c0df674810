"""Smoke test of the benchmark itself, at tiny input sizes.

Run from the repository root: ``python3 -m pytest bench/test_bench.py -q``.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import oracles  # noqa: E402
import workloads  # noqa: E402
from eventlink.cli import main as cli_main  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0.1",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    printed = result["metrics"]
    assert {m["name"]: m["unit"] for m in listed} == {n: v["unit"] for n, v in printed.items()}
    assert all(math.isfinite(v["value"]) for v in printed.values())


def test_corrupted_candidates_fail_the_dense_oracle(tmp_path):
    workload = workloads.make("large-kb-link", tiny=True)
    inputs = workload.setup(str(tmp_path / "inputs"), seed=5)
    out = str(tmp_path / "candidates.jsonl")
    code = cli_main(["retrieve", "--index", _index(inputs, tmp_path), "--queries",
                     inputs.paths["queries"], "--encoder", inputs.paths["encoder"],
                     "--k", str(workloads.K), "--out", out])
    assert code == 0
    kb = oracles.read_records(inputs.paths["kb"])
    queries = oracles.read_records(inputs.paths["queries"])
    dense = oracles.DenseOracle(kb, oracles.read_json(inputs.paths["encoder"]), workloads.STYLE)
    everything = list(range(len(queries)))
    candidates = oracles.read_records(out)
    args = (workloads.RETRIEVE_QUERY_LEN, workloads.K, everything)
    assert oracles.check_dense(dense, queries, candidates, *args) is None

    swapped = json.loads(json.dumps(candidates))
    first = swapped[3]["candidates"]
    first[0]["id"], first[1]["id"] = first[1]["id"], first[0]["id"]
    assert "ids" in oracles.check_dense(dense, queries, swapped, *args)

    replaced = json.loads(json.dumps(candidates))
    taken = {c["id"] for c in replaced[3]["candidates"]}
    replaced[3]["candidates"][-1]["id"] = next(e["id"] for e in kb if e["id"] not in taken)
    assert "ids" in oracles.check_dense(dense, queries, replaced, *args)

    nudged = json.loads(json.dumps(candidates))
    nudged[3]["candidates"][0]["score"] += 1e-6
    assert "scores" in oracles.check_dense(dense, queries, nudged, *args)


def _index(inputs, tmp_path) -> str:
    path = str(tmp_path / "index.json")
    assert cli_main(["index", "--kb", inputs.paths["kb"], "--encoder", inputs.paths["encoder"],
                     "--out", path]) == 0
    return path


def test_fails_without_printing_a_result_when_the_program_is_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run("--workload", "toy-train", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
