"""In-memory span tracer that times eventlink's public functions from outside.

The program carries no tracing of its own, so the benchmark wraps the
functions it names here while a traced pass runs and restores them after.
A wrapper replaces the function in every ``eventlink`` module that binds
it, because ``cli``, ``training`` and ``neggen`` import names such as
``retrieve`` and ``format_query`` directly. Methods are patched on their
class.

Each span keeps its name, start, end and parent; a layer's self time is
its span minus the time its child spans cover. Counts that make ratios
(tokens encoded, rows scored, bytes written) are taken at the same
boundaries.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

from eventlink import artifacts, cli, encoders, evaluation, formatting, kb, neggen, rerank
from eventlink import retrieval, training


class Tracer:
    """Spans of one traced pass, kept in flat arrays until written out."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # --- spans -----------------------------------------------------------

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self._active[name] += 1
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int, name: str) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._active[name] -= 1

    def active(self, name: str) -> bool:
        return self._active[name] > 0

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx, name)

    # --- patching ----------------------------------------------------------

    def _replace_everywhere(self, original, wrapper) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != "eventlink" and not modname.startswith("eventlink."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _timed(self, original, name: str, on_call):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(idx, name)
            if on_call is not None:
                on_call(tracer, args, result)
            return result

        return wrapper

    def wrap_function(self, module, attr: str, name: str, on_call=None) -> None:
        original = getattr(module, attr)
        self._replace_everywhere(original, self._timed(original, name, on_call))

    def wrap_method(self, cls, attr: str, name: str, on_call=None) -> None:
        original = getattr(cls, attr)
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self._timed(original, name, on_call))

    def wrap_generator(self, module, attr: str, name: str) -> None:
        """One span per item produced; consumer time between items is not counted."""
        original = getattr(module, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            inner = original(*args, **kwargs)
            try:
                while True:
                    idx = tracer.open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(idx, name)
                    tracer.counts[name + ".records"] += 1
                    yield item
            finally:
                inner.close()

        self._replace_everywhere(original, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # --- results -------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
        }

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, busy (inclusive) and self seconds, durations."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        own = dur - child
        out = {}
        for nid, name in enumerate(self.names):
            mask = a["name_id"] == nid
            out[name] = {
                "calls": int(mask.sum()),
                "busy_s": float(dur[mask].sum()),
                "self_s": float(own[mask].sum()),
                "durations": dur[mask],
            }
        return out

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names, dtype=object).astype(str), **self.arrays())


# --- what the benchmark traces ------------------------------------------------


def _count_forward(tracer: Tracer, args, result) -> None:
    tracer.counts["encoders.forward.tokens"] += len(args[1])
    if tracer.active("rerank.score_pairs"):
        tracer.counts["rerank.score_pairs.forwards"] += 1


def _count_retrieve(tracer: Tracer, args, result) -> None:
    tracer.counts["retrieval.retrieve.rows_scored"] += args[0].n


def _count_format(tracer: Tracer, args, result) -> None:
    if tracer.active("cli.link"):
        tracer.counts["formatting.format_query.in_link"] += 1


def _count_decision(tracer: Tracer, args, result) -> None:
    if tracer.active("cli.link"):
        tracer.counts["cli.link.queries"] += 1


def _count_generation(tracer: Tracer, args, result) -> None:
    _, records = result
    tracer.counts["neggen.attempted"] += len(records)
    tracer.counts["neggen.accepted"] += sum(r.status == "accepted" for r in records)


def _count_write(tracer: Tracer, args, result) -> None:
    tracer.counts["artifacts.atomic_write_text.bytes"] += len(args[1].encode("utf-8"))


def _count_digest(tracer: Tracer, args, result) -> None:
    tracer.counts["artifacts.file_digest.bytes"] += os.path.getsize(args[0])


def install(tracer: Tracer) -> None:
    """Wrap every traced function; ``tracer.restore()`` undoes it."""
    t = tracer
    t.wrap_method(encoders.TinyEncoder, "forward", "encoders.forward", _count_forward)
    t.wrap_method(encoders.TinyEncoder, "backward", "encoders.backward")
    t.wrap_function(encoders, "encoder_fingerprint", "encoders.encoder_fingerprint")
    t.wrap_function(encoders, "load_encoder", "encoders.load_encoder")
    t.wrap_function(training, "biencoder_batch_loss", "training.biencoder_batch_loss")
    t.wrap_function(training, "crossencoder_batch_loss", "training.crossencoder_batch_loss")
    t.wrap_function(training, "mine_candidates", "training.mine_candidates")
    t.wrap_function(retrieval, "retrieve", "retrieval.retrieve", _count_retrieve)
    t.wrap_function(retrieval, "build_index", "retrieval.build_index")
    t.wrap_function(retrieval, "bm25_build", "retrieval.bm25_build")
    t.wrap_function(retrieval, "bm25_retrieve", "retrieval.bm25_retrieve")
    t.wrap_function(rerank, "score_pairs", "rerank.score_pairs")
    t.wrap_function(rerank, "select_learned_nil", "rerank.select_learned_nil", _count_decision)
    t.wrap_function(rerank, "select_threshold", "rerank.select_threshold", _count_decision)
    t.wrap_function(formatting, "format_query", "formatting.format_query", _count_format)
    t.wrap_function(neggen, "generate_negatives", "neggen.generate_negatives", _count_generation)
    t.wrap_function(neggen, "build_prompt", "neggen.build_prompt")
    t.wrap_function(artifacts, "atomic_write_text", "artifacts.atomic_write_text", _count_write)
    t.wrap_generator(artifacts, "iter_jsonl", "artifacts.iter_jsonl")
    t.wrap_function(artifacts, "file_digest", "artifacts.file_digest", _count_digest)
    t.wrap_function(cli, "_load_index", "cli.load_index")
    t.wrap_function(kb, "load_kb", "kb.load_kb")
    t.wrap_function(evaluation, "evaluate", "evaluation.evaluate")


# Stage spans opened by the benchmark around each ``cli.main`` call.
STAGES = ("build-kb", "tag", "train-bi", "index", "retrieve", "neg-gen", "train-cross",
          "link", "eval", "report")


def _ms_percentile(durations: np.ndarray, q: float) -> float:
    return float(np.percentile(durations, q) * 1e3) if len(durations) else 0.0


def per_layer(summaries: list[dict], counts: list[Counter], overhead_s: float) -> dict:
    """The per-layer metrics of ``BENCHMARK.json`` from one or more traced passes.

    Counts and calls are per pass (they repeat exactly); busy times are
    medians over passes; percentiles pool the samples of every pass.
    """
    def calls(name):
        return float(np.median([s.get(name, {}).get("calls", 0) for s in summaries]))

    def busy(name):
        return float(np.median([s.get(name, {}).get("busy_s", 0.0) for s in summaries]))

    def pooled(name):
        parts = [s[name]["durations"] for s in summaries if name in s]
        return np.concatenate(parts) if parts else np.zeros(0)

    def count(key):
        return float(np.median([c.get(key, 0) for c in counts]))

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    m["encoders.forward.calls"] = (calls("encoders.forward"), "count")
    m["encoders.forward.tokens"] = (count("encoders.forward.tokens"), "count")
    m["encoders.forward.busy_s"] = (busy("encoders.forward"), "s")
    m["encoders.backward.calls"] = (calls("encoders.backward"), "count")
    m["encoders.backward.busy_s"] = (busy("encoders.backward"), "s")
    m["encoders.encoder_fingerprint.calls"] = (calls("encoders.encoder_fingerprint"), "count")
    m["encoders.encoder_fingerprint.busy_s"] = (busy("encoders.encoder_fingerprint"), "s")
    m["encoders.load_encoder.busy_s"] = (busy("encoders.load_encoder"), "s")
    for fn in ("biencoder_batch_loss", "crossencoder_batch_loss"):
        name = f"training.{fn}"
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.busy_s"] = (busy(name), "s")
        m[f"{name}.p50_ms"] = (_ms_percentile(pooled(name), 50), "ms")
    m["training.mine_candidates.busy_s"] = (busy("training.mine_candidates"), "s")
    m["retrieval.retrieve.calls"] = (calls("retrieval.retrieve"), "count")
    m["retrieval.retrieve.busy_s"] = (busy("retrieval.retrieve"), "s")
    m["retrieval.retrieve.p50_ms"] = (_ms_percentile(pooled("retrieval.retrieve"), 50), "ms")
    m["retrieval.retrieve.p99_ms"] = (_ms_percentile(pooled("retrieval.retrieve"), 99), "ms")
    m["retrieval.retrieve.rows_scored"] = (count("retrieval.retrieve.rows_scored"), "count")
    m["retrieval.build_index.busy_s"] = (busy("retrieval.build_index"), "s")
    m["retrieval.bm25_build.busy_s"] = (busy("retrieval.bm25_build"), "s")
    m["retrieval.bm25_retrieve.calls"] = (calls("retrieval.bm25_retrieve"), "count")
    m["retrieval.bm25_retrieve.busy_s"] = (busy("retrieval.bm25_retrieve"), "s")
    m["retrieval.bm25_retrieve.p50_ms"] = (
        _ms_percentile(pooled("retrieval.bm25_retrieve"), 50), "ms")
    m["rerank.score_pairs.calls"] = (calls("rerank.score_pairs"), "count")
    m["rerank.score_pairs.busy_s"] = (busy("rerank.score_pairs"), "s")
    m["rerank.score_pairs.p50_ms"] = (_ms_percentile(pooled("rerank.score_pairs"), 50), "ms")
    m["rerank.score_pairs.p99_ms"] = (_ms_percentile(pooled("rerank.score_pairs"), 99), "ms")
    m["rerank.forwards_per_query"] = (
        ratio(count("rerank.score_pairs.forwards"), calls("rerank.score_pairs")), "ratio")
    m["rerank.select_learned_nil.busy_s"] = (busy("rerank.select_learned_nil"), "s")
    m["rerank.select_threshold.busy_s"] = (busy("rerank.select_threshold"), "s")
    m["formatting.format_query.calls"] = (calls("formatting.format_query"), "count")
    m["formatting.format_query.busy_s"] = (busy("formatting.format_query"), "s")
    m["formatting.format_query.calls_per_linked_query"] = (
        ratio(count("formatting.format_query.in_link"), count("cli.link.queries")), "ratio")
    m["neggen.generate_negatives.busy_s"] = (busy("neggen.generate_negatives"), "s")
    m["neggen.build_prompt.calls"] = (calls("neggen.build_prompt"), "count")
    m["neggen.build_prompt.busy_s"] = (busy("neggen.build_prompt"), "s")
    m["neggen.accept_ratio"] = (
        ratio(count("neggen.accepted"), count("neggen.attempted")), "ratio")
    m["artifacts.atomic_write_text.calls"] = (calls("artifacts.atomic_write_text"), "count")
    m["artifacts.atomic_write_text.bytes"] = (count("artifacts.atomic_write_text.bytes"), "bytes")
    m["artifacts.atomic_write_text.busy_s"] = (busy("artifacts.atomic_write_text"), "s")
    m["artifacts.iter_jsonl.records"] = (count("artifacts.iter_jsonl.records"), "count")
    m["artifacts.iter_jsonl.busy_s"] = (busy("artifacts.iter_jsonl"), "s")
    m["artifacts.file_digest.bytes"] = (count("artifacts.file_digest.bytes"), "bytes")
    m["artifacts.file_digest.busy_s"] = (busy("artifacts.file_digest"), "s")
    m["cli.load_index.busy_s"] = (busy("cli.load_index"), "s")
    m["kb.load_kb.busy_s"] = (busy("kb.load_kb"), "s")
    m["evaluation.evaluate.busy_s"] = (busy("evaluation.evaluate"), "s")
    for stage in STAGES:
        m[f"cli.{stage}.wall_s"] = (busy(f"cli.{stage}"), "s")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m
