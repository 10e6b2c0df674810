"""The names the benchmark imports and wraps still exist.

``bench/workloads.py`` imports ``kb.KBEntry``, and ``bench/tracing.py`` wraps
functions such as ``kb.load_kb``, ``retrieval.retrieve``,
``TinyEncoder.forward`` and ``cli._load_index`` by name. Renaming or
removing one of them then fails here, and not only in a benchmark run.
"""

import importlib
import os

from eventlink import cli, encoders, kb, retrieval

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def test_benchmark_imports_and_installs_its_tracer(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    workloads = importlib.import_module("workloads")
    tracing = importlib.import_module("tracing")
    assert workloads.KBEntry is kb.KBEntry
    originals = (kb.load_kb, retrieval.retrieve, encoders.TinyEncoder.forward, cli._load_index)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        wrapped = (kb.load_kb, retrieval.retrieve, encoders.TinyEncoder.forward, cli._load_index)
        assert all(new is not old for new, old in zip(wrapped, originals))
    finally:
        tracer.restore()
    assert (kb.load_kb, retrieval.retrieve, encoders.TinyEncoder.forward, cli._load_index) == originals
