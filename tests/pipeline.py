"""Shared helper running the toy pipeline's CLI stages on a small corpus."""

import dataclasses

from eventlink.cli import main
from eventlink.toy import ToyConfig, build_toy_data, toy_stages
from eventlink.toy import write_toy_eval_set, write_toy_inputs

# the eval set is the test split alone: no generated out-of-KB rows
FIXTURE = ToyConfig(dim=32, bi_epochs=20, cross_epochs=3, train_negatives=10, eval_negatives=0)


def toy_fixture_stages(workdir, **config):
    """The stages of a 20-entry, 60 train / 10 test run; ``config`` overrides ``FIXTURE``."""
    data = build_toy_data(n_entries=20, n_train=60, n_test=10, seed=7)
    inputs = write_toy_inputs(workdir, data)
    return toy_stages(workdir, inputs, data.kb.n, dataclasses.replace(FIXTURE, **config))


def _run(argvs):
    for argv in argvs:
        code = main(argv)
        assert code == 0, f"stage {argv[0]} exited {code}"


def run_stages(stages):
    """Run every stage, writing the eval set between the halves; returns artifact paths.

    Raises AssertionError on any nonzero exit so callers see the failing
    stage immediately.
    """
    _run(stages.prepare)
    write_toy_eval_set(stages.paths)
    _run(stages.evaluate)
    return stages.paths


def run_toy_pipeline(workdir, **config):
    return run_stages(toy_fixture_stages(workdir, **config))
