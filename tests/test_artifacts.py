import os

import numpy as np
import pytest

from eventlink.encoders import TinyEncoder, save_encoder
from eventlink.rerank import TinyCrossScorer
from eventlink.retrieval import DenseIndex


class _FailingFile:
    """Writes the first half of the text, then fails like a full disk."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[: len(text) // 2])
        self.fh.flush()
        raise OSError("no space left on device")


@pytest.mark.parametrize("save", [
    lambda path: save_encoder(TinyEncoder(["a", "b"], 8, seed=0), path),
    lambda path: TinyCrossScorer(["a", "b"], 8, seed=0).save(path),
    lambda path: DenseIndex(("E0", "E1"), np.eye(2), "t").save(path),
], ids=["encoder", "cross-scorer", "index"])
def test_library_save_failing_partway_leaves_no_file(tmp_path, monkeypatch, save):
    real_fdopen = os.fdopen
    monkeypatch.setattr(os, "fdopen", lambda *a, **kw: _FailingFile(real_fdopen(*a, **kw)))
    target = tmp_path / "artifact.json"
    with pytest.raises(OSError, match="no space"):
        save(target)
    assert os.listdir(tmp_path) == []
