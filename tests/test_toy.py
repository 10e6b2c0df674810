import runpy
from pathlib import Path

import pytest

from eventlink.toy import MAX_TOY_ENTRIES, build_toy_data

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_toy_pipeline.py"


def _script_main():
    return runpy.run_path(str(SCRIPT))["main"]


def test_script_runs_on_a_kb_smaller_than_the_default_k(tmp_path, capsys):
    # 8 entries: every --k of the stage list is capped at the KB size
    code = _script_main()([
        "--workdir", str(tmp_path), "--entries", "8", "--train", "16", "--test", "8",
        "--bi-epochs", "2", "--cross-epochs", "1", "--train-negatives", "4",
        "--eval-negatives", "2",
    ])
    assert code == 0
    rows = [line.split()[0] for line in capsys.readouterr().out.splitlines() if line.strip()]
    for rule in ("learned_nil", "threshold_conventional", "threshold_literal"):
        assert rule in rows


@pytest.mark.parametrize("n_entries", [67, 0])
def test_corpus_size_outside_its_names_is_refused_before_drawing(n_entries):
    assert MAX_TOY_ENTRIES == 66
    assert build_toy_data(66, 1, 1).kb.n == 66
    with pytest.raises(ValueError, match=f"1 to 66 entries, not {n_entries}"):
        build_toy_data(n_entries, 1, 1)


def test_script_reports_a_corpus_too_large_as_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        _script_main()(["--workdir", str(tmp_path / "run"), "--entries", "67"])
    assert exit_info.value.code == 2
    assert "1 to 66 entries, not 67" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()
