import runpy
from pathlib import Path

import pytest

from eventlink.llm import FICTIONAL_NAMES, StorytellerMock
from eventlink.toy import _CODAS, _ONSETS, MAX_TOY_ENTRIES, build_toy_data

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


def test_script_refuses_an_empty_test_split_as_usage_error(tmp_path, capsys):
    # the recall table after the last stage needs at least one test query
    with pytest.raises(SystemExit) as exit_info:
        _script_main()(["--workdir", str(tmp_path / "run"), "--entries", "8", "--train", "16",
                        "--test", "0"])
    assert exit_info.value.code == 2
    assert "--test must be at least 1, not 0" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_storyteller_vocabulary_is_disjoint_from_the_toy_corpus():
    corpus_names = {(onset + coda).lower() for onset in _ONSETS for coda in _CODAS}
    assert not {name.lower() for name in FICTIONAL_NAMES} & corpus_names
    # every toy year, tagged and plain, is replaced by a year after the toy range
    years = [str(year) for year in range(1400, 1900)]
    for seed in (0, 1, 2):
        mock = StorytellerMock(seed)
        tagged = " ".join(f"<Time> {year} </Time>" for year in years)
        completion = mock.complete(f"Example 3:\nPassage: {tagged}\n\nAdditional information")
        written = completion.rsplit("after Step 2: ", 1)[1].split()
        plain = mock.complete(f"Example 3:\nPassage: <mention> x </mention> {' '.join(years)}"
                              "\n\nNew passage:").removeprefix("New passage: ").split()[3:]
        for token in [t for t in written if not t.startswith("<")] + plain:
            assert 2100 <= int(token) <= 2999
