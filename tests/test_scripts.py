"""Command-line scripts under ``scripts/``, loaded from their files."""

import importlib.util
import os

import pytest

SCRIPTS = os.path.join(os.path.dirname(__file__), os.pardir, "scripts")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"scripts_{name}", os.path.join(SCRIPTS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("argv", [["--points", "0"], ["--points", "-3"], ["--mc", "-5"]])
def test_band_sweep_refuses_empty_grids_and_negative_samples(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        _load("band_sweep").main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and argv[0] in err


def test_band_sweep_prints_one_row_per_grid_point(capsys):
    assert _load("band_sweep").main(["--points", "2", "--mc", "100"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "c,p_star,p_s_half,p_path_half,mc_volume_star,mc_gap"
    assert [row.split(",")[:2] for row in lines[1:]] == [
        ["0.500000", "1.037037"], ["1.000000", "1"]]  # pT_star(1/2) = 28/27
