import re
import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_scaling_comparison_fits_the_exponential_kind_per_system(monkeypatch, capsys):
    # bound_query = 1/(2^N - 1) on base (0, 1): each added system halves it
    script = SCRIPTS / "scaling_comparison.py"
    monkeypatch.setattr(sys, "argv", [str(script)])
    runpy.run_path(str(script), run_name="__main__")
    out = capsys.readouterr().out
    match = re.search(r"^exponential: bound_query ~ ([0-9.]+)\^-N over N = \[2, 4, 8, 16, 32, 64\]$", out, re.M)
    assert match, out
    assert float(match.group(1)) == pytest.approx(2.0, abs=0.01)
    assert re.search(r"^linear: bound_query ~ N\^-1\.000 over", out, re.M)
