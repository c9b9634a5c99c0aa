"""The README's "Library quick tour" runs and gives the values its comments promise."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_tour() -> str:
    text = README.read_text()
    section = text.split("## Library quick tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_tour_runs_as_documented(capsys):
    ns: dict = {}
    exec(compile(quick_tour(), "README.md", "exec"), ns)
    assert ns["c_star"] == pytest.approx(2.0, abs=1e-6)
    assert ns["z_star"] == pytest.approx(1.0, abs=1e-6)
    sd = ns["prob"].spectral
    assert sd.lambda_l == pytest.approx(0.5, abs=1e-8)
    assert sd.lambda_r == pytest.approx(2.0, abs=1e-8)
    assert ns["fit"].lambda_hat == pytest.approx(0.5, abs=0.01)
    assert ns["fit"].k_hat == 0
    assert ns["report"].verdict == "pass"
    assert capsys.readouterr().out.startswith("verdict: PASS")
