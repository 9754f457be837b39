"""Smoke tests: each experiment script runs to completion on small inputs.

The scripts run in process through ``runpy`` as ``__main__``, with their
command line set through ``sys.argv``.
"""

import json
import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(monkeypatch, name, *args):
    monkeypatch.setattr(sys, "argv", [name, *args])
    try:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    except SystemExit as exc:
        assert exc.code in (None, 0), f"{name} exited with {exc.code}"


def test_sampler_comparison(monkeypatch, capsys):
    _run(monkeypatch, "sampler_comparison.py", "--n", "4", "--reps", "500", "--json")
    doc = json.loads(capsys.readouterr().out)
    assert [r["pair"] for r in doc["results"][::2]] == [
        "direct vs chain", "direct vs laguerre-map", "chain vs laguerre-map"]


@pytest.mark.parametrize("n", ["2", "3"])
def test_marginal_density_profile(monkeypatch, capsys, tmp_path, n):
    out = tmp_path / "profile.csv"
    _run(monkeypatch, "marginal_density_profile.py", "--n", n, "--reps", "2000",
         "--bins", "10", "--out", str(out))
    assert out.read_text().splitlines()[0] == "lambda,empirical,theoretical"
    assert len(out.read_text().splitlines()) == 11
    assert "wrote 10 bins" in capsys.readouterr().out


def test_chain_interlacing_demo(monkeypatch, capsys):
    _run(monkeypatch, "chain_interlacing_demo.py", "--n", "5", "--seed", "3")
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("upward chain, n=1..5")
    assert sum(line.strip().startswith("order") for line in lines) == 6
