"""Smoke runs of the paper scripts, so that a change to the library API
they use cannot break them unnoticed."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tightness_gap_runs(capsys):
    assert load("tightness_gap").main(["--instances", "50"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("instances        50\n")
    assert "fixpoint exact" in out


def test_storage_table_runs(capsys):
    assert load("storage_table").main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[0] == "atoms"
    assert len(lines) == 2 + 20
