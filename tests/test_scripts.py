"""Smoke runs of the paper scripts, so that a change to the library API
they use cannot break them unnoticed."""

from helpers import load_script


def test_tightness_gap_runs(capsys):
    assert load_script("tightness_gap").main(["--instances", "50"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("instances        50\n")
    assert "fixpoint exact" in out


def test_storage_table_runs(capsys):
    assert load_script("storage_table").main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[0] == "atoms"
    assert len(lines) == 2 + 20
