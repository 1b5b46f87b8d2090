"""Smoke runs of the scripts, so that a change to the library API or to
the benchmark's output that they use cannot break them unnoticed."""

import json
from pathlib import Path

from helpers import load_script

ROOT = Path(__file__).resolve().parent.parent


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


def test_bench_pairs_runs(capsys):
    argv = ["--parent", str(ROOT), "--change", str(ROOT), "--workload", "exact-solve"]
    assert load_script("bench_pairs").main(argv + ["--seeds", "11", "--seconds", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "workload exact-solve, seeds 11-11, 0 s per run, 1 pairs"
    metrics = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    assert [line.split()[0] for line in lines[2:]] == metrics
    assert all(line.split()[-1] in ("0/1", "1/1") for line in lines[2:])
