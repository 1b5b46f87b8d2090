"""Tests of the benchmark itself: deterministic inputs, oracles that catch
a single corrupted bit or digit, the speed meter, and a dry run that
reports every metric.

Inputs are shrunk (SMALL) so the whole file runs in a few seconds.
"""

from __future__ import annotations

import json
import random
import shutil
import signal
import subprocess
import sys
import time

import pytest

import inputs
import run
import speed
import tracer

SMALL = inputs.Spec(
    wide_width=300,
    wide_atoms=4,
    eval_formulas=2,
    query_kbs=1,
    queries=6,
    record_columns=6,
    record_rows=200,
    record_tables=1,
    target_files=1,
    fixpoint_sentences=60,
    fixpoint_kbs=1,
    chains=1,
    chain_depth=3,
    exact_instances=8,
)

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def program():
    """The CLI module, imported afresh as the benchmark does; the incalc
    modules other tests imported are put back afterwards."""
    saved = {name: m for name, m in sys.modules.items() if name.split(".")[0] == "incalc"}
    yield run.import_program()
    for name in [m for m in sys.modules if m.split(".")[0] == "incalc"]:
        del sys.modules[name]
    sys.modules.update(saved)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_same_inputs(workload, tmp_path):
    built = {}
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        (tmp_path / name).mkdir()
        built[name] = inputs.build(workload, seed, tmp_path / name, SMALL)
    assert built["a"].files == built["b"].files
    for name in built["a"].files:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert built["c"].files != built["a"].files


def _corruptions(out: str, rng: random.Random, count: int):
    """Copies of out with one bit or decimal digit changed."""
    positions = [k for k, ch in enumerate(out) if ch.isdigit()]
    for k in rng.sample(positions, min(count, len(positions))):
        ch = out[k]
        replacement = {"0": "1", "1": "0"}.get(ch, str((int(ch) + 1) % 10))
        yield out[:k] + replacement + out[k + 1 :]


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_oracle_flags_one_corrupted_bit_or_digit(workload, tmp_path, program):
    rng = random.Random(workload)
    generated = inputs.build(workload, 3, tmp_path, SMALL)
    for case in generated.cases[:4]:
        code, out, _, err = run.call(program, case.argv)
        assert case.check(code, out) is None, (case.argv, err)
        assert case.check(1 - code if code in (0, 1) else 0, out) is not None
        for corrupted in _corruptions(out, rng, 25):
            assert case.check(code, corrupted) is not None, (case.argv, corrupted)


def test_meter_samples_during_a_call_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    meter = speed.Meter()
    with meter:
        spent, start = meter.spent, time.perf_counter()
        while time.perf_counter() < start + 0.1:  # one long call
            pass
        end = time.perf_counter()
    inside = [t for t in meter.starts if start < t < end]
    assert len(inside) >= 3
    assert 0 < meter.spent - spent < end - start
    assert 0 < meter.around(start, end) < 0.01
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def _dry_run(workload: str, trace: int, capsys) -> tuple[list[str], dict]:
    argv = ["--workload", workload, "--seed", "5", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_dry_run_prints_every_metric(monkeypatch, capsys, program):
    monkeypatch.setattr(inputs, "FULL", SMALL)
    end_to_end = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(inputs.WORKLOADS)
    assert per_layer == {name: unit for name, unit, _ in tracer.METRICS}
    printed = set()
    for workload in inputs.WORKLOADS:
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            lines, result = _dry_run(workload, trace, capsys)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
            printed |= {line.split(" = ")[0] for line in lines if " = " in line}
    # The per-command names (eval.p50_ms, ...) appear in the human-readable lines.
    for command in ("eval", "query", "solve", "solve_complete", "sample", "ingest"):
        assert {f"{command}.{name}" for name in ("p50_ms", "tail_ms", "p50_ref", "tail_ref")} <= printed
    assert {"setup_s", "peak_rss_mb", "failed_ratio"} | set(per_layer) <= printed
    logic = sys.modules["incalc.logic"]
    assert not hasattr(logic.incidence_of, "__wrapped__"), "tracer left a patch installed"


def test_refuses_to_run_without_the_program(tmp_path):
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench", ignore=ignore)
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    command = [sys.executable, *BENCHMARK["command"][1:]]
    args = ["--workload", "exact-solve", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(command + args, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
    assert not (tmp_path / ".bench_work").exists()
