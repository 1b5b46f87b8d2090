"""Alternating parent/change pairs of the benchmark, summarised.

Usage: python3 scripts/bench_pairs.py --parent DIR --change DIR
           --workload W --seeds A-B [--seconds S]

For each seed from A to B, runs `bench/run.py --workload W --seed N
--seconds S --trace 0` once in each checkout, the parent first in the
first pair and the change first in the next, and so on, so that a drift
in the host's speed falls on both sides alike.  Each run starts with its
checkout's `src/**/__pycache__` removed, so that every run's `setup_s`
pays the same byte compilation.  Then, for each end-to-end metric that
BENCHMARK.json declares, it prints each side's median and quartiles and
in how many pairs the change was the better side, and after that every
run with failed commands.  It only runs the benchmark and changes none
of its sources.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    try:
        seeds = range(int(first), int(last or first) + 1)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seeds must read A-B or A, got {text!r}") from None
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in `checkout`, without byte-compiled sources
    left over: the JSON object on the last line of its output."""
    for cache in (checkout / "src").rglob("__pycache__"):
        shutil.rmtree(cache)
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        command = " ".join(argv[1:])
        raise SystemExit(f"error: {command} in {checkout} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summary(metrics: list[dict], results: dict[str, list[dict]]) -> list[str]:
    """One row per metric: each side's median [q1, q3], the change's
    median over the parent's, and the pairs the change won."""
    pairs = len(results["parent"])
    heads = ("parent median [q1, q3]", "change median [q1, q3]", "ratio", "wins")
    lines = [f"{'metric':<12} {heads[0]:>28} {heads[1]:>28} {heads[2]:>7} {heads[3]:>7}"]
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [run["metrics"][name]["value"] for run in results[side]] for side in SIDES}
        cells = []
        for side in SIDES:
            q1, median, q3 = quartiles(values[side])
            cells.append(f"{median:.4g} [{q1:.4g}, {q3:.4g}]")
        pairs_won = zip(values["parent"], values["change"])
        wins = sum((c < p) if lower else (c > p) for p, c in pairs_won)
        ratio = statistics.median(values["change"]) / statistics.median(values["parent"])
        lines.append(f"{name:<12} {cells[0]:>28} {cells[1]:>28} {ratio:>7.3f} {f'{wins}/{pairs}':>7}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True, help="A-B, both included")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    args = parser.parse_args(argv)

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    results: dict[str, list[dict]] = {side: [] for side in SIDES}
    failures = []
    for k, seed in enumerate(args.seeds):
        for side in SIDES if k % 2 == 0 else reversed(SIDES):
            result = run_once(checkouts[side], args.workload, seed, args.seconds)
            results[side].append(result)
            if result["failed"] > 0:
                failed = f"{result['failed']} of {result['attempted']} commands"
                failures.append(f"failed: {side} seed {seed}: {failed}")
    seeds, pairs = f"{args.seeds[0]}-{args.seeds[-1]}", len(args.seeds)
    print(f"workload {args.workload}, seeds {seeds}, {args.seconds:g} s per run, {pairs} pairs")
    print("\n".join(summary(benchmark["end_to_end"], results) + failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
