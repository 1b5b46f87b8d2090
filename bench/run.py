"""Benchmark for the incalc command line.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The run generates the workload's inputs
from the seed, imports incalc from the checkout's `src/`, and then calls
`incalc.cli.main(argv)` in a closed loop, one command in flight, for the
given number of seconds; that is what `incalc <command>` does after
interpreter start-up.  Every output is checked against the independent
oracle in oracle.py.

Latencies are reported in units of a fixed reference routine's time,
sampled around and during each call (`*_ref`, see speed.py), which
cancels swings in the host's speed; the plain milliseconds are printed
beside them.

With --trace 0 the commands run untraced and the end-to-end metrics are
reported.  With --trace 1 each input runs once untraced and once traced
(tracer.py), and the per-layer metrics and the tracing overhead are
reported.  Human-readable lines come first; the last line of standard
output is one JSON object with keys correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import inputs
import speed
import tracer

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3

# The tail percentile is fixed per workload so that a faster program, which
# fits more calls into a run, is still compared at the same percentile.
# Each left at least thirteen calls beyond it in every 13-second run of ten
# seeds on the 2-core VM the benchmark was built on, so that ten remain
# when the host runs a fifth slower; the exact workloads use p95 although
# they have calls to spare, because p99 moved with single hiccups of the
# machine.  The result reports how many calls actually lay beyond it.
TAIL_PERCENTILE = {
    "wide-eval": 80,
    "wide-query": 65,
    "wide-sample": 75,
    "wide-ingest": 60,
    "fixpoint": 55,
    "exact-solve": 95,
    "exact-complete": 95,
}

END_TO_END = (
    ("setup_s", "s"),
    ("p50_ref", "ref"),
    ("tail_ref", "ref"),
    ("peak_rss_mb", "MB"),
)


def import_program():
    """Import incalc afresh from the checkout's src/, so that each set-up
    repetition pays the module import again."""
    src = ROOT / "src"
    if not (src / "incalc" / "cli.py").is_file():
        raise SystemExit(f"error: no incalc sources under {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "incalc" or m.startswith("incalc.")]:
        del sys.modules[name]
    return importlib.import_module("incalc.cli")


def call(cli, argv: list[str]) -> tuple[int | None, str, float, str]:
    """Run one command with its output captured: (exit code or None if it
    raised, stdout, seconds, error text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed command, not a failed run
            code = None
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), elapsed, err.getvalue()


class Checker:
    """Counts attempted and failed commands.  An output identical to one
    the oracle already accepted for the same input is accepted again."""

    def __init__(self, cases: list[inputs.Case]):
        self.cases = cases
        self.accepted: dict[int, tuple[int, str]] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, index: int, code: int | None, out: str, err: str) -> None:
        self.attempted += 1
        if self.accepted.get(index) == (code, out):
            return
        case = self.cases[index]
        if code is None:
            reason = "raised " + err.strip().splitlines()[-1]
        else:
            reason = case.check(code, out)
        if reason is None:
            self.accepted[index] = (code, out)
            return
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(f"{' '.join(case.argv)[:120]}: {reason}")


def set_up(workload: str, seed: int, directory: Path):
    """Import, generate and write the inputs, and run the first input once.
    Returns the CLI module, the inputs and the warm-up call's result."""
    cli = import_program()
    generated = inputs.build(workload, seed, directory)
    code, out, _, err = call(cli, generated.cases[0].argv)
    return cli, generated, (code, out, err)


def tail(samples: list[float], percentile: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above it."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * percentile // 100))
    value = ordered[int(rank) - 1]
    return value, sum(1 for s in ordered if s > value)


def pass_means(latencies: list[float], size: int) -> list[float]:
    """Mean latency per call of each complete pass over the `size` inputs.

    The median is taken over these rather than over single calls: every
    pass has the same mix of inputs (cheap and expensive, uniform and
    non-uniform), so the median cannot jump between the cost levels of
    different inputs, and each pass averages out short swings in machine
    speed."""
    whole = len(latencies) - len(latencies) % size
    return [sum(latencies[k : k + size]) / size for k in range(0, whole, size)]


def measure(
    cli, cases, checker: Checker, seconds: float, trace: tracer.Tracer | None, meter: speed.Meter
):
    """Closed loop over the inputs in order until `seconds` have passed and
    every input ran at least once.  With a tracer, each input runs untraced
    and then traced (the order flips every pass).  Returns the untraced
    latencies in seconds without the time `meter` spent sampling, their
    (start, end) times, and the traced latencies in seconds."""
    plain, intervals, traced = [], [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while i < len(cases) or time.perf_counter() < deadline:
        index = i % len(cases)
        if trace is None:
            modes = (False,)
        else:
            modes = (False, True) if i // len(cases) % 2 == 0 else (True, False)
        for tracing in modes:
            if tracing:
                trace.install()
                try:
                    code, out, elapsed, err = call(cli, cases[index].argv)
                finally:
                    trace.uninstall()
                trace.commands += 1
                traced.append(elapsed)
            else:
                spent, start = meter.spent, time.perf_counter()
                code, out, elapsed, err = call(cli, cases[index].argv)
                intervals.append((start, time.perf_counter()))
                plain.append(elapsed - (meter.spent - spent))
            checker.record(index, code, out, err)
        i += 1
    return plain, intervals, traced


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        setups, walls, files = [], [], None
        meter = speed.Meter()
        with meter:
            for _ in range(SETUP_REPEATS):
                spent, start = meter.spent, time.perf_counter()
                cli, generated, warm = set_up(args.workload, args.seed, work)
                end = time.perf_counter()
                walls.append(end - start)
                setups.append((end - start - (meter.spent - spent)) / meter.around(start, end))
                if files is not None and generated.files != files:
                    raise SystemExit("error: input generation is not deterministic")
                files = generated.files
        cases = generated.cases
        checker = Checker(cases)
        checker.record(0, *warm)
        gc.collect()
        gc.freeze()  # set-up data is not rescanned by collections during timing
        trace = tracer.Tracer() if args.trace else None
        # Traced runs are not sampled: their spans would include the samples.
        with meter if trace is None else contextlib.nullcontext():
            plain, intervals, traced = measure(cli, cases, checker, args.seconds, trace, meter)
    finally:
        gc.unfreeze()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    percentile = TAIL_PERCENTILE[args.workload]
    passes = pass_means(plain, len(cases))
    p50 = statistics.median(passes)
    tail_value, beyond = tail(plain, percentile)
    end_to_end = {
        "setup_s": statistics.median(setups) * speed.REF_SECONDS,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if trace is None:
        relative = [t / meter.around(*span) for t, span in zip(plain, intervals)]
        end_to_end["p50_ref"] = statistics.median(pass_means(relative, len(cases)))
        end_to_end["tail_ref"], beyond = tail(relative, percentile)
    command = cases[0].command
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "command": command,
        "calls": len(plain),
        "passes": len(passes),
        "tail_percentile": percentile,
        "samples_beyond_tail": beyond,
        "inputs": len(cases),
        "setup_wall_s": statistics.median(walls),
        "failed_ratio": checker.failed / checker.attempted,
        f"{command}.p50_ms": p50 * 1e3,
        f"{command}.tail_ms": tail_value * 1e3,
        "failures": checker.failures,
        **generated.properties,
    }
    print(f"setup_s = {end_to_end['setup_s']:.6g} s")
    for name in ("p50", "tail"):
        if trace is None:
            print(f"{command}.{name}_ref = {end_to_end[name + '_ref']:.6g} ref")
        print(f"{command}.{name}_ms = {detail[f'{command}.{name}_ms']:.6g} ms")
    print(f"peak_rss_mb = {end_to_end['peak_rss_mb']:.6g} MB")
    print(
        f"{command}.p50_* is the median over {len(passes)} passes of {len(cases)} inputs;"
        f" {command}.tail_* is p{percentile} over {len(plain)} calls, {beyond} beyond it"
    )
    print(f"failed_ratio = {detail['failed_ratio']:.6g} ({checker.failed}/{checker.attempted})")
    for failure in checker.failures:
        print(f"FAILED {failure}")

    if trace is None:
        metrics = {name: {"value": end_to_end[name], "unit": unit} for name, unit in END_TO_END}
    else:
        layers = trace.layer_metrics()
        traced_p50 = statistics.median(pass_means(traced, len(cases)))
        layers["trace.overhead_ms"] = (traced_p50 - p50) * 1e3
        layers["trace.overhead_ratio"] = (traced_p50 - p50) / p50
        for name, unit, _ in tracer.METRICS:
            print(f"{name} = {layers[name]:.6g} {unit}")
        out = ROOT / ".bench_out" / f"spans-{args.workload}-{args.seed}.jsonl.gz"
        trace.write_spans(out)
        detail["spans"] = len(trace.spans)
        detail["spans_file"] = str(out.relative_to(ROOT))
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit, _ in tracer.METRICS}
    print(json.dumps({"detail": detail}))
    print(
        json.dumps(
            {
                "correct": checker.failed == 0,
                "attempted": checker.attempted,
                "failed": checker.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
