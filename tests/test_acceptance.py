"""Acceptance suite: one test per shipping criterion, each printing a
[PASS]/[FAIL] line (run with `pytest -s` to see them).  Tolerances are
stated inline; everything not marked approximate is exact."""

import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction as F
from pathlib import Path

import incalc as ic
from helpers import (
    ATOMS,
    holds_at,
    load_script,
    points,
    random_env,
    random_formula,
    random_space,
    shuffled_worklist,
    sound_instance,
    arbitrary_instance,
    tight_bounds,
)

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {label}")
        raise
    print(f"[PASS] {label}")


def run_cli(*argv):
    # Run from src/ so that `-m incalc` imports this checkout, installed or not.
    return subprocess.run(
        [sys.executable, "-m", "incalc", *map(str, argv)],
        capture_output=True,
        text=True,
        cwd=SRC,
    )


def test_1_evaluation_matches_pointwise_truth():
    with criterion("criterion 1: set evaluation == pointwise truth, 1000 formulas, <5s"):
        rng = random.Random(101)
        width = 16
        start = time.perf_counter()
        for _ in range(1000):
            env = random_env(rng, ATOMS, width)
            f = random_formula(rng, ATOMS, depth=rng.randint(0, 6))
            inc = ic.incidence_of(f, env, ic.SampleSpace.uniform(width))
            pointwise = [k for k in range(width) if holds_at(f, k, env)]
            assert inc.indices() == tuple(pointwise)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_2_probability_identities_exact():
    with criterion("criterion 2: complement/inclusion-exclusion/chain identities, exact, 1000 cases"):
        rng = random.Random(202)
        for _ in range(1000):
            width = rng.randint(1, 8)
            space = random_space(rng, width)
            env = random_env(rng, ("a", "b", "c"), width)
            f = random_formula(rng, ("a", "b", "c"), depth=rng.randint(0, 3))
            g = random_formula(rng, ("a", "b", "c"), depth=rng.randint(0, 3))
            pf, pg = ic.prob(f, env, space), ic.prob(g, env, space)
            both = ic.prob(ic.And(f, g), env, space)
            assert ic.prob(ic.Not(f), env, space) == 1 - pf
            assert ic.prob(ic.Or(f, g), env, space) == pf + pg - both
            if pg != 0:
                assert ic.cond_prob(f, g, env, space) * pg == both


def test_3_correlation_reconstructs_joint():
    with criterion("criterion 3: joint prob from correlation exactly, 500 cases; c^2 <= 1; worked value 0.816497"):
        rng = random.Random(303)
        a, b = ic.Atom("a"), ic.Atom("b")
        done = 0
        while done < 500:
            width = rng.randint(2, 10)
            space = random_space(rng, width)
            env = random_env(rng, ("a", "b"), width)
            pa, pb = ic.prob(a, env, space), ic.prob(b, env, space)
            if pa in (0, 1) or pb in (0, 1):
                continue
            corr = ic.correlation(a, b, env, space)
            assert corr.c_squared <= 1
            gap = ic.prob(ic.And(a, b), env, space) - pa * pb
            assert gap**2 == corr.c_squared * pa * (1 - pa) * pb * (1 - pb)
            assert corr.sign == (gap > 0) - (gap < 0)
            done += 1
        space = ic.SampleSpace.uniform(10)
        env = {"a": points(space, range(5)), "b": points(space, range(4))}
        worked = ic.correlation(a, b, env, space)
        assert worked.c_squared == F(2, 3) and worked.sign > 0
        assert worked.decimal() == "0.816497"


def test_4_propagation_soundness():
    with criterion("criterion 4: propagation keeps the hidden model inside bounds, 500 trials"):
        rng = random.Random(404)
        for _ in range(500):
            space, assignment, env = sound_instance(
                rng,
                width=rng.randint(1, 10),
                atoms=ATOMS[: rng.randint(1, 4)],
                n_sentences=rng.randint(1, 10),
            )
            outcome = ic.propagate(assignment)
            assert outcome.ok, "no inconsistency may be reported for a satisfiable start"
            for sentence in assignment:
                truth = ic.incidence_of(sentence, env, space)
                low, high = outcome.final.bounds(sentence)
                assert low.is_subset(truth) and truth.is_subset(high)


def test_5_tightness_against_enumeration():
    with criterion("criterion 5: fixpoint contains the enumerated envelope; complete mode equals it, 200 instances"):
        rng = random.Random(505)
        gaps = 0
        total = 0
        for _ in range(200):
            _, assignment = arbitrary_instance(
                rng,
                width=rng.randint(1, 4),
                atoms=ATOMS[: rng.randint(1, 3)],
                n_sentences=rng.randint(1, 4),
            )
            tight = tight_bounds(assignment)
            complete = ic.propagate(assignment, "complete")
            if tight is None:
                assert complete.status == ic.INCONSISTENT
                continue
            assert complete.ok and complete.final == tight
            plain = ic.propagate(assignment)
            assert plain.ok
            total += 1
            if plain.final != tight:
                gaps += 1
            for sentence in assignment:
                assert plain.final.bounds(sentence)[0].is_subset(tight.bounds(sentence)[0])
                assert tight.bounds(sentence)[1].is_subset(plain.final.bounds(sentence)[1])
        print(f"[INFO] plain-mode gap rate: {gaps}/{total} satisfiable instances")


def test_6_confluence_and_step_bound():
    with criterion("criterion 6: 10 shuffled worklist orders agree; steps <= 2*width*sentences, 100 instances"):
        rng = random.Random(606)
        for _ in range(100):
            width = rng.randint(1, 8)
            _, assignment, _ = sound_instance(
                rng, width=width, atoms=ATOMS[:3], n_sentences=rng.randint(1, 6)
            )
            bound = 2 * width * len(assignment)
            reference = ic.propagate(assignment)
            assert reference.steps <= bound
            for seed in range(10):
                with shuffled_worklist(seed):
                    shuffled = ic.propagate(assignment)
                assert shuffled.final == reference.final
                assert shuffled.steps <= bound


def test_4_to_6_at_realistic_widths():
    with criterion("criteria 4-6 at widths 200-500: hidden model inside the bounds at every point "
                   "(holds_at), 10 worklist orders agree, steps <= 2*width*sentences, and the "
                   "bounds contain the envelope enumerated point by point, 12 instances"):
        rng = random.Random(4560)
        one = ic.SampleSpace.uniform(1)
        for trial in range(12):
            width = rng.randint(200, 500)
            space, assignment, env = sound_instance(
                rng, width=width, atoms=ATOMS[: rng.randint(2, 4)], n_sentences=rng.randint(4, 12)
            )
            bound = 2 * width * len(assignment)
            reference = ic.propagate(assignment)
            assert reference.ok and reference.steps <= bound
            for sentence in assignment:
                low, high = reference.final.bounds(sentence)
                for k in range(width):
                    truth = holds_at(sentence, k, env)
                    assert truth or k not in low, (sentence, k)
                    assert k in high or not truth, (sentence, k)
            for seed in range(10):
                with shuffled_worklist(seed):
                    shuffled = ic.propagate(assignment)
                assert shuffled.final == reference.final
                assert shuffled.steps <= bound
            if trial % 4:
                continue
            # Every rule acts point by point, so the envelope of the legal
            # assignments at point k is that of the width-1 projection.
            for k in range(width):
                projected = ic.BoundAssignment(one)
                for sentence in assignment:
                    low, high = assignment.bounds(sentence)
                    projected.declare(
                        sentence,
                        lower=ic.Incidence(low.bits >> k & 1, 1),
                        upper=ic.Incidence(high.bits >> k & 1, 1),
                    )
                tight = tight_bounds(projected)
                for sentence in assignment:
                    low, high = reference.final.bounds(sentence)
                    assert low.bits >> k & 1 <= tight.bounds(sentence)[0].bits
                    assert tight.bounds(sentence)[1].bits <= high.bits >> k & 1


def test_7_inconsistency_detection():
    with criterion("criterion 7: contradictory bounds exit 1 and name the culprit"):
        proc = run_cli("solve", DATA / "contradiction.kb")
        assert proc.returncode == 1
        assert proc.stdout.rstrip().splitlines()[-1] == "INCONSISTENT: a"


def test_8_storage_costs():
    with criterion("criterion 8: storage_costs(10, 2) == (20480, 1000); sets stay cheaper for n in 10..30"):
        storage_costs = load_script("storage_table").storage_costs
        assert storage_costs(10, 2) == (20480, 1000)
        for n in range(10, 31):
            for m in (1, 2):
                cost = storage_costs(n, m)
                assert cost.incidence_bits < cost.numeric_bits


def test_9_synthesis_and_ingestion():
    with criterion("criterion 9: synthesis hits quotas, corr within 0.01, reproducible; ingestion exact"):
        spec = ic.TargetSpec(
            {"a": F(1, 2), "b": F(2, 5)}, 10000, {("a", "b"): F(8165, 10000)}, seed=0
        )
        space, env = ic.incidences_from_probabilities(spec)
        pa = ic.prob(ic.Atom("a"), env, space)
        pb = ic.prob(ic.Atom("b"), env, space)
        assert abs(pa - F(1, 2)) <= F(1, 10000) and env["a"].count() == 5000
        assert abs(pb - F(2, 5)) <= F(1, 10000) and env["b"].count() == 4000
        achieved = ic.correlation(ic.Atom("a"), ic.Atom("b"), env, space)
        assert abs(float(achieved.decimal()) - 0.8165) < 0.01
        assert ic.incidences_from_probabilities(spec) == (space, env)
        first = run_cli("sample", DATA / "ab.targets", "--size", 10000)
        second = run_cli("sample", DATA / "ab.targets", "--size", 10000)
        assert first.returncode == 0 and first.stdout == second.stdout

        table = ic.RecordTable.from_text((DATA / "rain_wet.records").read_text())
        rspace, renv = ic.incidences_from_records(table)
        assert ic.prob(ic.Atom("rain"), renv, rspace) == F(3, 5)


def test_10_cli_golden_files():
    with criterion("criterion 10: eval/solve/query outputs match golden files byte-exactly"):
        runs = [
            (("eval", DATA / "example.kb", "-f", "a & b"), "example_eval.golden"),
            (("query", DATA / "example.kb"), "example_query.golden"),
            (("solve", DATA / "example.kb"), "example_solve.golden"),
            (("solve", DATA / "tighten.kb"), "tighten_solve.golden"),
        ]
        for argv, name in runs:
            proc = run_cli(*argv)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout == (DATA / name).read_text(), name
