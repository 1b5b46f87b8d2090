"""How often does plain fixpoint propagation stop short of the exact
envelope, and by how much?

Generates random small bound instances, runs the fixpoint rules and the
exact-envelope complete mode, and compares both against brute-force
enumeration (`tight_bounds` in tests/helpers.py).  Complete mode must
agree with enumeration (if it does not, that is a bug, and the script
exits nonzero).

Usage: python3 scripts/tightness_gap.py [--instances N] [--seed S]
"""

import argparse
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

import incalc as ic
from helpers import arbitrary_instance, tight_bounds


def slack(assignment, reference):
    """Total undetermined points beyond the reference, over all sentences."""
    total = 0
    for sentence in assignment:
        low, high = assignment.bounds(sentence)
        tight_low, tight_high = reference.bounds(sentence)
        total += (tight_low.bits & ~low.bits).bit_count() + (high.bits & ~tight_high.bits).bit_count()
    return total


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--instances", type=int, default=500)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    rng = random.Random(args.seed)
    unsat = 0
    exact = 0
    gapped = 0
    total_slack = 0
    worst = 0
    for _ in range(args.instances):
        width = rng.randint(1, 4)
        _, assignment = arbitrary_instance(
            rng,
            width=width,
            atoms=("a", "b", "c")[: rng.randint(1, 3)],
            n_sentences=rng.randint(1, 4),
        )
        tight = tight_bounds(assignment)
        complete = ic.propagate(assignment, "complete")
        if tight is None:
            assert complete.status == ic.INCONSISTENT, "complete mode missed an unsat instance"
            unsat += 1
            continue
        assert complete.final == tight, "complete mode disagrees with enumeration"
        plain = ic.propagate(assignment)
        s = slack(plain.final, tight)
        if s == 0:
            exact += 1
        else:
            gapped += 1
            total_slack += s
            worst = max(worst, s)

    sat = exact + gapped
    print(f"instances        {args.instances}")
    print(f"unsatisfiable    {unsat}")
    print(f"fixpoint exact   {exact}/{sat}")
    print(f"fixpoint gapped  {gapped}/{sat}")
    if gapped:
        print(f"mean slack       {total_slack / gapped:.2f} points (over gapped instances)")
        print(f"worst slack      {worst} points")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
