"""Bit cost of numeric probabilities vs incidence sets, tabulated.

Keeping each sentence's probability to m digits needs one number per
conjunction of atoms, which blows up with the atom count n; keeping one
point set per atom over a space sized for m-digit resolution grows only
linearly in n.  This prints both costs side by side.

Usage: python3 scripts/storage_table.py [--max-atoms N] [--digits M ...]
"""

import argparse
from typing import NamedTuple


class StorageCost(NamedTuple):
    numeric_bits: int
    incidence_bits: int


def storage_costs(propositions: int, digits: int) -> StorageCost:
    """Bits needed to represent a joint distribution over `propositions`
    atoms to `digits` decimal places, two ways.

    Storing one probability per conjunction of literals takes 10*digits
    bits for each of the 2**propositions conjunctions; storing one
    incidence bit vector per atom over a 10**digits-point space takes
    propositions * 10**digits bits and the rest is recomputed by set
    operations.
    """
    if propositions < 1:
        raise ValueError("need at least one proposition")
    if digits < 1:
        raise ValueError("need at least one digit of precision")
    return StorageCost(10 * digits * 2**propositions, propositions * 10**digits)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-atoms", type=int, default=20)
    parser.add_argument("--digits", type=int, nargs="+", default=[1, 2, 3])
    args = parser.parse_args(argv)

    header = f"{'atoms':>5}"
    for m in args.digits:
        header += f" | {f'numeric m={m}':>14} {f'sets m={m}':>12}"
    print(header)
    print("-" * len(header))
    for n in range(1, args.max_atoms + 1):
        row = f"{n:>5}"
        for m in args.digits:
            cost = storage_costs(n, m)
            row += f" | {cost.numeric_bits:>14} {cost.incidence_bits:>12}"
        print(row)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
