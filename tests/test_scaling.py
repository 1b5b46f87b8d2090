"""Work that must grow linearly in the input.

Each case runs one layer at n and at 4n and counts the interpreter's
profile events (every Python call and return, generator resumption and
C call).  Unlike a timing, the count does not vary from run to run, so
a ratio well above 4 shows a quadratic walk.  A quadratic inside one C
call, such as `list.pop(0)`, stays invisible to this count.
"""

import sys

import incalc as ic

SIZES = (250, 1000)
MAX_RATIO = 5


def _events(work, data) -> int:
    count = 0

    def tally(frame, event, arg):
        nonlocal count
        count += 1

    sys.setprofile(tally)
    try:
        work(data)
    finally:
        sys.setprofile(None)
    return count


def _ratio(prepare, work) -> float:
    """The events of `work(prepare(n))` at the larger size over those at
    the smaller, counting `work` alone."""
    small, large = (_events(work, prepare(n)) for n in SIZES)
    return large / small


def _chain(n: int) -> str:
    """A KB of n definitions, each using the one before it and one of
    five atoms with exact incidences."""
    atoms = "".join(f"inc a{j} = {j:04b}\n" for j in range(5))
    lines = "".join(f"formula d{i} = d{i - 1} & a{i % 5}\n" for i in range(1, n))
    return f"space 4\n{atoms}formula d0 = a0\n{lines}"


def test_definitions_that_reuse_a_long_one_load_in_linear_work():
    # Each name x_k is first an atom of e_k, then defined by one sentence
    # over the whole chain: a self-reference check that walks that
    # sentence for every line is quadratic.
    def text(n):
        uses = "".join(f"formula e{k} = x{k}\nformula x{k} = d{n - 1} | b\n" for k in range(n))
        return _chain(n) + uses

    assert _ratio(text, ic.parse_kb) <= MAX_RATIO


def test_propagating_and_dumping_a_chain_is_linear_work():
    def solve(assignment):
        outcome = ic.propagate(assignment)
        assert outcome.ok
        outcome.final.dump()

    def assignment(n):
        return ic.parse_kb(_chain(n)).initial_assignment()

    assert _ratio(assignment, solve) <= MAX_RATIO
