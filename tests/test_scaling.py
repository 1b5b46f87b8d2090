"""Work that must grow linearly in the input.

Each case runs one layer at n and at 4n and counts the interpreter's
profile events (every Python call and return, generator resumption and
C call).  Unlike a timing, the count does not vary from run to run, so
a ratio well above 4 shows a quadratic walk.  A quadratic inside one C
call, such as `list.pop(0)`, stays invisible to this count.  So does a
buffer as wide as the space, which the point-set case guards by the
memory it traces instead.
"""

import contextlib
import io
import sys
import tracemalloc
from fractions import Fraction as F

import pytest

import incalc as ic
from incalc import cli

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


def _conjunction(n: int) -> str:
    return " & ".join(f"x{i}" for i in range(n))


def test_parsing_a_long_conjunction_is_linear_work():
    assert _ratio(_conjunction, ic.parse_formula) <= MAX_RATIO


def test_formatting_a_long_conjunction_is_linear_work():
    def conjunction(n):
        return ic.parse_formula(_conjunction(n))

    assert _ratio(conjunction, ic.format_formula) <= MAX_RATIO


def test_loading_a_chain_is_linear_work():
    assert _ratio(_chain, ic.parse_kb) <= MAX_RATIO


def test_building_the_assignment_of_many_bounds_is_linear_work():
    def kb(n):
        lines = "".join(f"bounds (a{i} | b) inf 0001 sup 0111\n" for i in range(n))
        return ic.parse_kb(f"space 4\n{lines}")

    assert _ratio(kb, ic.KnowledgeBase.initial_assignment) <= MAX_RATIO


# A clean 0/1 table is read as it stands; a comment or value words send
# each row through `kb.directive_lines` and the per-row reader.
@pytest.mark.parametrize(
    "comment, words",
    [("", "01"), ("# three flags a row\n", "01"), ("", ("F", "true"))],
    ids=["clean", "commented", "words"],
)
def test_ingesting_records_is_linear_work(comment, words):
    def records(n):
        rows = "".join(f"{words[i & 1]} {words[i >> 1 & 1]} {words[i >> 2 & 1]}\n" for i in range(n))
        return f"{comment}a b c\n{rows}"

    def ingest(text):
        ic.incidences_from_records(ic.RecordTable.from_text(text))

    assert _ratio(records, ingest) <= MAX_RATIO


def test_synthesis_with_two_correlations_is_linear_work():
    def spec(n):
        marginals = {"a": F(1, 2), "b": F(2, 5), "c": F(3, 10)}
        return ic.TargetSpec(marginals, n, {("a", "b"): "0.5", ("b", "c"): "0.3"}, seed=7)

    assert _ratio(spec, ic.incidences_from_probabilities) <= MAX_RATIO


def test_definitions_that_reuse_a_long_one_load_in_linear_work():
    # Each name x_k is first an atom of e_k, then defined by one sentence
    # over the whole chain: a self-reference check that walks that
    # sentence for every line is quadratic.
    def text(n):
        uses = "".join(f"formula e{k} = x{k}\nformula x{k} = d{n - 1} | b\n" for k in range(n))
        return _chain(n) + uses

    assert _ratio(text, ic.parse_kb) <= MAX_RATIO


def test_definitions_of_names_first_bound_load_in_linear_work():
    # Each name x_k is first an atom of a bounds line, older than the
    # chain, then defined over the chain's end.  Only a name below an
    # earlier definition needs the self-reference walk, which here would
    # cross the whole chain for every line; these names are below none.
    def text(n):
        bounds = "".join(f"bounds x{k} inf 0000 sup 1111\n" for k in range(n))
        defined = "".join(f"formula x{k} = d{n - 1} | b\n" for k in range(n))
        return "space 4\n" + bounds + _chain(n).removeprefix("space 4\n") + defined

    assert _ratio(text, ic.parse_kb) <= MAX_RATIO


def test_propagating_and_dumping_a_chain_is_linear_work():
    def solve(assignment):
        outcome = ic.propagate(assignment)
        assert outcome.ok
        outcome.final.dump()

    def assignment(n):
        return ic.parse_kb(_chain(n)).initial_assignment()

    assert _ratio(assignment, solve) <= MAX_RATIO


def _wide_weighted_kb(directory):
    """A function of n that writes, in `directory`, a KB of n weights
    c/total, two n-bit atoms and one query of each kind, and returns its
    path."""

    def write(n):
        counts = [1 + i % 7 for i in range(n)]
        weights = " ".join(f"{c}/{sum(counts)}" for c in counts)
        a = "".join("1" if i % 3 else "0" for i in range(n))
        b = "".join("1" if i % 2 else "0" for i in range(n))
        path = directory / f"wide{n}.kb"
        path.write_text(
            f"space weights {weights}\ninc a = {a}\ninc b = {b}\n"
            "query prob a & b\nquery cond a given b\nquery corr a , b\n"
        )
        return str(path)

    return write


def _run_quietly(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(list(argv)) == 0


def test_evaluating_on_a_wide_weighted_kb_is_linear_work(tmp_path):
    def evaluate(kb):
        _run_quietly("eval", kb, "-f", "a & ~b")

    assert _ratio(_wide_weighted_kb(tmp_path), evaluate) <= MAX_RATIO


def test_querying_a_wide_weighted_kb_is_linear_work(tmp_path):
    def query(kb):
        _run_quietly("query", kb)

    assert _ratio(_wide_weighted_kb(tmp_path), query) <= MAX_RATIO


def test_a_point_set_costs_its_largest_index_not_the_width():
    tracemalloc.start()
    try:
        inc = ic.parse_incidence_text("{5,70}", 10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (inc.bits, inc.width) == (1 << 5 | 1 << 70, 10**7)
    assert peak < 1 << 20
