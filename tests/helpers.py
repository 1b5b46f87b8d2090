"""Shared random generators, independent oracles and hypothesis
strategies for the test suite."""

from __future__ import annotations

import contextlib
import importlib.util
import itertools
import random
import re
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from pathlib import Path
from typing import Callable
from unittest import mock

from hypothesis import strategies as st

import incalc as ic
from incalc import And, Implies, Not, Or
from incalc.rational import round_half_up

ATOMS = ("a", "b", "c", "d", "e", "f")

# --- the rule catalog ----------------------------------------------------
#
# One Rule per direction of information flow at a connective.  `compute`
# receives the whole-space mask and the bounds of the compound C and of
# its operands A and B as int bitmasks, `(full, c_lo, c_hi, a_lo, a_hi,
# b_lo, b_hi)` (for a unary C, B's bounds are A's and go unused), and
# returns the mask to merge into the target's bound.  A complement is
# `full ^ x`, which stays inside the space.  `incalc.propagate` does not
# run these rules: each connective's rules, closed at one node, give
# exactly its update's bounds, so the catalog is an independent soundness
# oracle for the update, and the order of its entries affects no result.


@dataclass(frozen=True)
class Rule:
    connective: type
    target: str  # "left" | "right" | "self"
    action: str  # "raise" | "cut"
    note: str
    compute: Callable[[int, int, int, int, int, int, int], int]


RULES: tuple[Rule, ...] = (
    # C = ~A
    Rule(Not, "left", "raise", "i(C) <= sup(C), so w \\ sup(C) <= w \\ i(C) = i(A)",
         lambda full, c_lo, c_hi, a_lo, a_hi, b_lo, b_hi: full ^ c_hi),
    Rule(Not, "left", "cut", "inf(C) <= i(C) = w \\ i(A), so i(A) <= w \\ inf(C)",
         lambda full, c_lo, c_hi, a_lo, a_hi, b_lo, b_hi: full ^ c_lo),
    Rule(Not, "self", "raise", "i(A) <= sup(A), so w \\ sup(A) <= w \\ i(A) = i(C)",
         lambda full, c_lo, c_hi, a_lo, a_hi, b_lo, b_hi: full ^ a_hi),
    Rule(Not, "self", "cut", "inf(A) <= i(A), so i(C) = w \\ i(A) <= w \\ inf(A)",
         lambda full, c_lo, c_hi, a_lo, a_hi, b_lo, b_hi: full ^ a_lo),
    # C = A & B
    Rule(And, "left", "raise", "inf(C) <= i(C) = i(A) & i(B) <= i(A)",
         lambda full, c_lo, c_hi, a_lo, a_hi, b_lo, b_hi: c_lo),
    Rule(And, "left", "cut",
         "a point of i(A) lies in i(A & B) or outside i(B): "
         "i(A) <= i(C) | (w \\ i(B)) <= sup(C) | (w \\ inf(B))",
         lambda full, c_lo, c_hi, a_lo, a_hi, b_lo, b_hi: c_hi | (full ^ b_lo)),
    Rule(And, "right", "raise", "inf(C) <= i(C) = i(A) & i(B) <= i(B)",
         lambda full, c_lo, c_hi, a_lo, a_hi, b_lo, b_hi: c_lo),
    Rule(And, "right", "cut",
         "mirror image: i(B) <= i(C) | (w \\ i(A)) <= sup(C) | (w \\ inf(A))",
         lambda full, c_lo, c_hi, a_lo, a_hi, b_lo, b_hi: c_hi | (full ^ a_lo)),
    Rule(And, "self", "raise", "inf(A) & inf(B) <= i(A) & i(B) = i(C)",
         lambda full, c_lo, c_hi, a_lo, a_hi, b_lo, b_hi: a_lo & b_lo),
    Rule(And, "self", "cut", "i(C) = i(A) & i(B) <= sup(A) & sup(B)",
         lambda full, c_lo, c_hi, a_lo, a_hi, b_lo, b_hi: a_hi & b_hi),
    # C = A | B
    Rule(Or, "left", "raise",
         "a point of i(C) outside i(B) must lie in i(A): "
         "inf(C) & (w \\ sup(B)) <= i(C) \\ i(B) <= i(A)",
         lambda full, c_lo, c_hi, a_lo, a_hi, b_lo, b_hi: c_lo & (full ^ b_hi)),
    Rule(Or, "left", "cut", "i(A) <= i(A) | i(B) = i(C) <= sup(C)",
         lambda full, c_lo, c_hi, a_lo, a_hi, b_lo, b_hi: c_hi),
    Rule(Or, "right", "raise",
         "mirror image: inf(C) & (w \\ sup(A)) <= i(C) \\ i(A) <= i(B)",
         lambda full, c_lo, c_hi, a_lo, a_hi, b_lo, b_hi: c_lo & (full ^ a_hi)),
    Rule(Or, "right", "cut", "i(B) <= i(A) | i(B) = i(C) <= sup(C)",
         lambda full, c_lo, c_hi, a_lo, a_hi, b_lo, b_hi: c_hi),
    Rule(Or, "self", "raise", "inf(A) | inf(B) <= i(A) | i(B) = i(C)",
         lambda full, c_lo, c_hi, a_lo, a_hi, b_lo, b_hi: a_lo | b_lo),
    Rule(Or, "self", "cut", "i(C) = i(A) | i(B) <= sup(A) | sup(B)",
         lambda full, c_lo, c_hi, a_lo, a_hi, b_lo, b_hi: a_hi | b_hi),
    # C = A -> B, i.e. i(C) = (w \ i(A)) | i(B)
    Rule(Implies, "left", "raise", "w \\ i(C) = i(A) \\ i(B) <= i(A), and w \\ sup(C) <= w \\ i(C)",
         lambda full, c_lo, c_hi, a_lo, a_hi, b_lo, b_hi: full ^ c_hi),
    Rule(Implies, "left", "cut",
         "a point of i(A) inside i(C) lies in i(B), one outside i(C) is outside inf(C): "
         "i(A) <= (w \\ inf(C)) | sup(B)",
         lambda full, c_lo, c_hi, a_lo, a_hi, b_lo, b_hi: (full ^ c_lo) | b_hi),
    Rule(Implies, "right", "raise",
         "detachment: a point in both i(C) and i(A) lies in i(B), so inf(C) & inf(A) <= i(B)",
         lambda full, c_lo, c_hi, a_lo, a_hi, b_lo, b_hi: c_lo & a_lo),
    Rule(Implies, "right", "cut", "i(B) <= (w \\ i(A)) | i(B) = i(C) <= sup(C)",
         lambda full, c_lo, c_hi, a_lo, a_hi, b_lo, b_hi: c_hi),
    Rule(Implies, "self", "raise", "(w \\ sup(A)) | inf(B) <= (w \\ i(A)) | i(B) = i(C)",
         lambda full, c_lo, c_hi, a_lo, a_hi, b_lo, b_hi: (full ^ a_hi) | b_lo),
    Rule(Implies, "self", "cut", "i(C) = (w \\ i(A)) | i(B) <= (w \\ inf(A)) | sup(B)",
         lambda full, c_lo, c_hi, a_lo, a_hi, b_lo, b_hi: (full ^ a_lo) | b_hi),
)


#: The rule catalog grouped by connective, in catalog order.
RULES_BY_CONNECTIVE = {
    kind: tuple(r for r in RULES if r.connective is kind)
    for kind in (ic.Not, ic.And, ic.Or, ic.Implies)
}

#: The brute-force oracle refuses instances where width * atoms exceeds this.
ORACLE_GUARD_BITS = 24

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    """Import `scripts/<name>.py` as a module."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def random_weights(rng: random.Random, size: int) -> tuple[Fraction, ...]:
    raw = [rng.randint(0, 8) if rng.random() < 0.15 else rng.randint(1, 8) for _ in range(size)]
    if sum(raw) == 0:
        raw[0] = 1
    total = sum(raw)
    return tuple(Fraction(v, total) for v in raw)


def random_space(rng: random.Random, size: int) -> ic.SampleSpace:
    if rng.random() < 0.5:
        return ic.SampleSpace.uniform(size)
    return ic.SampleSpace(random_weights(rng, size))


def reference_weight_of(weights, inc: ic.Incidence) -> Fraction:
    """The per-point definition of `SampleSpace.weight_of`: the weights of
    the member points, each as a `Fraction`, added one at a time."""
    members = (k for k in range(inc.width) if inc.bits >> k & 1)
    return sum((Fraction(weights[k]) for k in members), Fraction(0))


def points(space: ic.SampleSpace, indices) -> ic.Incidence:
    """The incidence holding the given points of `space`."""
    return ic.Incidence.from_indices(indices, space.size)


def random_incidence(rng: random.Random, width: int) -> ic.Incidence:
    return ic.Incidence(rng.getrandbits(width), width)


def random_formula(rng: random.Random, atoms, depth: int) -> ic.Formula:
    if depth == 0 or rng.random() < 0.25:
        roll = rng.random()
        if roll < 0.05:
            return ic.TRUE
        if roll < 0.10:
            return ic.FALSE
        return ic.Atom(rng.choice(atoms))
    kind = rng.randrange(4)
    if kind == 0:
        return ic.Not(random_formula(rng, atoms, depth - 1))
    left = random_formula(rng, atoms, depth - 1)
    right = random_formula(rng, atoms, depth - 1)
    return (ic.And, ic.Or, ic.Implies)[kind - 1](left, right)


def random_env(rng: random.Random, atoms, width: int) -> dict[str, ic.Incidence]:
    return {name: random_incidence(rng, width) for name in atoms}


def loosen(rng: random.Random, inc: ic.Incidence) -> tuple[ic.Incidence, ic.Incidence]:
    """A random (lower, upper) pair that brackets inc."""
    width = inc.width
    lower = ic.Incidence(inc.bits & rng.getrandbits(width), width)
    upper = ic.Incidence(inc.bits | rng.getrandbits(width), width)
    return lower, upper


def sound_instance(rng: random.Random, *, width: int, atoms, n_sentences: int, depth: int = 3):
    """(space, assignment, env) where the bounds are loosened from a
    ground-truth model, so env is legal and the instance is consistent."""
    space = random_space(rng, width)
    env = random_env(rng, atoms, width)
    assignment = ic.BoundAssignment(space)
    for _ in range(n_sentences):
        f = random_formula(rng, atoms, depth)
        lower, upper = loosen(rng, ic.incidence_of(f, env, space))
        assignment.declare(f, lower=lower, upper=upper)
    for name in atoms:
        at = ic.Atom(name)
        if at in assignment:
            lower, upper = loosen(rng, env[name])
            assignment.declare(at, lower=lower, upper=upper)
    return space, assignment, env


def arbitrary_instance(rng: random.Random, *, width: int, atoms, n_sentences: int, depth: int = 2):
    """(space, assignment) with unconstrained random bounds; the instance
    may admit no legal assignment at all."""
    space = random_space(rng, width)
    assignment = ic.BoundAssignment(space)
    for _ in range(n_sentences):
        f = random_formula(rng, atoms, depth)
        x = random_incidence(rng, width)
        y = random_incidence(rng, width)
        if rng.random() < 0.8:
            assignment.declare(f, lower=x & y, upper=x | y)
        else:
            assignment.declare(f, lower=x, upper=y)
    return space, assignment


def atom_names(*roots: ic.Formula) -> set[str]:
    """The names of the atoms below `roots`, by a walk of every node."""
    return {g.name for g in ic.subformulas(*roots) if isinstance(g, ic.Atom)}


def holds_at(f: ic.Formula, point: int, env) -> bool:
    """Pointwise truth of f at one sample-space point, by the truth table
    of each connective, recursing on the formula's tree.

    Evaluating every point and collecting the true ones must agree with
    `incidence_of`; the point index is checked against the width of every
    incidence in the environment.
    """
    if point < 0:
        raise ValueError(f"point index must be >= 0, got {point}")
    for inc in env.values():
        if point >= inc.width:
            raise ValueError(f"point index {point} out of range for width {inc.width}")
    return _holds(f, point, env)


def _holds(f: ic.Formula, point: int, env) -> bool:
    if isinstance(f, ic.Top):
        return True
    if isinstance(f, ic.Bottom):
        return False
    if isinstance(f, ic.Atom):
        inc = env.get(f.name)
        if inc is None:
            raise ic.UnboundAtomError(f"atom {f.name!r} has no incidence")
        return point in inc
    if isinstance(f, ic.Not):
        return not _holds(f.args[0], point, env)
    if isinstance(f, ic.And):
        return _holds(f.args[0], point, env) and _holds(f.args[1], point, env)
    if isinstance(f, ic.Or):
        return _holds(f.args[0], point, env) or _holds(f.args[1], point, env)
    if isinstance(f, ic.Implies):
        return not _holds(f.args[0], point, env) or _holds(f.args[1], point, env)
    raise TypeError(f"not a formula: {f!r}")


def enumerate_legal(initial: ic.BoundAssignment) -> list[dict[str, ic.Incidence]]:
    """Brute-force oracle: every exact assignment of incidences to atoms
    whose induced sentence incidences respect all registered bounds.

    Only candidate incidences inside each atom's own bounds are tried,
    but the instance must still pass the width * atoms guard.  This is
    the independent reference for complete mode, so it uses nothing of
    `propagate`.
    """
    space = initial.space
    width = space.size
    atoms = [f for f in initial if isinstance(f, ic.Atom)]
    if width * len(atoms) > ORACLE_GUARD_BITS:
        raise ic.InstanceTooLargeError(
            f"width * atoms = {width * len(atoms)} exceeds the"
            f" {ORACLE_GUARD_BITS}-bit oracle guard"
        )
    candidate_sets: list[list[ic.Incidence]] = []
    for atom in atoms:
        low, high = initial.bounds(atom)
        free = [k for k in range(width) if k in high and k not in low]
        values = []
        for picks in range(1 << len(free)):
            bits = low.bits
            for j, k in enumerate(free):
                if picks >> j & 1:
                    bits |= 1 << k
            values.append(ic.Incidence(bits, width))
        candidate_sets.append(values)
    legal = []
    sentences = initial.sentences()
    for combo in itertools.product(*candidate_sets):
        env = {atom.name: inc for atom, inc in zip(atoms, combo)}
        for sentence in sentences:
            value = ic.incidence_of(sentence, env, space)
            low, high = initial.bounds(sentence)
            if not (low.is_subset(value) and value.is_subset(high)):
                break
        else:
            legal.append(env)
    return legal


def tight_bounds(initial: ic.BoundAssignment) -> ic.BoundAssignment | None:
    """The exact envelope of the legal assignments, by enumeration: per
    sentence, the intersection (lower) and union (upper) of its value
    across all legal assignments.  None when no assignment is legal."""
    legal = enumerate_legal(initial)
    if not legal:
        return None
    space = initial.space
    result = ic.BoundAssignment(space)
    for sentence in initial:
        values = [ic.incidence_of(sentence, env, space) for env in legal]
        low = values[0]
        high = values[0]
        for value in values[1:]:
            low = low & value
            high = high | value
        result.declare(sentence, lower=low, upper=high)
    return result


def reference_fixpoint(initial: ic.BoundAssignment):
    """The fixpoint as the rule catalog defines it, with no worklist:
    every rule of every registered compound sentence, in registration
    order and catalog order, in rounds until a round changes nothing.
    Returns (status, culprit, final bounds), stopping at the first
    sentence whose lower bound escapes its upper bound."""
    work = initial.copy()
    bad = ic.check_consistency(work)
    if bad is not None:
        return ic.INCONSISTENT, bad, work
    width = work.space.size
    full = work.space.full().bits
    changed = True
    while changed:
        changed = False
        for c in work.sentences():
            if not c.args:
                continue
            nodes = {"self": c, "left": c.args[0], "right": c.args[-1]}
            for rule in RULES_BY_CONNECTIVE[type(c)]:
                bounds = [work.bounds(nodes[key]) for key in ("self", "left", "right")]
                mask = rule.compute(full, *(side.bits for pair in bounds for side in pair))
                merge = work.raise_lower if rule.action == "raise" else work.cut_upper
                target = nodes[rule.target]
                if merge(target, ic.Incidence(mask, width)):
                    changed = True
                    low, high = work.bounds(target)
                    if not low.is_subset(high):
                        return ic.INCONSISTENT, target, work
    return ic.FIXPOINT, None, work


def reference_directive_lines(text: str):
    """The per-line definition of `kb.directive_lines`: each line of
    `text`, broken at '\\n', '\\r\\n' and '\\r' only, numbered from 1, cut
    at its first '#' and stripped, kept when anything is left."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.partition("#")[0].strip()
        if line:
            yield lineno, line


_REFERENCE_TOKEN_RE = re.compile(r"\s*(?:([A-Za-z][A-Za-z0-9_]*|&|\||->|~|\(|\))|(\S))")
_REFERENCE_BINARY = {"&": ic.And, "|": ic.Or, "->": ic.Implies}
_REFERENCE_CONSTANTS = {"true": ic.TRUE, "false": ic.FALSE}


def reference_parse_formula(text: str, definitions=None) -> ic.Formula:
    """The match-object definition of `ic.parse_formula`: one `finditer`
    match per token with its position, every character that starts no
    token reported before any structural error, then one loop over
    (token, position) pairs ending in (None, len(text))."""
    definitions = definitions or {}
    tokens = []
    for m in _REFERENCE_TOKEN_RE.finditer(text):
        if m[2]:
            raise ic.FormulaSyntaxError(f"unexpected character {m[2]!r}", m.start(2))
        tokens.append((m[1], m.start(1)))
    tokens.append((None, len(text)))
    operands = []
    waiting = []  # None marks an open parenthesis
    depth = 0
    want_operand = True
    for token, pos in tokens:
        if want_operand:
            if token == "~":
                waiting.append(ic.Not)
            elif token == "(":
                waiting.append(None)
                depth += 1
            elif token is None:
                raise ic.FormulaSyntaxError("unexpected end of input", pos)
            elif re.fullmatch(r"[A-Za-z][A-Za-z0-9_]*", token):
                node = _REFERENCE_CONSTANTS.get(token) or definitions.get(token) or ic.Atom(token)
                operands.append(node)
                want_operand = False
            else:
                raise ic.FormulaSyntaxError(f"unexpected {token!r}", pos)
            continue
        binary = _REFERENCE_BINARY.get(token)
        if binary is None and not (token == ")" and depth):
            if depth:
                raise ic.FormulaSyntaxError("expected ')'", pos)
            if token is not None:
                raise ic.FormulaSyntaxError(f"unexpected {token!r}", pos)
        floor = binary.contexts[0] if binary else 0
        while waiting and waiting[-1] is not None and waiting[-1].prec >= floor:
            connective = waiting.pop()
            arity = len(connective.contexts)
            operands[-arity:] = [connective(*operands[-arity:])]
        if binary:
            waiting.append(binary)
            want_operand = True
        elif token == ")":
            waiting.pop()
            depth -= 1
    return operands[0]


_TRUTHY = {"1": True, "t": True, "true": True, "0": False, "f": False, "false": False}


def reference_ingest(text: str) -> str:
    """What `ingest` writes for a records text, by the per-row reader and
    the fold of bool tuples that `RecordTable.from_text` and
    `incidences_from_records` replaced; raises the same `RecordTableError`.
    Each row is read line by line, and each column's incidence is built
    from the indices of the distinct rows that have it true."""
    header: tuple[str, ...] | None = None
    rows = []
    for lineno, line in reference_directive_lines(text):
        if header is None:
            header, header_lineno = tuple(line.replace(",", " ").split()), lineno
            continue
        row = tuple(map(_TRUTHY.get, line.lower().replace(",", " ").split()))
        if None in row:
            problem = f"bad value {line.replace(',', ' ').split()[row.index(None)]!r}"
        elif len(row) != len(header):
            problem = f"row has {len(row)} values, expected {len(header)}"
        else:
            rows.append(row)
            continue
        raise ic.RecordTableError(f"line {lineno}: {problem}")
    if header is None:
        raise ic.RecordTableError("table has no header line")
    try:
        ic.RecordTable(header, tuple(map(bytes, rows)))
    except ic.RecordTableError as error:
        if "column" not in str(error):
            raise
        raise ic.RecordTableError(f"line {header_lineno}: {error}") from None
    groups = Counter(rows)
    space = ic.SampleSpace((count, len(rows)) for count in groups.values())
    env = {
        name: ic.Incidence.from_indices([k for k, row in enumerate(groups) if row[c]], len(groups))
        for c, name in enumerate(header)
    }
    return ic.kb_fragment(space, env)


def reference_random_subset(rng: random.Random, mask: int, count: int, size: int) -> int:
    """The draw that `construct._random_subset` replaced, which listed its
    fix-up pool point by point: the same random words, then `rng.sample`
    over the tuple of the pool's points.  Same seed, same mask."""
    points = mask.bit_count()
    if not 0 <= count <= points:
        raise ValueError(f"cannot draw {count} of {points} points")
    if count in (0, points):
        return mask if count else 0
    digits = (points.bit_length() + 1) // 2
    share = (count << digits) // points
    drawn = 0
    for _ in range(digits):
        word = rng.getrandbits(size)
        drawn = drawn | word if share & 1 else drawn & word
        share >>= 1
    drawn &= mask
    have = drawn.bit_count()
    if have == count:
        return drawn
    pool = ic.Incidence(mask & ~drawn if have < count else drawn, size).indices()
    return drawn ^ ic.Incidence.from_indices(rng.sample(pool, abs(have - count)), size).bits


@contextlib.contextmanager
def _patched_worklist(take: Callable[[deque], int], result=None):
    """Within the block, `incalc.propagation.deque` is replaced by a
    `deque` whose `popleft` is `take(queue)`, and `result` is yielded.
    Fails if the block built no such queue, so that a fixpoint which no
    longer takes its worklist from `deque` cannot pass for a patched
    one."""
    built = []

    class PatchedQueue(deque):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

        popleft = take

    with mock.patch("incalc.propagation.deque", PatchedQueue):
        yield result
    assert built, "the block built no worklist through incalc.propagation.deque"


def shuffled_worklist(seed: int):
    """Within the block, the fixpoint takes its queued nodes in a seeded
    random order: its `deque`'s `popleft` removes the item at
    `rng.randrange(len(queue))`.  Order-independence of the fixed point
    is checked by running under this."""
    rng = random.Random(seed)

    def take(queue: deque) -> int:
        k = rng.randrange(len(queue))
        item = queue[k]
        del queue[k]
        return item

    return _patched_worklist(take)


def counting_worklist():
    """Within the block, the fixpoint takes its queued nodes first in,
    first out as usual, and each position it takes is appended to the
    list the block is given, so its length counts the updates run."""
    taken: list[int] = []

    def take(queue: deque) -> int:
        item = deque.popleft(queue)
        taken.append(item)
        return item

    return _patched_worklist(take, taken)


def reference_overlap_count(kx: int, ky: int, size: int, c: Fraction) -> int:
    """The count that `construct._overlap_count` computed through a root
    rounded to 15 decimal places, before its range check:
    round_half_up((kx*ky + c*root) / size), with root the square root of
    kx(size-kx) ky(size-ky) rounded to nearest at 10^-15."""
    variance = kx * (size - kx) * ky * (size - ky)
    root = Fraction((isqrt(4 * variance * 10**30) + 1) // 2, 10**15)
    return round_half_up(Fraction(kx * ky, size) + c * root / size)


# hypothesis strategies

@st.composite
def written_weights(draw, max_size: int = 40):
    """Weights summing to 1, some zero, each written as an `int` (when
    whole), a possibly unreduced string like '2/10', or a `Fraction`."""
    raw = draw(st.lists(st.integers(0, 9), min_size=1, max_size=max_size))
    if not any(raw):
        raw[0] = 1
    total = sum(raw)
    scale = draw(st.integers(1, 6))
    written = []
    for count in raw:
        forms = [f"{count * scale}/{total * scale}", Fraction(count, total)]
        if count in (0, total):
            forms.append(count // total)
        written.append(draw(st.sampled_from(forms)))
    return written


def incidences(width: int):
    return st.integers(min_value=0, max_value=(1 << width) - 1).map(
        lambda bits: ic.Incidence(bits, width)
    )


atoms_st = st.sampled_from(ATOMS).map(ic.Atom)

formulas_st = st.recursive(
    st.sampled_from([ic.TRUE, ic.FALSE]) | atoms_st,
    lambda sub: st.one_of(
        st.builds(ic.Not, sub),
        st.builds(ic.And, sub, sub),
        st.builds(ic.Or, sub, sub),
        st.builds(ic.Implies, sub, sub),
    ),
    max_leaves=12,
)
