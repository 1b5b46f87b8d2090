"""Independent reference for the output of every incalc command.

Nothing here imports incalc.  Formulas are nested tuples, incidences are
Python sets of point indices, and probabilities are `Fraction`s; the
expected text is rendered from those and compared with what the command
printed.  Each `check_*` function returns None when the output is right
and a one-line reason when it is not.

Formula tuples:  ("atom", name) | ("not", f) | ("and" | "or" | "imp", l, r)
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import product
from typing import Callable

# Binding strength, loosest first; `&` and `|` associate left, `->` right.
_PREC = {"imp": 1, "or": 2, "and": 3, "not": 4}
_SYMBOL = {"imp": "->", "or": "|", "and": "&"}


# --- formulas ---------------------------------------------------------------


def render(f, context: int = 0) -> str:
    """Concrete syntax with the fewest parentheses that re-parse to f."""
    kind = f[0]
    if kind == "atom":
        return f[1]
    if kind == "not":
        return "~" + render(f[1], _PREC["not"])
    prec = _PREC[kind]
    if kind == "imp":
        text = f"{render(f[1], prec + 1)} -> {render(f[2], prec)}"
    else:
        text = f"{render(f[1], prec)} {_SYMBOL[kind]} {render(f[2], prec + 1)}"
    return f"({text})" if context > prec else text


def evaluate(f, env: dict[str, frozenset], width: int, memo: dict | None = None) -> frozenset:
    """Incidence of f as a set of points.  `memo` is keyed by object
    identity, so definitions shared by reference are evaluated once."""
    if memo is not None and id(f) in memo:
        return memo[id(f)][1]
    kind = f[0]
    if kind == "atom":
        value = env[f[1]]
    elif kind == "not":
        value = frozenset(range(width)) - evaluate(f[1], env, width, memo)
    else:
        a = evaluate(f[1], env, width, memo)
        b = evaluate(f[2], env, width, memo)
        if kind == "and":
            value = a & b
        elif kind == "or":
            value = a | b
        else:
            value = (frozenset(range(width)) - a) | b
    if memo is not None:
        memo[id(f)] = (f, value)  # keep f alive so its id is not reused
    return value


def holds(f, valuation: dict[str, bool]) -> bool:
    kind = f[0]
    if kind == "atom":
        return valuation[f[1]]
    if kind == "not":
        return not holds(f[1], valuation)
    a, b = holds(f[1], valuation), holds(f[2], valuation)
    if kind == "and":
        return a and b
    if kind == "or":
        return a or b
    return (not a) or b


def distinct_subformulas(roots) -> dict[str, tuple]:
    """Every distinct subformula of the roots, keyed by its rendering.
    Shared objects are walked once, so deep definition chains stay cheap."""
    seen_ids: set[int] = set()
    found: dict[str, tuple] = {}
    stack = list(roots)
    while stack:
        f = stack.pop()
        if id(f) in seen_ids:
            continue
        seen_ids.add(id(f))
        found.setdefault(render(f), f)
        stack.extend(part for part in f[1:] if isinstance(part, tuple))
    return found


# --- numbers and incidences ---------------------------------------------------


def _decimal(scaled: int, digits: int = 6) -> str:
    whole, frac = divmod(scaled, 10**digits)
    if frac == 0:
        return str(whole)
    return f"{whole}." + f"{frac:0{digits}d}".rstrip("0")


def prob_text(q: Fraction) -> str:
    """'n/d (= decimal)', decimals rounded half up at six places, or the
    bare integer for 0 and 1."""
    if q.denominator == 1:
        return str(q.numerator)
    scaled = math.floor(q * 10**6 + Fraction(1, 2))
    return f"{q.numerator}/{q.denominator} (= {_decimal(scaled)})"


def corr_text(pa: Fraction, pb: Fraction, pab: Fraction) -> str:
    """Correlation solved from p(A&B) = p(A)p(B) + c*sqrt(p(A)p(~A)p(B)p(~B)),
    printed as sign*sqrt(c^2) to six places with the exact c^2."""
    numer = pab - pa * pb
    c2 = numer * numer / (pa * (1 - pa) * pb * (1 - pb))
    if numer == 0:
        return f"0 (c^2 = {c2})"
    # Nearest integer r to x = sqrt(c2) * 10^6, ties up: the largest r with
    # (2r - 1)^2 <= 4 x^2, i.e. 2r - 1 <= isqrt(floor(4 n 10^12 / d)).
    r = (math.isqrt(4 * c2.numerator * 10**12 // c2.denominator) + 1) // 2
    sign = "-" if numer < 0 else ""
    return f"{sign}{_decimal(r)} (c^2 = {c2})"


def bit_text(points, width: int) -> str:
    row = ["0"] * width
    for k in points:
        row[k] = "1"
    return "".join(row)


def bit_set(text: str) -> frozenset:
    return frozenset(k for k, ch in enumerate(text) if ch == "1")


def point_set_text(points) -> str:
    return "{" + ",".join(str(k) for k in sorted(points)) + "}"


def weight(points, counts: list[int] | None, total: int) -> Fraction:
    """Total weight of the points when point k weighs counts[k] / total;
    counts=None means the uniform space of `total` points."""
    if counts is None:
        return Fraction(len(points), total)
    return Fraction(sum(counts[k] for k in points), total)


def round_half_up(q: Fraction) -> int:
    return math.floor(q + Fraction(1, 2))


# --- expected text for the read commands --------------------------------------


class Space:
    """A generated space: atom incidences, and point weights as integer
    counts over a common total (counts=None for the uniform space)."""

    def __init__(self, width: int, env: dict[str, frozenset], counts: list[int] | None = None):
        self.width = width
        self.env = env
        self.counts = counts
        self.total = width if counts is None else sum(counts)

    def incidence(self, f) -> frozenset:
        return evaluate(f, self.env, self.width)

    def weight(self, points) -> Fraction:
        return weight(points, self.counts, self.total)

    def p(self, f) -> Fraction:
        return self.weight(self.incidence(f))

    def defined(self, kind: str, f, g=None) -> bool:
        """Whether a query is defined: cond needs p(g) > 0, corr needs both
        marginals strictly inside (0, 1)."""
        if kind == "prob":
            return True
        if kind == "cond":
            return self.p(g) > 0
        return 0 < self.p(f) < 1 and 0 < self.p(g) < 1


def eval_text(space: Space, f) -> str:
    points = space.incidence(f)
    return (
        f"{bit_text(points, space.width)}\n{point_set_text(points)}\n"
        f"p = {prob_text(space.weight(points))}\n"
    )


def query_text(space: Space, queries) -> str:
    lines = []
    for kind, f, g in queries:
        if kind == "prob":
            lines.append(f"prob {render(f)} = {prob_text(space.p(f))}")
        elif kind == "cond":
            joint = space.weight(space.incidence(f) & space.incidence(g))
            lines.append(f"cond {render(f)} given {render(g)} = {prob_text(joint / space.p(g))}")
        else:
            pab = space.weight(space.incidence(f) & space.incidence(g))
            lines.append(
                f"corr {render(f)} , {render(g)} = {corr_text(space.p(f), space.p(g), pab)}"
            )
    return "".join(line + "\n" for line in lines)


def ingest_text(columns: list[str], rows: list[tuple[bool, ...]]) -> str:
    """One point per distinct row in first-occurrence order, weighted by
    its frequency; a uniform result is written as `space N`."""
    counts: dict[tuple[bool, ...], int] = {}
    for row in rows:
        counts[row] = counts.get(row, 0) + 1
    distinct = list(counts)
    weights = [Fraction(counts[row], len(rows)) for row in distinct]
    if len(set(weights)) == 1:
        lines = [f"space {len(distinct)}"]
    else:
        lines = ["space weights " + " ".join(str(w) for w in weights)]
    for c, name in enumerate(columns):
        lines.append(f"inc {name} = " + "".join("1" if row[c] else "0" for row in distinct))
    return "\n".join(lines) + "\n"


# --- checks -------------------------------------------------------------------


def check_text(expected: Callable[[], str], code: int, out: str) -> str | None:
    """Exact comparison with the text `expected()` renders."""
    expected = expected()
    if code != 0:
        return f"exit code {code}, expected 0"
    if out != expected:
        line = next(
            (i for i, (a, b) in enumerate(zip(out.splitlines(), expected.splitlines())) if a != b),
            min(len(out.splitlines()), len(expected.splitlines())),
        )
        return f"output differs from the oracle at line {line + 1}"
    return None


def check_sample(
    marginals: dict[str, Fraction],
    pairs: dict[tuple[str, str], Fraction],
    size: int,
    code: int,
    out: str,
) -> str | None:
    """Each atom has exactly round-half-up(p * size) points, and each
    correlated pair overlaps in the count the target correlation implies
    for those counts, to within rounding."""
    if code != 0:
        return f"exit code {code}, expected 0"
    lines = out.splitlines()
    names = sorted(marginals)
    if lines[:1] != [f"space {size}"] or len(lines) != len(names) + 1:
        return "expected `space N` and one inc line per atom"
    members = {}
    for name, line in zip(names, lines[1:]):
        prefix = f"inc {name} = "
        bits = line[len(prefix):]
        if not line.startswith(prefix) or len(bits) != size or set(bits) - {"0", "1"}:
            return f"malformed inc line for {name}"
        members[name] = bit_set(bits)
        quota = round_half_up(marginals[name] * size)
        if len(members[name]) != quota:
            return f"{name} has {len(members[name])} points, expected {quota}"
    for (x, y), c in pairs.items():
        kx, ky = len(members[x]), len(members[y])
        root = math.sqrt(kx * (size - kx) * ky * (size - ky))
        implied = kx * ky / size + float(c) * root / size
        overlap = len(members[x] & members[y])
        if abs(overlap - implied) > 0.5 + 1e-6:
            return f"{x},{y} overlap {overlap}, correlation implies {implied:.3f}"
    return None


_DUMP_LINE = re.compile(r"(.+) inf=([01]+) sup=([01]+) p=\[(.+), (.+)\]")


def envelope(width: int, atoms: list[str], bounded, sentences: dict[str, tuple]):
    """Exact envelope of the legal assignments, point by point: at each
    point try all 2^atoms valuations and keep those that respect every
    bound.  Returns ({rendering: (low, high)}, number of legal
    assignments); the envelope is None when some point has no legal
    valuation, i.e. the instance is unsatisfiable."""
    valuations = [dict(zip(atoms, bits)) for bits in product((False, True), repeat=len(atoms))]
    low = {text: set() for text in sentences}
    high = {text: set() for text in sentences}
    count = 1
    for k in range(width):
        legal = [
            v
            for v in valuations
            if all(
                (k not in lo or holds(f, v)) and (k in hi or not holds(f, v))
                for f, lo, hi in bounded
            )
        ]
        if not legal:
            return None, 0
        count *= len(legal)
        for text, f in sentences.items():
            truth = [holds(f, v) for v in legal]
            if all(truth):
                low[text].add(k)
            if any(truth):
                high[text].add(k)
    return {text: (frozenset(low[text]), frozenset(high[text])) for text in sentences}, count


def check_solve(instance, complete: bool, code: int, out: str) -> str | None:
    """Check a `solve` dump against an instance from inputs.py (a uniform
    space; sentences are matched by their rendering).

    Every line's p=[...] must be the weight of its inf/sup, the lines must
    be exactly the distinct registered sentences, and:
      - with a hidden ground truth, each sentence's true incidence lies
        within its printed inf/sup and the verdict is CONSISTENT;
      - with an envelope, --complete prints exactly the envelope (or
        INCONSISTENT when there is none), and plain solve prints bounds
        that contain the envelope (or any verdict when there is none,
        since the fixpoint may miss an inconsistency).
    """
    lines = out.splitlines()
    if not lines:
        return "empty output"
    verdict = lines[-1]
    width = instance.width
    seen = set()
    dump = {}
    for line in lines[:-1]:
        m = _DUMP_LINE.fullmatch(line)
        if not m or len(m.group(2)) != width or len(m.group(3)) != width:
            return f"malformed dump line: {line[:80]!r}"
        text, inf_bits, sup_bits, p_low, p_high = m.groups()
        if text in seen:
            return f"sentence printed twice: {text[:80]}"
        seen.add(text)
        low, high = bit_set(inf_bits), bit_set(sup_bits)
        if p_low != prob_text(weight(low, None, width)) or p_high != prob_text(
            weight(high, None, width)
        ):
            return f"p=[...] does not match inf/sup for {text[:80]}"
        dump[text] = (low, high)
    if seen != set(instance.sentences):
        return f"dump lists {len(seen)} sentences, expected {len(instance.sentences)}"
    envelope_bounds = instance.envelope
    satisfiable = instance.truth is not None or envelope_bounds is not None
    if verdict.startswith("INCONSISTENT: "):
        if satisfiable:
            return "INCONSISTENT on a satisfiable instance"
        if code != 1:
            return f"exit code {code} with INCONSISTENT"
        if verdict[len("INCONSISTENT: "):] not in instance.sentences:
            return "culprit is not a registered sentence"
        return None
    if verdict != "CONSISTENT" or code != 0:
        return f"verdict {verdict[:40]!r} with exit code {code}"
    if complete and not satisfiable:
        return "--complete missed an inconsistency"
    if instance.truth is not None:
        memo: dict = {}
        for text, f in instance.sentences.items():
            low, high = dump[text]
            value = evaluate(f, instance.truth, width, memo)
            if not low <= value <= high:
                return f"ground truth outside printed bounds for {text[:80]}"
    if envelope_bounds is not None:
        for text, (env_low, env_high) in envelope_bounds.items():
            low, high = dump[text]
            if complete and (low, high) != (env_low, env_high):
                return f"--complete bounds differ from the envelope for {text}"
            if not (low <= env_low and env_high <= high):
                return f"bounds exclude a legal assignment for {text}"
    elif not complete:
        if any(not low <= high for low, high in dump.values()):
            return "CONSISTENT with a crossed bound"
    return None
