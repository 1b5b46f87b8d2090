"""Building sample spaces and incidences from data you actually have.

Two sources are supported.  `incidences_from_records` converts a table of
boolean observations into a space with one point per distinct row,
weighted by relative frequency, which makes every derived probability an
observed frequency.  `incidences_from_probabilities` goes the other way:
given target marginals and pairwise correlations it synthesises a uniform
space and atom incidences realising them as closely as integer point
counts allow.

Synthesis is deterministic for a fixed seed.  Marginals are met exactly
at the quota round(p * size); pairwise overlaps are adjusted by seeded
swaps toward the count implied by the target correlation, processing
pairs in lexical order and moving only the second atom of each pair.
Three-way and higher dependencies are not controlled.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from .errors import InfeasibleTargetError, RecordTableError
from .kb import directive_lines
from .logic import IDENT_RE
from .rational import as_ratio, round_half_up, sqrt_fraction
from .space import Incidence, SampleSpace

_PROB_RE = re.compile(rf"prob\s+({IDENT_RE.pattern})\s*=\s*(\S+)")
_CORR_RE = re.compile(rf"corr\s+({IDENT_RE.pattern})\s+({IDENT_RE.pattern})\s*=\s*(\S+)")

_TRUTHY = {"1": True, "t": True, "true": True, "0": False, "f": False, "false": False}


@dataclass(frozen=True)
class TargetSpec:
    """Targets for synthesis: marginal probabilities per atom, optional
    pairwise correlations (keyed by unordered atom pair), a space size,
    and the seed that makes placement reproducible.  Each target is read
    by `rational.as_ratio` (no float) and kept a `Fraction`."""

    marginals: Mapping[str, Fraction]
    size: int
    correlations: Mapping[tuple[str, str], Fraction] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.size < 1:
            raise ValueError(f"size must be >= 1, got {self.size}")
        marginals = {}
        for name, p in self.marginals.items():
            if not IDENT_RE.fullmatch(name):
                raise ValueError(f"bad atom name: {name!r}")
            p = Fraction(*as_ratio(p))
            if not 0 <= p <= 1:
                raise ValueError(f"marginal for {name!r} out of [0, 1]: {p}")
            marginals[name] = p
        object.__setattr__(self, "marginals", marginals)
        correlations = {}
        for pair, c in self.correlations.items():
            x, y = sorted(pair)
            if x == y:
                raise ValueError(f"correlation pair must name two distinct atoms: {pair}")
            for name in (x, y):
                if name not in marginals:
                    raise ValueError(f"correlated atom {name!r} has no marginal")
                if marginals[name] in (0, 1):
                    raise ValueError(
                        f"correlated atom {name!r} needs a marginal strictly inside (0, 1)"
                    )
            c = Fraction(*as_ratio(c))
            if not -1 <= c <= 1:
                raise ValueError(f"correlation for {pair} out of [-1, 1]: {c}")
            if (x, y) in correlations:
                raise ValueError(f"duplicate correlation for pair ({x}, {y})")
            correlations[(x, y)] = c
        object.__setattr__(self, "correlations", correlations)


def _overlap_count(kx: int, ky: int, size: int, c: Fraction) -> int:
    """Point count for the pair's conjunction implied by the correlation,
    computed against the quantised marginals kx/size and ky/size, then
    checked against the hard set-theoretic range
    [max(0, kx + ky - size), min(kx, ky)]."""
    variance = kx * (size - kx) * ky * (size - ky)
    root = sqrt_fraction(Fraction(variance))
    implied = Fraction(kx * ky, size) + c * root / size
    count = round_half_up(implied)
    lowest = max(0, kx + ky - size)
    highest = min(kx, ky)
    if not lowest <= count <= highest:
        raise InfeasibleTargetError(
            f"implied overlap {count} outside the feasible range"
            f" [{lowest}, {highest}] for counts {kx} and {ky} of {size}"
        )
    return count


def incidences_from_probabilities(spec: TargetSpec) -> tuple[SampleSpace, dict[str, Incidence]]:
    """Synthesise a uniform space and one incidence per atom.

    Achieved marginals equal their quotas exactly, so they sit within
    1/(2 * size) of the targets; achieved pairwise conjunction
    probabilities sit within 1/size of the value the target correlation
    implies.  Deterministic for a fixed seed.
    """
    size = spec.size
    space = SampleSpace.uniform(size)
    rng = random.Random(spec.seed)
    names = sorted(spec.marginals)
    counts = {name: round_half_up(spec.marginals[name] * size) for name in names}
    for pair in spec.correlations:
        for name in pair:
            if counts[name] in (0, size):
                raise InfeasibleTargetError(
                    f"quantised marginal for {name!r} is degenerate at size {size};"
                    " no correlation can be realised"
                )
    members = {name: set(rng.sample(range(size), counts[name])) for name in names}
    for x, y in sorted(spec.correlations):
        target = _overlap_count(counts[x], counts[y], size, spec.correlations[(x, y)])
        first, second = members[x], members[y]
        gap = target - len(first & second)
        if gap > 0:
            arrivals = rng.sample(sorted(first - second), gap)
            departures = rng.sample(sorted(second - first), gap)
        elif gap < 0:
            arrivals = rng.sample(sorted(set(range(size)) - first - second), -gap)
            departures = rng.sample(sorted(first & second), -gap)
        else:
            continue
        members[y] = second - set(departures) | set(arrivals)
    env = {name: space.incidence(members[name]) for name in names}
    return space, env


@dataclass(frozen=True)
class RecordTable:
    """A rectangular table of boolean observations, one row per record."""

    columns: tuple[str, ...]
    rows: tuple[tuple[bool, ...], ...]

    def __post_init__(self):
        if not self.columns:
            raise RecordTableError("table has no columns")
        for name in self.columns:
            if not IDENT_RE.fullmatch(name):
                raise RecordTableError(f"bad column name: {name!r}")
        if len(set(self.columns)) != len(self.columns):
            raise RecordTableError("duplicate column names")
        if not self.rows:
            raise RecordTableError("table has no rows")
        for row in self.rows:
            if len(row) != len(self.columns):
                raise RecordTableError(
                    f"row has {len(row)} values, expected {len(self.columns)}"
                )

    @classmethod
    def from_text(cls, text: str) -> "RecordTable":
        """Parse a whitespace/comma separated table: a header line of
        column names, then one line per record with values in
        {0, 1, t, f, true, false} (case-insensitive).  Lines are read by
        `kb.directive_lines`: '#' starts a comment, blank lines are
        skipped, and a bad row's error names its 1-based line."""
        header: tuple[str, ...] | None = None
        rows = []
        for lineno, line in directive_lines(text):
            if header is None:
                header = tuple(line.replace(",", " ").split())
                continue
            row = tuple(map(_TRUTHY.get, line.lower().replace(",", " ").split()))
            if None in row:
                problem = f"bad value {line.replace(',', ' ').split()[row.index(None)]!r}"
            elif len(row) != len(header):
                problem = f"row has {len(row)} values, expected {len(header)}"
            else:
                rows.append(row)
                continue
            raise RecordTableError(f"line {lineno}: {problem}")
        if header is None:
            raise RecordTableError("table has no header line")
        return cls(header, tuple(rows))


def incidences_from_records(table: RecordTable) -> tuple[SampleSpace, dict[str, Incidence]]:
    """Fold identical rows into single points, in first-occurrence order,
    each weighted by its relative frequency; an atom's incidence is the
    set of points whose row has its column true.  Probabilities computed
    downstream are then exactly the observed frequencies."""
    groups: dict[tuple[bool, ...], int] = {}
    for row in table.rows:
        groups[row] = groups.get(row, 0) + 1
    total = len(table.rows)
    space = SampleSpace((count, total) for count in groups.values())
    env = {}
    distinct = list(groups)
    for column, name in enumerate(table.columns):
        env[name] = space.incidence(
            k for k, row in enumerate(distinct) if row[column]
        )
    return space, env


def parse_targets(text: str) -> tuple[dict[str, Fraction], dict[tuple[str, str], Fraction]]:
    """Parse a targets file into (marginals, correlations).

    Grammar, one directive per line, read by `kb.directive_lines` ('#'
    comments, blank lines skipped); every error names its 1-based line:
        prob <atom> = <rational-or-decimal>
        corr <atom> <atom> = <rational-or-decimal>
    Values are read by `rational.as_ratio`, as `TargetSpec` reads its own.
    """
    marginals: dict[str, Fraction] = {}
    correlations: dict[tuple[str, str], Fraction] = {}
    for lineno, line in directive_lines(text):
        try:
            if m := _PROB_RE.fullmatch(line):
                name = m.group(1)
                if name in marginals:
                    raise ValueError(f"duplicate marginal for {name!r}")
                marginals[name] = Fraction(*as_ratio(m.group(2)))
            elif m := _CORR_RE.fullmatch(line):
                pair = tuple(sorted((m.group(1), m.group(2))))
                if pair in correlations:
                    raise ValueError(f"duplicate correlation for {pair}")
                correlations[pair] = Fraction(*as_ratio(m.group(3)))
            else:
                raise ValueError(f"unrecognised directive: {line!r}")
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return marginals, correlations
