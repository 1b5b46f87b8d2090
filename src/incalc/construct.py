"""Building sample spaces and incidences from data you actually have.

Two sources are supported.  `incidences_from_records` converts a table of
boolean observations into a space with one point per distinct row,
weighted by relative frequency, which makes every derived probability an
observed frequency.  `incidences_from_probabilities` goes the other way:
given target marginals and pairwise correlations it synthesises a uniform
space and atom incidences realising them as closely as integer point
counts allow.

A records table is read by one of two routes, once its line ends are
unified as `kb.directive_lines` unifies them.  A clean text (no '#',
content on its first line) whose rows are single-spaced '0'/'1' values
passes one check of two strided slices and becomes flag bytes by one
`bytes.translate`.  Any other text is read from `directive_lines` once,
one row at a time, each row mapped to flag bytes through one table of the
value words, so the first bad row raises its own error.  Each row is kept
as flag bytes (one byte per column, the encoding of `Incidence.flags`).
`incidences_from_records` folds equal rows with a `Counter` over those bytes,
builds the space from the counts (`SampleSpace.from_counts`) and reads column
c as every width-th byte of the distinct rows.

Synthesis is deterministic for a fixed seed and works on int bitmasks
throughout: every draw is one `_random_subset` of a mask, a uniformly
random subset of a given size built from a few random words and fixed up
by O(sqrt(points)) single points, picked by their rank in the mask, so no
step makes a Python int per point.  Marginals are met exactly at the quota
round(p * size).  The correlation pairs must form a forest: each tree is
oriented from its lexically smallest atom, breadth first, and every other
atom is moved once against its parent, by seeded swaps that set the pair's
overlap to the count the target correlation implies.  A pair that closes
a cycle of pairs is refused.  Three-way and higher dependencies are not
controlled.
"""
from __future__ import annotations

import re
from bisect import bisect_right
from collections import Counter
from collections.abc import Iterable, Mapping
from fractions import Fraction
from itertools import accumulate
from math import isqrt

from .errors import InfeasibleTargetError, RecordTableError
from .kb import directive_lines, unify_line_ends
from .logic import IDENT_RE, is_name
from .rational import as_ratio, exact_str, round_half_up
from .record import Frozen
from .space import FLAG_BYTES, Incidence, SampleSpace

_PROB_RE = re.compile(rf"prob\s+({IDENT_RE.pattern})\s*=\s*(\S+)")
_CORR_RE = re.compile(rf"corr\s+({IDENT_RE.pattern})\s+({IDENT_RE.pattern})\s*=\s*(\S+)")

_FLAGS = {"0": 0, "1": 1, "f": 0, "t": 1, "false": 0, "true": 1}  # a row's values, lowercased
_POPCOUNT = bytes(map(int.bit_count, range(256)))  # byte -> its set bits


class TargetSpec(Frozen):
    """Targets for synthesis: marginal probabilities per atom, optional
    pairwise correlations (keyed by unordered atom pair), a space size,
    and the seed that makes placement reproducible.  Each target is read
    by `rational.as_ratio` (no float) and kept a `Fraction`, in new dicts,
    so the default `{}` is never changed."""

    __slots__ = ("marginals", "size", "correlations", "seed")

    def __init__(
        self,
        marginals: Mapping[str, Fraction],
        size: int,
        correlations: Mapping[tuple[str, str], Fraction] = {},
        seed: int = 0,
    ):
        if size < 1:
            raise ValueError(f"size must be >= 1, got {size}")
        checked = {name: _marginal(name, p) for name, p in marginals.items()}
        pairs = {}
        for pair, c in correlations.items():
            _add_correlation(pairs, pair, c, checked)
        object.__setattr__(self, "marginals", checked)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "correlations", pairs)
        object.__setattr__(self, "seed", seed)


def _marginal(name: str, p) -> Fraction:
    """The target marginal `p` of atom `name`, read exactly and checked."""
    if not is_name(name):
        raise ValueError(f"bad atom name: {name!r}")
    p = Fraction(*as_ratio(p))
    if not 0 <= p <= 1:
        raise ValueError(f"marginal for {name!r} out of [0, 1]: {exact_str(p)}")
    return p


def _add_correlation(correlations: dict, pair, c, marginals: Mapping[str, Fraction]) -> None:
    """Check the target correlation `c` of an atom pair against the
    checked `marginals`, names first, and add it to `correlations` under
    the sorted pair."""
    for name in pair:
        if not is_name(name):
            raise ValueError(f"bad atom name: {name!r}")
    x, y = sorted(pair)
    if x == y:
        raise ValueError(f"correlation pair must name two distinct atoms: {(x, y)}")
    for name in (x, y):
        if name not in marginals:
            raise ValueError(f"correlated atom {name!r} has no marginal")
        if marginals[name] in (0, 1):
            raise ValueError(f"correlated atom {name!r} needs a marginal strictly inside (0, 1)")
    c = Fraction(*as_ratio(c))
    if not -1 <= c <= 1:
        raise ValueError(f"correlation for {(x, y)} out of [-1, 1]: {exact_str(c)}")
    if (x, y) in correlations:
        raise ValueError(f"duplicate correlation for pair ({x}, {y})")
    correlations[(x, y)] = c


def _overlap_count(kx: int, ky: int, size: int, c: Fraction) -> int:
    """Point count for the pair's conjunction implied by the correlation,
    computed against the quantised marginals kx/size and ky/size, then
    checked against the hard set-theoretic range
    [max(0, kx + ky - size), min(kx, ky)].

    The count is round_half_up((kx*ky + c*sqrt(V)) / size), where
    V = kx(size-kx) ky(size-ky), in integers: with c = p/q, 2*p*sqrt(V) is
    +-sqrt(4*p^2*V), of which only the floor counts, as
    floor((N + y)/D) = floor((N + floor(y))/D) for integers N and D > 0."""
    p, q = c.numerator, c.denominator
    m = 4 * p * p * kx * (size - kx) * ky * (size - ky)
    root = isqrt(m)
    if p < 0:
        root = -(root + (root * root != m))
    count = (2 * kx * ky * q + size * q + root) // (2 * size * q)
    lowest = max(0, kx + ky - size)
    highest = min(kx, ky)
    if not lowest <= count <= highest:
        raise InfeasibleTargetError(
            f"implied overlap {count} outside the feasible range"
            f" [{lowest}, {highest}] for counts {kx} and {ky} of {size}"
        )
    return count


def _random_subset(rng, mask: int, count: int, size: int) -> int:
    """A uniformly random `count`-subset of `mask`'s points, as a mask,
    drawn from the `random.Random` `rng`.

    Each point is first kept with probability share/2^digits, at most
    count/|mask| and within 2^-digits of it: `digits` random words of
    `size` bits are combined by the binary digits of `share`, least
    significant first, AND on a 0 and OR on a 1.  The result is clipped to
    `mask`, and the |have - count| points missing or extra are drawn by
    rank: `rng.sample` picks that many ranks among the pool's points, and
    `_select` turns them into a mask, so no point of the pool becomes a
    Python int.  `random.sample` reads only the population's length and
    the items at the indices it picks, so a `range` of ranks takes the
    same draws as the tuple of the pool's points would.  With 2^digits at
    least sqrt(|mask|) that fix-up is O(sqrt(|mask|)) points.  No step
    depends on which points `mask` holds, so every `count`-subset is
    equally likely.
    """
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
    # The fix-up points come from outside `drawn` or from inside it, so a
    # XOR adds or removes them.
    pool = mask & ~drawn if have < count else drawn
    return drawn ^ _select(pool, rng.sample(range(pool.bit_count()), abs(have - count)))


def _select(mask: int, ranks: Iterable[int]) -> int:
    """The mask of `mask`'s points of the given ranks, rank r being the
    point with r lower points in `mask`.

    Each rank is found by bisecting the running point count of `mask`'s
    bytes (popcounts by one `bytes.translate`), then clearing that byte's
    lower points, so the cost is one pass over the bytes in C plus a few
    steps per rank."""
    data = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    before = list(accumulate(data.translate(_POPCOUNT), initial=0))
    chosen = 0
    for rank in ranks:
        at = bisect_right(before, rank) - 1
        byte = data[at]
        for _ in range(rank - before[at]):
            byte &= byte - 1
        chosen |= (byte & -byte) << 8 * at
    return chosen


def _placement_order(pairs: list[tuple[str, str]]) -> list[tuple[str, str]]:
    """(parent, child) for every atom that moves, parents first.

    Each tree of the pair graph is oriented from its lexically smallest
    atom, breadth first with lexical ties, so each atom moves once,
    against its parent.  A pair outside those trees closes a cycle and is
    refused."""
    neighbours: dict[str, list[str]] = {}
    for x, y in pairs:
        neighbours.setdefault(x, []).append(y)
        neighbours.setdefault(y, []).append(x)
    order: list[tuple[str, str]] = []
    placed: set[str] = set()
    for root in sorted(neighbours):
        if root in placed:
            continue
        placed.add(root)
        queue = [root]
        for parent in queue:
            for child in sorted(neighbours[parent]):
                if child not in placed:
                    placed.add(child)
                    order.append((parent, child))
                    queue.append(child)
    tree = {tuple(sorted(edge)) for edge in order}
    for x, y in pairs:
        if (x, y) not in tree:
            raise InfeasibleTargetError(
                f"correlation for pair ({x}, {y}) closes a cycle of pairs;"
                " only pairs that form a forest can be placed"
            )
    return order


def incidences_from_probabilities(spec: TargetSpec) -> tuple[SampleSpace, dict[str, Incidence]]:
    """Synthesise a uniform space and one incidence per atom.

    Every member set is an int bitmask.  Each atom starts as a uniformly
    random subset of its quota's size; then each tree of the pair graph is
    placed from its lexically smallest atom, breadth first, and each other
    atom is moved once against its parent: the missing or extra overlap is
    drawn from the points on one side of the pair only, or on neither or
    both sides, so the moved atom keeps its count.  Achieved marginals
    equal their quotas exactly, so they sit within 1/(2 * size) of the
    targets; achieved pairwise conjunction probabilities sit within 1/size
    of the value the target correlation implies.  Raises
    `InfeasibleTargetError` naming a pair that closes a cycle of pairs.
    Deterministic for a fixed seed.
    """
    import random  # only synthesis draws, so no other command loads it

    size = spec.size
    space = SampleSpace.uniform(size)
    rng = random.Random(spec.seed)
    names = sorted(spec.marginals)
    counts = {name: round_half_up(spec.marginals[name] * size) for name in names}
    pairs = sorted(spec.correlations)
    for pair in pairs:
        for name in pair:
            if counts[name] in (0, size):
                raise InfeasibleTargetError(
                    f"quantised marginal for {name!r} is degenerate at size {size};"
                    " no correlation can be realised"
                )
    order = _placement_order(pairs)
    targets = {
        (x, y): _overlap_count(counts[x], counts[y], size, spec.correlations[(x, y)])
        for x, y in pairs
    }
    full = (1 << size) - 1
    members = {name: _random_subset(rng, full, counts[name], size) for name in names}
    for parent, child in order:
        first, second = members[parent], members[child]
        gap = targets[min(parent, child), max(parent, child)] - (first & second).bit_count()
        if gap > 0:
            arrivals = _random_subset(rng, first & ~second, gap, size)
            departures = _random_subset(rng, second & ~first, gap, size)
        elif gap < 0:
            arrivals = _random_subset(rng, full & ~(first | second), -gap, size)
            departures = _random_subset(rng, first & second, -gap, size)
        else:
            continue
        members[child] = second ^ departures ^ arrivals
    # Each atom moves only to place its pair with its parent, before any
    # pair with its children, so no placed pair is disturbed: this check
    # guards the orientation rather than the draws.
    for (x, y), target in targets.items():
        overlap = (members[x] & members[y]).bit_count()
        if overlap != target:
            raise InfeasibleTargetError(
                f"correlation for pair ({x}, {y}) not realised: overlap {overlap},"
                f" implied {target}"
            )
    env = {name: Incidence(members[name], size) for name in names}
    return space, env


class RecordTable(Frozen):
    """A rectangular table of boolean observations, one row per record.

    Each row is flag bytes, one byte per column, 1 for true and 0 for
    false (the encoding of `Incidence.flags`); `bytes(row)` makes them
    from a row of bools.  The rows are checked in one pass over their
    join on '\\n', which must hold a line end every width + 1 bytes and
    no other byte but 0 and 1.  Only rows that fail are walked, to name
    the first bad one by its 1-based number."""

    __slots__ = ("columns", "rows")

    def __init__(self, columns: tuple[str, ...], rows: tuple[bytes, ...]):
        if not columns:
            raise RecordTableError("table has no columns")
        for name in columns:
            if not is_name(name):
                raise RecordTableError(f"bad column name: {name!r}")
        if len(set(columns)) != len(columns):
            raise RecordTableError("duplicate column names")
        rows = tuple(rows)
        if not rows:
            raise RecordTableError("table has no rows")
        width, line_ends = len(columns), b"\n" * (len(rows) - 1)
        data = b"\n".join(rows) if set(map(type, rows)) == {bytes} else b""
        if not (
            len(data) == len(rows) * (width + 1) - 1
            and data[width :: width + 1] == line_ends == data.translate(None, b"\0\1")
        ):
            # A row that is not bytes leaves `data` empty, too short for
            # any table; rows that are all `width` flag bytes pass, so
            # this walk raises.
            for number, row in enumerate(rows, 1):
                if type(row) is not bytes or row.translate(None, b"\0\1"):
                    raise RecordTableError(f"row {number} is not flag bytes: {row!r}")
                if len(row) != width:
                    raise RecordTableError(f"row {number} has {len(row)} values, expected {width}")
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "rows", rows)

    @classmethod
    def from_text(cls, text: str) -> "RecordTable":
        """Parse a whitespace/comma separated table: a header line of
        column names, then one line per record with values in
        {0, 1, t, f, true, false} (case-insensitive).  Lines are read as
        by `kb.directive_lines`: '#' starts a comment, blank lines are
        skipped, and an error in the header or a row names its 1-based
        line.  Once line ends are unified, a clean text (no '#', content
        on its first line) whose rows are single-spaced '0'/'1' values is
        read as written; any other text is read from `directive_lines`
        once, one row at a time."""
        text = unify_line_ends(text)
        first, _, body = text.partition("\n")
        header_lineno, header = 1, tuple(first.replace(",", " ").split())
        clean = header and "#" not in text  # b"" is no flag text
        flags = body.removesuffix("\n").encode("ascii", "replace") if clean else b""
        if _is_flag_text(flags, len(header)):
            rows = tuple(flags.translate(FLAG_BYTES, b" ").split(b"\n"))
        else:
            lines = directive_lines(text)
            first = next(lines, None)
            if first is None:
                raise RecordTableError("table has no header line")
            header_lineno, header = first[0], tuple(first[1].replace(",", " ").split())
            rows = tuple(_read_row(lineno, line, len(header)) for lineno, line in lines)
        try:
            return cls(header, rows)
        except RecordTableError as error:
            if "column" not in str(error):
                raise
            raise RecordTableError(f"line {header_lineno}: {error}") from None


def _is_flag_text(flags: bytes, width: int) -> bool:
    """Whether `flags` is one or more lines of `width` '0'/'1' values
    each, separated by single spaces."""
    if not width or (len(flags) + 1) % (2 * width):
        return False
    records = (len(flags) + 1) // (2 * width)
    separators = (b" " * (width - 1) + b"\n") * records
    return not flags[::2].translate(None, b"01") and flags[1::2] == separators[:-1]


def _read_row(lineno: int, line: str, width: int) -> bytes:
    """The flag bytes of one row, or its error: a bad value (in its
    original case) before a wrong number of values."""
    values = line.lower().replace(",", " ").split()
    try:
        row = bytes(map(_FLAGS.__getitem__, values))
    except KeyError as error:
        token = line.replace(",", " ").split()[values.index(error.args[0])]
        raise RecordTableError(f"line {lineno}: bad value {token!r}") from None
    if len(row) != width:
        raise RecordTableError(f"line {lineno}: row has {len(row)} values, expected {width}")
    return row


def incidences_from_records(table: RecordTable) -> tuple[SampleSpace, dict[str, Incidence]]:
    """Fold identical rows into single points, in first-occurrence order,
    each weighted by its relative frequency; an atom's incidence is the
    set of points whose row has its column true.  Probabilities computed
    downstream are then exactly the observed frequencies.  The space is
    built from the counts and the row total, with no weight per point,
    and column c of the distinct rows is every width-th byte of their
    concatenation."""
    groups = Counter(table.rows)
    total = len(table.rows)
    space = SampleSpace.from_counts(groups.values(), total)
    flags, width = b"".join(groups), len(table.columns)
    columns = (flags[c::width] for c in range(width))
    return space, dict(zip(table.columns, map(Incidence.from_flags, columns)))


def parse_targets(text: str) -> tuple[dict[str, Fraction], dict[tuple[str, str], Fraction]]:
    """Parse a targets file into (marginals, correlations), checked as
    `TargetSpec` checks its own.

    Grammar, one directive per line, read by `kb.directive_lines` ('#'
    comments, blank lines skipped); every error names its 1-based line:
        prob <atom> = <rational-or-decimal>
        corr <atom> <atom> = <rational-or-decimal>
    Values are read by `rational.as_ratio`.  A `corr` line is checked once
    every `prob` line is read, as it needs the marginals of its atoms.
    """
    marginals: dict[str, Fraction] = {}
    correlations: dict[tuple[str, str], Fraction] = {}
    corr_lines = []
    for lineno, line in directive_lines(text):
        try:
            if m := _PROB_RE.fullmatch(line):
                name = m.group(1)
                if name in marginals:
                    raise ValueError(f"duplicate marginal for {name!r}")
                marginals[name] = _marginal(name, m.group(2))
            elif m := _CORR_RE.fullmatch(line):
                corr_lines.append((lineno, m.groups()))
            else:
                raise ValueError(f"unrecognised directive: {line!r}")
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    for lineno, (x, y, c) in corr_lines:
        try:
            _add_correlation(correlations, (x, y), c, marginals)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return marginals, correlations
