"""Weighted sample spaces and fixed-width incidence bit vectors.

An incidence is the set of sample-space points at which a sentence is true,
stored as an integer bitmask alongside its width.  Bit k corresponds to
point k; character k of the text encoding is '1' exactly when point k is a
member, so the leftmost character is point 0.  That order is part of the
on-disk format and must not change.

Weights are exact rationals.  A probability read off an incidence is the
sum of the weights of its member points, so downstream identities hold as
equalities rather than to within a tolerance.  A space keeps its weights
as integer numerators over one common denominator, so that sum is an
integer turned into a `Fraction` once.  A uniform space keeps no
numerators, and the sum is the incidence's member count (a popcount).
Any other space whose numerators fit in a byte is weighed by its bit
planes, n = sum over j of 2^j * bit j of n: plane j is the mask of the
points whose numerator has bit j set, and the sum is the popcounts of the
incidence and each plane, shifted by j, over at most 8 planes built the
first time the space is weighed.  Each distinct weight is read, scaled
and rendered once.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from itertools import compress, repeat
from math import gcd, lcm
from operator import floordiv, index

from .errors import WidthMismatchError
from .rational import as_ratio, exact_str
from .record import Frozen


#: The most points a space may have.  An incidence is a bitmask with one
#: bit per point, and its bit string and `flags()` take one byte per
#: point: at this width a full mask is 12.5 MB and its text 100 MB.
MAX_WIDTH = 10**8

#: A message quotes a literal whole up to this many characters.
_QUOTED = 64

_DROP_BITS = str.maketrans("", "", "01")
#: '0'/'1' digits to flag bytes, the encoding of `Incidence.flags`.
FLAG_BYTES = bytes.maketrans(b"01", b"\x00\x01")
_FLAG_CHARS = bytes.maketrans(b"\x00\x01", b"01")


def _lcm_tree(values: list[int]) -> tuple[int, list[int]]:
    """The lcm M of `values` (1 for none) and `M // v` for each value;
    `values` is left empty.

    The lcm is taken pairwise in a balanced tree: a flat `lcm(*values)`
    multiplies a huge running result by each next value, quadratic in the
    digits when there are many long denominators.  The quotients come
    back down the same tree, each node's from its parent's as
    `q_parent * (parent // node)`, so each division is of a node by its
    child rather than of M by every value.  A node is dropped as soon as
    its children have their quotients, and the values once the tree is
    done, so the tree never holds much more than the values and their
    quotients at once."""
    levels = [values]
    while len(levels[-1]) > 1:
        below = levels[-1]
        levels.append([lcm(*below[i : i + 2]) for i in range(0, len(below), 2)])
    above = levels.pop()
    common, quotients = lcm(*above), [1] * len(above)
    while levels:
        below, children = levels.pop(), []
        while above:  # right to left, so that each parent can be popped
            parent, q = above.pop(), quotients.pop()
            first = 2 * len(above)
            children.extend(q * (parent // v) for v in reversed(below[first : first + 2]))
        children.reverse()
        above, quotients = below, children
    values.clear()
    return common, quotients


def bitstring(bits: int, width: int) -> str:
    """Mask `bits` as `width` '0'/'1' digits, point 0 first."""
    return format(bits, f"0{width}b")[::-1]


def _flags(bits: int, width: int) -> bytes:
    return bitstring(bits, width).encode("ascii").translate(FLAG_BYTES)


def _check_size(size: int) -> None:
    if size > MAX_WIDTH:
        raise ValueError(
            f"size must be <= {MAX_WIDTH}, got {exact_str(size)}: its masks would not fit"
        )


def _bit_planes(numerators: tuple[int, ...]) -> tuple[int, ...]:
    """Plane j is the mask of the points whose numerator has bit j set,
    for each j below the largest numerator's bit length; none when a
    numerator passes 255.  The numerators become one byte each, and each
    plane is one `translate` of those bytes to '0'/'1' digits and one
    `int` of them."""
    try:
        codes = bytes(numerators)[::-1]  # point 0 is the last digit
    except ValueError:  # a numerator past 255
        return ()
    return tuple(
        int(codes.translate((b"0" * (1 << j) + b"1" * (1 << j)) * (128 >> j)), 2)
        for j in range(max(codes).bit_length())
    )


class Incidence(Frozen):
    """A subset of a sample space's points, as a bitmask bounded by width."""

    __slots__ = ("bits", "width")

    def __init__(self, bits: int, width: int):
        if width < 1:
            raise ValueError(f"width must be >= 1, got {width}")
        if not (bits >= 0 and bits.bit_length() <= width):
            raise ValueError(f"bitmask out of range for width {width}")
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "width", width)

    @classmethod
    def empty(cls, width: int) -> "Incidence":
        return cls(0, width)

    @classmethod
    def full(cls, width: int) -> "Incidence":
        return cls((1 << width) - 1, width)

    @classmethod
    def from_indices(cls, indices: Iterable[int], width: int) -> "Incidence":
        """The set of the given points, in any order, repeats allowed: one
        byte per point up to the largest index is set, then read back as
        bits, as `from_flags` reads them, so the cost is linear in the
        indices and the largest of them, not in the width."""
        if width < 1:
            raise ValueError(f"width must be >= 1, got {width}")
        indices = list(indices)
        top = max(indices, default=-1)
        if top >= width or indices and min(indices) < 0:
            shown = exact_str(next(k for k in indices if not 0 <= k < width))
            if len(shown) > _QUOTED:
                shown = f"{shown[:12]}... ({len(shown)} characters)"
            raise ValueError(f"point index {shown} out of range for width {width}")
        flags = bytearray(top + 1)
        for k in indices:
            flags[k] = 1
        return cls(int(flags.translate(_FLAG_CHARS)[::-1] or b"0", 2), width)

    @classmethod
    def from_flags(cls, flags: bytes | bytearray) -> "Incidence":
        """The inverse of `flags()`: one byte per point, point 0 first, 1
        for a member and 0 otherwise."""
        return cls(int(flags.translate(_FLAG_CHARS)[::-1] or b"0", 2), len(flags))

    @classmethod
    def from_bitstring(cls, text: str, width: int) -> "Incidence":
        """Decode a '0'/'1' string; its length must equal the width."""
        if len(text) != width:
            raise ValueError(f"bit string has length {len(text)}, expected {width}")
        illegal = text.translate(_DROP_BITS)
        if illegal:
            raise ValueError(f"illegal character {illegal[0]!r} in bit string")
        return cls(int(text[::-1] or "0", 2), width)

    def to_bitstring(self) -> str:
        return bitstring(self.bits, self.width)

    def to_point_set(self) -> str:
        """Render as a point-set literal, e.g. '{3,4}' or '{}'.  One '%d'
        format over all the members, with no Python step per point."""
        members = self.indices()
        return "{" + ",".join(["%d"] * len(members)) % members + "}"

    def flags(self) -> bytes:
        """One byte per point, point 0 first: 1 for a member, 0 otherwise."""
        return _flags(self.bits, self.width)

    def indices(self) -> tuple[int, ...]:
        return tuple(compress(range(self.width), self.flags()))

    def count(self) -> int:
        return self.bits.bit_count()

    def _check_width(self, other: "Incidence") -> None:
        if self.width != other.width:
            raise WidthMismatchError(f"widths differ: {self.width} vs {other.width}")

    def __and__(self, other: "Incidence") -> "Incidence":
        self._check_width(other)
        return Incidence(self.bits & other.bits, self.width)

    def __or__(self, other: "Incidence") -> "Incidence":
        self._check_width(other)
        return Incidence(self.bits | other.bits, self.width)

    def is_subset(self, other: "Incidence") -> bool:
        self._check_width(other)
        return self.bits & ~other.bits == 0

    def __contains__(self, index: int) -> bool:
        return 0 <= index < self.width and self.bits >> index & 1 == 1


def parse_incidence_text(text: str, width: int) -> Incidence:
    """Parse either encoding of an incidence: a bit string, or a point-set
    literal such as '{0,2,5}' (zero-based indices in ASCII decimal digits,
    '{}' for empty)."""
    t = text.strip()
    if t.startswith("{"):
        if not t.endswith("}"):
            raise ValueError(f"unterminated point set: {_quoted(text)}")
        inner = t[1:-1].strip()
        if not inner:
            return Incidence.empty(width)
        parts = [part.strip() for part in inner.split(",")]
        digits = "".join(parts)
        # `int` alone would also read '1_0', '+3' and non-ASCII digits.
        if not (all(parts) and digits.isascii() and digits.isdigit()):
            raise ValueError(f"bad point set: {_quoted(text)}")
        try:
            indices = list(map(int, parts))
        except ValueError:  # past Python's limit on an int's digits
            raise ValueError(f"bad point set: {_quoted(text)}") from None
        return Incidence.from_indices(indices, width)
    return Incidence.from_bitstring(t, width)


def _quoted(text: str) -> str:
    """`text` quoted for a message, cut to its first 12 characters when
    longer than _QUOTED, as `rational.parse_rational` shows a long number."""
    if len(text) <= _QUOTED:
        return repr(text)
    return f"{text[:12]!r}... ({len(text)} characters)"


class SampleSpace:
    """A finite set of points, each carrying a non-negative rational weight.

    Weights must sum to exactly 1; individual points may have weight zero.
    They are read by `rational.as_ratio` and kept as integer numerators
    over one common denominator, the lcm of the reduced denominators, so
    equal weights give equal spaces however they were written.  A uniform
    space keeps no numerators: each would be 1.
    Each distinct weight is read by `as_ratio` and scaled once, and
    `map_weights` renders it once; the checks still see every point.
    Equal weights merge only once they are known to be read alike: a list
    that is not all `str`, all `int` or all `Fraction` is first read
    whole, so that no float hides behind an equal `Fraction`.
    The first weighing builds the bit planes `_numerator` weighs by
    (`_bit_planes`), a cache that equality never reads.
    `from_counts` builds a space of observed frequencies from integer
    counts over one total, reduced by one `gcd`.  Both hand their
    numerators to `_keep`, which checks them and decides how they are
    held, so every space is held alike however it was built.
    """

    __slots__ = ("_size", "_denominator", "_numerators", "_masks")

    def __init__(self, weights: Iterable):
        weights = list(weights)
        if set(map(type, weights)) not in ({str}, {int}, {Fraction}):
            # Equal values of one type among these are read alike.  Any
            # other list may hold equal values of which the reader refuses
            # one (0.5 and Fraction(1, 2), (1.0, 2) and (1, 2)), or an
            # unhashable one: it is read whole first, naming the first bad value.
            for value in weights:
                as_ratio(value)
        distinct = dict.fromkeys(weights)
        ratios = [as_ratio(value) for value in distinct]
        numerators = [n for n, _ in ratios]
        denominators = [d for _, d in ratios]
        # No denominator or scale factor outlives its use: a wide space's
        # can take as much memory as its numerators.
        del ratios  # `_lcm_tree` empties `denominators`
        denominator, factors = _lcm_tree(denominators)
        scaled = {value: numerators.pop() * factors.pop() for value in reversed(distinct)}
        self._keep(tuple(map(scaled.__getitem__, weights)), denominator)

    @classmethod
    def from_counts(cls, counts: Iterable[int], total: int) -> "SampleSpace":
        """The space whose point k weighs counts[k]/total: equal to
        `SampleSpace((c, total) for c in counts)`, with no weight read one
        by one.  One `gcd` over the total and every count reduces all of
        them at once, so the common denominator is total // gcd."""
        counts = tuple(counts)
        if total < 1:
            raise ValueError(f"total must be >= 1, got {exact_str(total)}")
        common = gcd(total, *counts)
        space = cls.__new__(cls)
        space._keep(tuple(map(floordiv, counts, repeat(common))), total // common)
        return space

    def _keep(self, numerators: tuple[int, ...], denominator: int) -> None:
        """Hold `numerators` over `denominator` as the weights, once they
        pass the checks every space passes: at least one point, at most
        `MAX_WIDTH`, none negative, summing to 1.  All numerators 1 is the
        uniform space, which keeps none."""
        if not numerators:
            raise ValueError("a sample space needs at least one point")
        _check_size(len(numerators))
        distinct = set(numerators)
        if min(distinct) < 0:
            raise ValueError("weights must be non-negative")
        total = sum(numerators)
        if total != denominator:
            shown = exact_str(Fraction(total, denominator))
            raise ValueError(f"weights must sum to 1, got {shown}")
        self._size = len(numerators)
        self._denominator = denominator
        self._numerators = None if distinct == {1} else numerators
        self._masks = None

    @classmethod
    def uniform(cls, size: int) -> "SampleSpace":
        size = index(size)
        if size < 1:
            raise ValueError(f"size must be >= 1, got {size}")
        _check_size(size)
        space = cls.__new__(cls)
        space._size = space._denominator = size
        space._numerators = space._masks = None
        return space

    @property
    def size(self) -> int:
        return self._size

    @property
    def is_uniform(self) -> bool:
        return self._numerators is None

    def map_weights(self, fn) -> tuple:
        """`fn` of each point's weight, point 0 first; `fn` is called once
        per distinct weight, on a `Fraction`."""
        if self._numerators is None:
            return (fn(Fraction(1, self._size)),) * self._size
        distinct = {n: fn(Fraction(n, self._denominator)) for n in set(self._numerators)}
        return tuple(map(distinct.__getitem__, self._numerators))

    def _key(self) -> tuple:
        return self._size, self._denominator, self._numerators

    def __eq__(self, other) -> bool:
        if not isinstance(other, SampleSpace):
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self) -> str:
        if self._numerators is None:
            return f"SampleSpace.uniform({self._size})"
        return f"SampleSpace({self.map_weights(Fraction)!r})"

    def full(self) -> Incidence:
        return Incidence.full(self._size)

    def weight_of(self, inc: Incidence) -> Fraction:
        """Total weight of the incidence's members; the whole space has
        weight 1, so this is the probability of any sentence whose
        incidence this is.  It is `_numerator` of the mask over the
        common denominator, one `Fraction`."""
        if inc.width != self._size:
            raise WidthMismatchError(f"incidence width {inc.width} != space size {self._size}")
        return Fraction(self._numerator(inc.bits), self._denominator)

    def _numerator(self, bits: int) -> int:
        """The weight of the points in mask `bits`, times the common
        denominator: one popcount when the space is uniform, one per bit
        plane (at most 8) when every numerator fits in a byte, and
        otherwise one integer sum over the member points.  `weight_of` and
        `BoundAssignment.dump` both weigh masks here."""
        if self._numerators is None:
            return bits.bit_count()
        planes = self._masks
        if planes is None:
            planes = self._masks = _bit_planes(self._numerators)
        if planes:
            return sum([(bits & plane).bit_count() << j for j, plane in enumerate(planes)])
        return sum(compress(self._numerators, _flags(bits, self._size)))
