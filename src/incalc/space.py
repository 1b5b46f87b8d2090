"""Weighted sample spaces and fixed-width incidence bit vectors.

An incidence is the set of sample-space points at which a sentence is true,
stored as an integer bitmask alongside its width.  Bit k corresponds to
point k; character k of the text encoding is '1' exactly when point k is a
member, so the leftmost character is point 0.  That order is part of the
on-disk format and must not change.

Weights are exact rationals.  A probability read off an incidence is the
sum of the weights of its member points, so downstream identities hold as
equalities rather than to within a tolerance.  A space keeps its weights
as integer numerators over one common denominator, so that sum is one
integer sum turned into a `Fraction` once; a uniform space keeps no
numerators, and the sum is the incidence's member count (a popcount).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import lcm
from operator import index
from typing import Iterable

from .errors import WidthMismatchError
from .rational import as_ratio


#: The most points a space may have.  An incidence is a bitmask with one
#: bit per point, and its bit string and `flags()` take one byte per
#: point: at this width a full mask is 12.5 MB and its text 100 MB.
MAX_WIDTH = 10**8

_DROP_BITS = str.maketrans("", "", "01")
_FLAG_BYTES = bytes.maketrans(b"01", b"\x00\x01")
_FLAG_CHARS = bytes.maketrans(b"\x00\x01", b"01")


def _check_size(size: int) -> None:
    if size > MAX_WIDTH:
        raise ValueError(f"size must be <= {MAX_WIDTH}, got {size}: its masks would not fit")


@dataclass(frozen=True)
class Incidence:
    """A subset of a sample space's points, as a bitmask bounded by width."""

    bits: int
    width: int

    def __post_init__(self):
        if self.width < 1:
            raise ValueError(f"width must be >= 1, got {self.width}")
        if not 0 <= self.bits < (1 << self.width):
            raise ValueError(f"bitmask out of range for width {self.width}")

    @classmethod
    def empty(cls, width: int) -> "Incidence":
        return cls(0, width)

    @classmethod
    def full(cls, width: int) -> "Incidence":
        return cls((1 << width) - 1, width)

    @classmethod
    def from_indices(cls, indices: Iterable[int], width: int) -> "Incidence":
        """The set of the given points, in any order, repeats allowed: one
        byte per point is set, then read back as bits, the inverse of
        `flags()`, so the cost is linear in the width."""
        flags = bytearray(max(width, 0))
        for k in indices:
            if not 0 <= k < width:
                raise ValueError(f"point index {k} out of range for width {width}")
            flags[k] = 1
        return cls(int(flags.translate(_FLAG_CHARS)[::-1] or b"0", 2), width)

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
        return format(self.bits, f"0{self.width}b")[::-1]

    def to_point_set(self) -> str:
        """Render as a point-set literal, e.g. '{3,4}' or '{}'."""
        return "{" + ",".join(str(k) for k in self.indices()) + "}"

    def flags(self) -> bytes:
        """One byte per point, point 0 first: 1 for a member, 0 otherwise."""
        return format(self.bits, f"0{self.width}b")[::-1].encode("ascii").translate(_FLAG_BYTES)

    def indices(self) -> tuple[int, ...]:
        return tuple(compress(range(self.width), self.flags()))

    def count(self) -> int:
        return self.bits.bit_count()

    def _check_width(self, other: "Incidence") -> None:
        if self.width != other.width:
            raise WidthMismatchError(f"widths differ: {self.width} vs {other.width}")

    def complement(self) -> "Incidence":
        return Incidence(~self.bits & (1 << self.width) - 1, self.width)

    def __invert__(self) -> "Incidence":
        return self.complement()

    def __and__(self, other: "Incidence") -> "Incidence":
        self._check_width(other)
        return Incidence(self.bits & other.bits, self.width)

    def __or__(self, other: "Incidence") -> "Incidence":
        self._check_width(other)
        return Incidence(self.bits | other.bits, self.width)

    def __sub__(self, other: "Incidence") -> "Incidence":
        self._check_width(other)
        return Incidence(self.bits & ~other.bits, self.width)

    def is_subset(self, other: "Incidence") -> bool:
        self._check_width(other)
        return self.bits & ~other.bits == 0

    def __le__(self, other: "Incidence") -> bool:
        return self.is_subset(other)

    def __contains__(self, index: int) -> bool:
        return 0 <= index < self.width and self.bits >> index & 1 == 1

    def __bool__(self) -> bool:
        return self.bits != 0

    def __str__(self) -> str:
        return self.to_bitstring()


def parse_incidence_text(text: str, width: int) -> Incidence:
    """Parse either encoding of an incidence: a bit string, or a point-set
    literal such as '{0,2,5}' (zero-based indices, '{}' for empty)."""
    t = text.strip()
    if t.startswith("{"):
        if not t.endswith("}"):
            raise ValueError(f"unterminated point set: {text!r}")
        inner = t[1:-1].strip()
        if not inner:
            return Incidence.empty(width)
        try:
            indices = [int(part.strip()) for part in inner.split(",")]
        except ValueError as exc:
            raise ValueError(f"bad point set: {text!r}") from exc
        return Incidence.from_indices(indices, width)
    return Incidence.from_bitstring(t, width)


class SampleSpace:
    """A finite set of points, each carrying a non-negative rational weight.

    Weights must sum to exactly 1; individual points may have weight zero.
    They are read by `rational.as_ratio` and kept as integer numerators
    over one common denominator, the lcm of the reduced denominators, so
    equal weights give equal (and equally hashing) spaces however they
    were written.  A uniform space keeps no numerators: each would be 1.
    """

    __slots__ = ("_size", "_denominator", "_numerators")

    def __init__(self, weights: Iterable):
        ratios = [as_ratio(v) for v in weights]
        if not ratios:
            raise ValueError("a sample space needs at least one point")
        _check_size(len(ratios))
        denominator = lcm(*(d for _, d in ratios))
        numerators = tuple(n * (denominator // d) for n, d in ratios)
        if min(numerators) < 0:
            raise ValueError("weights must be non-negative")
        total = sum(numerators)
        if total != denominator:
            raise ValueError(f"weights must sum to 1, got {Fraction(total, denominator)}")
        self._size = len(numerators)
        self._denominator = denominator
        uniform = numerators.count(1) == len(numerators)
        self._numerators = None if uniform else numerators

    @classmethod
    def uniform(cls, size: int) -> "SampleSpace":
        size = index(size)
        if size < 1:
            raise ValueError(f"size must be >= 1, got {size}")
        _check_size(size)
        space = cls.__new__(cls)
        space._size = space._denominator = size
        space._numerators = None
        return space

    @property
    def size(self) -> int:
        return self._size

    @property
    def is_uniform(self) -> bool:
        return self._numerators is None

    @property
    def weights(self) -> tuple[Fraction, ...]:
        """Each point's weight, point 0 first, one `Fraction` per distinct weight."""
        if self._numerators is None:
            return (Fraction(1, self._size),) * self._size
        distinct = {n: Fraction(n, self._denominator) for n in set(self._numerators)}
        return tuple(map(distinct.__getitem__, self._numerators))

    def _key(self) -> tuple:
        return self._size, self._denominator, self._numerators

    def __eq__(self, other) -> bool:
        if not isinstance(other, SampleSpace):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        if self._numerators is None:
            return f"SampleSpace.uniform({self._size})"
        return f"SampleSpace({self.weights!r})"

    def empty(self) -> Incidence:
        return Incidence.empty(self._size)

    def full(self) -> Incidence:
        return Incidence.full(self._size)

    def incidence(self, indices: Iterable[int]) -> Incidence:
        return Incidence.from_indices(indices, self._size)

    def weight_of(self, inc: Incidence) -> Fraction:
        """Total weight of the incidence's members; the whole space has
        weight 1, so this is the probability of any sentence whose
        incidence this is.  One integer sum, or one popcount when the
        space is uniform."""
        if inc.width != self._size:
            raise WidthMismatchError(f"incidence width {inc.width} != space size {self._size}")
        if self._numerators is None:
            return Fraction(inc.count(), self._size)
        return Fraction(sum(compress(self._numerators, inc.flags())), self._denominator)
