"""Probabilities read off incidences, all in exact rational arithmetic.

p(A) is the total weight of i(A).  Because incidences are sets, the usual
identities are theorems here, not approximations: p(~A) = 1 - p(A),
p(A | B) = p(A) + p(B) - p(A & B), and the chain rule for conditioning all
hold as exact equalities.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    DegenerateMarginalError,
    ZeroProbabilityError,
)
from .logic import Environment, Formula, describe, incidence_of
from .rational import exact_str, fraction_str, sqrt_decimal_str
from .record import Frozen
from .space import SampleSpace


def prob(f: Formula, env: Environment, space: SampleSpace) -> Fraction:
    """Exact probability of f: the weight of its incidence."""
    return space.weight_of(incidence_of(f, env, space))


def cond_prob(f: Formula, given: Formula, env: Environment, space: SampleSpace) -> Fraction:
    """p(f | given) = weight(i(f) & i(given)) / weight(i(given))."""
    condition = incidence_of(given, env, space)
    base = space.weight_of(condition)
    if base == 0:
        raise ZeroProbabilityError(f"cannot condition on {describe(given)}: probability is zero")
    joint = space.weight_of(incidence_of(f, env, space) & condition)
    return joint / base


class Correlation(Frozen):
    """A correlation coefficient kept exact as long as possible.

    c itself is generally irrational, so we carry its square as an exact
    rational together with the sign; `decimal` renders sign * sqrt(c_squared)
    at `rational.DIGITS` places without going through floats.
    """

    __slots__ = ("c_squared", "sign")

    def __init__(self, c_squared: Fraction, sign: int):
        if sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0, or 1, got {sign}")
        if c_squared < 0:
            raise ValueError("c_squared cannot be negative")
        if (c_squared == 0) != (sign == 0):
            raise ValueError("sign must be 0 exactly when c_squared is 0")
        object.__setattr__(self, "c_squared", c_squared)
        object.__setattr__(self, "sign", sign)

    def decimal(self) -> str:
        return sqrt_decimal_str(self.c_squared, self.sign < 0)

    def __str__(self) -> str:
        return f"{self.decimal()} (c^2 = {fraction_str(self.c_squared)})"


def correlation(a: Formula, b: Formula, env: Environment, space: SampleSpace) -> Correlation:
    """Correlation between two sentences, defined through

        p(A & B) = p(A) p(B) + c(A, B) * sqrt(p(A) p(~A) p(B) p(~B))

    and solved for c.  Undefined (raises) when either marginal is 0 or 1,
    since the variance factor under the root vanishes.
    """
    ia = incidence_of(a, env, space)
    ib = incidence_of(b, env, space)
    pa = space.weight_of(ia)
    pb = space.weight_of(ib)
    if pa in (0, 1) or pb in (0, 1):
        raise DegenerateMarginalError(
            f"correlation undefined: marginals are {exact_str(pa)} and {exact_str(pb)}"
        )
    pab = space.weight_of(ia & ib)
    numer = pab - pa * pb
    denom = pa * (1 - pa) * pb * (1 - pb)
    sign = (numer > 0) - (numer < 0)
    return Correlation(c_squared=numer * numer / denom, sign=sign)
