import random
import re
from fractions import Fraction as F

import pytest

import incalc as ic
from incalc.rational import sqrt_decimal_str
from helpers import ATOMS, points, random_env, random_formula, random_space

A, B = ic.Atom("a"), ic.Atom("b")


@pytest.fixture
def ten_point():
    space = ic.SampleSpace.uniform(10)
    env = {"a": points(space, range(5)), "b": points(space, range(3, 7))}
    return space, env


class TestProb:
    def test_worked_example(self, ten_point):
        space, env = ten_point
        assert ic.prob(ic.parse_formula("a & b"), env, space) == F(1, 5)

    def test_constants(self, ten_point):
        space, env = ten_point
        assert ic.prob(ic.TRUE, env, space) == 1
        assert ic.prob(ic.FALSE, env, space) == 0

    def test_exact_identities_on_random_cases(self):
        rng = random.Random(11)
        for _ in range(300):
            width = rng.randint(1, 12)
            space = random_space(rng, width)
            env = random_env(rng, ATOMS, width)
            f = random_formula(rng, ATOMS, 4)
            g = random_formula(rng, ATOMS, 4)
            pf, pg = ic.prob(f, env, space), ic.prob(g, env, space)
            # complement, inclusion-exclusion, and the chain rule hold exactly
            assert ic.prob(ic.Not(f), env, space) == 1 - pf
            assert ic.prob(ic.Or(f, g), env, space) == pf + pg - ic.prob(
                ic.And(f, g), env, space
            )
            if pg > 0:
                assert ic.prob(ic.And(f, g), env, space) == ic.cond_prob(
                    f, g, env, space
                ) * pg


class TestCondProb:
    def test_worked_example(self, ten_point):
        space, env = ten_point
        assert ic.cond_prob(A, B, env, space) == F(1, 2)

    def test_zero_condition_raises(self, ten_point):
        space, env = ten_point
        message = "^cannot condition on false: probability is zero$"
        with pytest.raises(ic.ZeroProbabilityError, match=message):
            ic.cond_prob(A, ic.FALSE, env, space)
        # Each level uses the one below twice, so d40's text would be
        # terabytes: the message names its length instead.
        d = ic.And(A, ic.Not(A))
        for _ in range(40):
            d = ic.And(d, d)
        with pytest.raises(ic.ZeroProbabilityError) as info:
            ic.cond_prob(A, d, env, space)
        assert re.fullmatch(
            r"cannot condition on a sentence of \d{13,} characters, too long to render:"
            r" probability is zero",
            str(info.value),
        )

    def test_conditioning_on_self_is_one(self, ten_point):
        space, env = ten_point
        assert ic.cond_prob(A, A, env, space) == 1


class TestCorrelation:
    def test_zero_when_product_rule_holds(self, ten_point):
        space, env = ten_point
        c = ic.correlation(A, B, env, space)
        assert c.sign == 0 and c.c_squared == 0
        assert c.decimal() == "0"

    def test_worked_example_exact_square(self):
        space = ic.SampleSpace.uniform(10)
        env = {"a": points(space, range(5)), "b": points(space, range(4))}
        c = ic.correlation(A, B, env, space)
        assert c.c_squared == F(2, 3)
        assert c.sign == 1
        assert c.decimal() == "0.816497"

    def test_negative_correlation(self):
        space = ic.SampleSpace.uniform(4)
        env = {"a": points(space, [0, 1]), "b": points(space, [2, 3])}
        c = ic.correlation(A, B, env, space)
        assert c.sign == -1
        assert c.c_squared == 1
        assert c.decimal() == "-1"
        assert str(c) == "-1 (c^2 = 1)"

    def test_negative_rounding_to_zero_prints_no_sign(self):
        # As `rational.decimal_str` writes a negative that rounds to 0.
        assert ic.Correlation(F(1, 10**20), -1).decimal() == "0"
        assert ic.Correlation(F(1, 10**12), -1).decimal() == "-0.000001"

    def test_degenerate_marginals_rejected(self, ten_point):
        space, env = ten_point
        with pytest.raises(ic.DegenerateMarginalError):
            ic.correlation(ic.TRUE, B, env, space)
        with pytest.raises(ic.DegenerateMarginalError):
            ic.correlation(A, ic.And(B, ic.Not(B)), env, space)

    def test_square_never_exceeds_one(self):
        rng = random.Random(23)
        checked = 0
        while checked < 200:
            width = rng.randint(2, 12)
            space = random_space(rng, width)
            env = random_env(rng, ("a", "b"), width)
            pa, pb = ic.prob(A, env, space), ic.prob(B, env, space)
            if pa in (0, 1) or pb in (0, 1):
                continue
            c = ic.correlation(A, B, env, space)
            assert c.c_squared <= 1
            checked += 1

    def test_reconstructs_joint_probability(self):
        rng = random.Random(37)
        checked = 0
        while checked < 200:
            width = rng.randint(2, 12)
            space = random_space(rng, width)
            env = random_env(rng, ("a", "b"), width)
            pa, pb = ic.prob(A, env, space), ic.prob(B, env, space)
            if pa in (0, 1) or pb in (0, 1):
                continue
            c = ic.correlation(A, B, env, space)
            # p(A & B) = p(A) p(B) + c * sqrt(p(A) p(~A) p(B) p(~B)), exactly.
            gap = ic.prob(ic.And(A, B), env, space) - pa * pb
            assert gap**2 == c.c_squared * pa * (1 - pa) * pb * (1 - pb)
            assert c.sign == (gap > 0) - (gap < 0)
            checked += 1

    def test_no_square_root_of_a_negative(self):
        with pytest.raises(ValueError):
            sqrt_decimal_str(F(-1, 4))

    def test_sign_validation(self):
        with pytest.raises(ValueError):
            ic.Correlation(F(1, 2), 0)
        with pytest.raises(ValueError):
            ic.Correlation(F(0), 1)
        with pytest.raises(ValueError):
            ic.Correlation(F(1, 2), 2)
