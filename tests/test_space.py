import random
import sys
from decimal import Decimal
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import incalc as ic
from incalc import space as space_module
from incalc.space import MAX_WIDTH, _lcm_tree
from incalc.rational import as_ratio
from helpers import incidences, load_script, random_space, reference_weight_of, written_weights


@st.composite
def repeated_weights(draw):
    """Weights summing to 1 with few distinct values, most repeated, each
    point written in one of a drawn set of spellings: 'n/d', unreduced
    '2n/2d', a decimal like '0.25', a `Fraction`, a pair, an `int`.  A
    spelling that cannot write a value ('0.25' for 1/3, `int` for 1/2)
    falls back to a `Fraction`."""
    counts = draw(st.lists(st.sampled_from([0, 1, 2, 4]), min_size=1, max_size=40))
    if not any(counts):
        counts[0] = 1
    total = sum(counts)
    spellings = draw(st.lists(st.sampled_from(sorted(SPELLINGS)), min_size=1, unique=True))
    written = []
    for count in counts:
        value = F(count, total)
        forms = [form for form in map(SPELLINGS.get, spellings) if form(value) is not None]
        form = draw(st.sampled_from(forms)) if forms else F
        written.append(form(value))
    return written


@st.composite
def counted_spaces(draw):
    """A space of integer counts over their total, built by `__init__`
    from `(count, total)` pairs or by `from_counts`, with the counts.
    Widths run to 300 and include 10^4; the counts take up to 255
    distinct values.  Half the time every count fits in a byte, 255 often
    among them; otherwise they include 255, 256 and values past a byte."""
    width = draw(st.integers(1, 300) | st.just(10_000))
    kinds = draw(st.sampled_from([1, 2, 7, 8, 9, 200, 255]) | st.integers(1, 255))
    kinds = min(width, kinds)
    if draw(st.booleans()):
        pool = draw(st.permutations(range(256)))[:kinds]
        if draw(st.booleans()) and 255 not in pool:
            pool[-1] = 255
    else:
        value = st.sampled_from([0, 1, 255, 256]) | st.integers(0, 300) | st.integers(257, 2**70)
        pool = draw(st.lists(value, min_size=kinds, max_size=kinds, unique=True))
    counts = [pool[k % kinds] for k in range(width)]
    draw(st.randoms(use_true_random=False)).shuffle(counts)
    if not any(counts):
        counts[0] = 1
    total = sum(counts)
    if draw(st.booleans()):
        return ic.SampleSpace.from_counts(counts, total), counts
    return ic.SampleSpace((c, total) for c in counts), counts


def spaces_of_numerators(numerators):
    """The space whose point k weighs numerators[k] over their sum, built
    both ways."""
    total = sum(numerators)
    return ic.SampleSpace.from_counts(numerators, total), ic.SampleSpace(
        (n, total) for n in numerators
    )


def decimal_text(q):
    """'0.25' for 1/4; None when q has no short terminating decimal."""
    if (q * 10**6).denominator != 1:
        return None
    return str(Decimal(q.numerator) / Decimal(q.denominator))


SPELLINGS = {
    "n/d": lambda q: f"{q.numerator}/{q.denominator}",
    "2n/2d": lambda q: f"{2 * q.numerator}/{2 * q.denominator}",
    "decimal": decimal_text,
    "Fraction": F,
    "pair": lambda q: (3 * q.numerator, 3 * q.denominator),
    "int": lambda q: int(q) if q.denominator == 1 else None,
}


class TestIncidence:
    def test_encode_worked_example(self):
        inc = ic.Incidence.from_indices([0, 2], 8)
        assert inc.to_bitstring() == "10100000"

    def test_leftmost_character_is_point_zero(self):
        inc = ic.Incidence.from_bitstring("100", 3)
        assert inc.indices() == (0,)

    def test_decode_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="length"):
            ic.Incidence.from_bitstring("0101", 5)

    def test_decode_rejects_bad_characters(self):
        # int(text, 2) alone would accept all but the first.
        for text in ["01x01", "1_0", " 10", "+1"]:
            with pytest.raises(ValueError, match="illegal character"):
                ic.Incidence.from_bitstring(text, len(text))

    @given(st.integers(1, 256).flatmap(lambda w: incidences(w)))
    def test_bitstring_round_trip(self, inc):
        assert ic.Incidence.from_bitstring(inc.to_bitstring(), inc.width) == inc

    @given(st.integers(1, 256).flatmap(lambda w: incidences(w)))
    def test_codecs_match_the_per_bit_definition(self, inc):
        bits = [inc.bits >> k & 1 for k in range(inc.width)]
        assert inc.to_bitstring() == "".join(map(str, bits))
        assert inc.indices() == tuple(k for k, bit in enumerate(bits) if bit)
        assert inc.flags() == bytes(bits)
        members = list(inc.indices())
        assert ic.Incidence.from_indices(members[::-1] + members[::2], inc.width) == inc
        assert ic.Incidence.from_flags(bytes(bits)) == inc

    def test_wide_spaces_supported(self):
        width = 10**4
        inc = ic.Incidence.from_indices([0, width - 1], width)
        text = inc.to_bitstring()
        assert len(text) == width
        assert ic.Incidence.from_bitstring(text, width) == inc

    def test_from_indices_range_check(self):
        with pytest.raises(ValueError, match="out of range"):
            ic.Incidence.from_indices([4], 4)

    def test_from_indices_needs_a_positive_width(self):
        with pytest.raises(ValueError) as info:
            ic.Incidence.from_indices([], 0)
        assert str(info.value) == "width must be >= 1, got 0"

    def test_bits_must_fit_width(self):
        with pytest.raises(ValueError):
            ic.Incidence(0b100, 2)
        with pytest.raises(ValueError):
            ic.Incidence(0, 0)

    def test_membership_and_count(self):
        inc = ic.Incidence.from_indices([1, 3], 5)
        assert 1 in inc and 3 in inc and 0 not in inc and 7 not in inc
        assert inc.count() == 2
        assert inc.indices() == (1, 3)
        assert inc.to_point_set() == "{1,3}"

    @given(
        (st.integers(1, 300) | st.just(10**4)).flatmap(
            lambda w: incidences(w)
            | st.sampled_from([ic.Incidence(0, w), ic.Incidence((1 << w) - 1, w)])
        )
    )
    @example(ic.Incidence(0, 10**4))
    @example(ic.Incidence((1 << 10**4) - 1, 10**4))
    def test_point_set_lists_the_members_in_order(self, inc):
        assert inc.to_point_set() == "{" + ",".join(map(str, inc.indices())) + "}"

    def test_width_mismatch_raises(self):
        with pytest.raises(ic.WidthMismatchError):
            ic.Incidence.empty(3) | ic.Incidence.empty(4)

    @given(st.integers(1, 24).flatmap(lambda w: st.tuples(incidences(w), incidences(w))))
    def test_de_morgan(self, pair):
        i, j = pair
        full = (1 << i.width) - 1
        assert (i & j).bits ^ full == (i.bits ^ full) | (j.bits ^ full)
        assert (i | j).bits ^ full == (i.bits ^ full) & (j.bits ^ full)

    @given(st.integers(1, 24).flatmap(lambda w: st.tuples(incidences(w), incidences(w))))
    def test_difference_and_subset(self, pair):
        i, j = pair
        assert i.is_subset(j) == (i.bits & ~j.bits == 0)
        assert (i & j).is_subset(i)
        assert i.is_subset(i | j)


class TestParseIncidenceText:
    def test_point_set_forms(self):
        assert ic.parse_incidence_text("{0,2}", 4).indices() == (0, 2)
        assert ic.parse_incidence_text("{ 1 , 3 }", 4).indices() == (1, 3)
        assert ic.parse_incidence_text("{}", 4) == ic.Incidence.empty(4)

    def test_bitstring_form(self):
        assert ic.parse_incidence_text("0110", 4).indices() == (1, 2)

    def test_bad_literals(self):
        with pytest.raises(ValueError):
            ic.parse_incidence_text("{0,2", 4)
        with pytest.raises(ValueError):
            ic.parse_incidence_text("{a}", 4)
        with pytest.raises(ValueError):
            ic.parse_incidence_text("{9}", 4)

    @pytest.mark.parametrize(
        "literal",
        ["{1_0}", "{+3}", "{\u0663}", "{1,\uff12}", "{-1}", "{1,,2}", "{1 0}", "{0x1}", "{1.0}"],
    )
    def test_indices_are_ascii_decimal_digits(self, literal):
        # int() reads every one of these but the last four.
        with pytest.raises(ValueError) as info:
            ic.parse_incidence_text(literal, 11)
        assert str(info.value) == f"bad point set: {literal!r}"

    def test_leading_zeros_and_spaces_are_kept(self):
        assert ic.parse_incidence_text("{ 007 ,\t10 }", 11).indices() == (7, 10)

    @pytest.mark.parametrize("digits", [61, 4300, 5000])
    def test_a_long_literal_is_cut_in_the_message(self, digits):
        literal = "{1," + "9" * digits + "x}"
        with pytest.raises(ValueError) as info:
            ic.parse_incidence_text(literal, 11)
        assert str(info.value) == f"bad point set: '{{1,999999999'... ({digits + 5} characters)"

    def test_an_index_past_the_digit_limit_is_a_bad_point_set(self):
        literal = "{" + "9" * 5000 + "}"
        with pytest.raises(ValueError) as info:
            ic.parse_incidence_text(literal, 11)
        assert str(info.value) == "bad point set: '{99999999999'... (5002 characters)"
        # Within the limit, the index is read, found out of range and cut
        # in the message as a long literal is.
        with pytest.raises(ValueError) as info:
            ic.parse_incidence_text("{" + "9" * 4300 + "}", 11)
        assert str(info.value) == (
            "point index 999999999999... (4300 characters) out of range for width 11"
        )
        with pytest.raises(ValueError, match="^point index -<4301 digits> out of range"):
            ic.Incidence.from_indices([-(10**4300)], 11)


class TestSampleSpace:
    def test_weight_of_worked_example(self):
        space = ic.SampleSpace((F(1, 2), F(1, 4), F(1, 8), F(1, 8)))
        assert space.weight_of(ic.Incidence.from_indices([1, 2], 4)) == F(3, 8)

    def test_equality_with_another_type_is_not_implemented(self):
        space = ic.SampleSpace.uniform(2)
        assert space.__eq__((F(1, 2), F(1, 2))) is NotImplemented
        assert space != (F(1, 2), F(1, 2))

    def test_whole_space_has_weight_one(self):
        space = ic.SampleSpace.uniform(7)
        assert space.weight_of(space.full()) == 1
        assert space.weight_of(ic.Incidence.empty(7)) == 0

    def test_zero_weight_points_allowed(self):
        space = ic.SampleSpace((F(1, 2), F(0), F(1, 2)))
        assert space.weight_of(ic.Incidence.from_indices([1], 3)) == 0

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            ic.SampleSpace((F(1, 2), F(1, 4)))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            ic.SampleSpace((F(3, 2), F(-1, 2)))

    def test_float_weights_rejected(self):
        with pytest.raises(TypeError, match="exact"):
            ic.SampleSpace((0.5, 0.5))
        # `Fraction` would expand a Decimal; the reader refuses it like a float.
        with pytest.raises(TypeError, match="exact"):
            ic.SampleSpace((Decimal("0.5"), Decimal("0.5")))

    def test_empty_space_rejected(self):
        with pytest.raises(ValueError):
            ic.SampleSpace(())
        with pytest.raises(ValueError):
            ic.SampleSpace.uniform(0)

    def test_size_must_fit_an_index(self):
        # Refused up front: nothing is allocated for the points.
        with pytest.raises(ValueError, match="size must be <="):
            ic.SampleSpace.uniform(sys.maxsize + 1)
        with pytest.raises(TypeError):
            ic.SampleSpace.uniform(2.0)

    def test_width_is_limited_to_what_the_masks_fit(self):
        # A uniform space keeps nothing per point, so the limit itself is
        # cheap to reach; past it nothing is built.  The weighted path is
        # checked through `parse_kb` in test_kb.py.
        assert ic.SampleSpace.uniform(MAX_WIDTH).size == MAX_WIDTH
        with pytest.raises(ValueError, match=f"size must be <= {MAX_WIDTH}, got 10000000000"):
            ic.SampleSpace.uniform(10**10)

    def test_weights_as_integer_pairs(self):
        assert ic.SampleSpace([(2, 4), (1, 2)]) == ic.SampleSpace.uniform(2)
        assert ic.SampleSpace([(0, 7), (3, 3)]) == ic.SampleSpace([0, 1])
        with pytest.raises(ValueError, match="positive denominator"):
            ic.SampleSpace([(1, 0), (1, 1)])
        with pytest.raises(ValueError, match="non-negative"):
            ic.SampleSpace([(-1, 2), (3, 2)])

    @given(written_weights(), st.data())
    def test_weight_of_matches_the_per_point_sum(self, weights, data):
        space = ic.SampleSpace(weights)
        assert space.map_weights(F) == tuple(F(w) for w in weights)
        assert space.weight_of(space.full()) == 1
        inc = data.draw(incidences(len(weights)))
        assert space.weight_of(inc) == reference_weight_of(weights, inc)

    @given(written_weights(), st.data())
    def test_spelling_of_weights_does_not_matter(self, weights, data):
        respelled = [data.draw(st.sampled_from([F(w), str(F(w))])) for w in weights]
        space, again = ic.SampleSpace(weights), ic.SampleSpace(respelled)
        assert space == again
        assert space.is_uniform == (len(set(map(F, weights))) == 1)

    def test_equal_weights_written_differently_are_equal(self):
        pairs = [
            (("2/4", "2/4"), (F(1, 2), F(1, 2))),
            (("2/4", "3/12", F(1, 4)), (F(1, 2), "1/4", "0.25")),
            ((0, "6/6"), (F(0), 1)),
        ]
        for left, right in pairs:
            a, b = ic.SampleSpace(left), ic.SampleSpace(right)
            assert a == b
        assert ic.SampleSpace(("2/4", "2/4")) == ic.SampleSpace.uniform(2)
        assert ic.SampleSpace(("1/3",) * 3) == ic.SampleSpace.uniform(3)
        assert ic.SampleSpace((F(1, 2), F(1, 2))) != ic.SampleSpace((F(1, 4), F(3, 4)))
        assert ic.SampleSpace.uniform(2) != ic.SampleSpace.uniform(3)

    def test_weight_of_checks_width(self):
        with pytest.raises(ic.WidthMismatchError):
            ic.SampleSpace.uniform(3).weight_of(ic.Incidence.empty(4))

    @pytest.mark.parametrize(
        "weights",
        [
            [F(1, 2), 0.5],
            [F(1, 2), Decimal("0.5")],
            [1, 0.0, 0],
            [(1, 2), (1.0, 2)],
            [(1, 2), (F(1), 2)],
            [(1, 2), (1, Decimal(2))],
        ],
    )
    def test_inexact_value_equal_to_an_exact_one_is_refused(self, weights):
        # The last two hash and compare equal, so only the value's type (or
        # its parts' types) keeps one from sharing the other's reading.
        assert weights[-2] == weights[-1] and hash(weights[-2]) == hash(weights[-1])
        for ordered in (weights, weights[::-1]):
            with pytest.raises(TypeError):
                ic.SampleSpace(ordered)

    def test_unhashable_weight_is_refused_as_inexact(self):
        for weights in ([[1], 1], [1, [1]], [F(1, 2), {0.5}]):
            with pytest.raises(TypeError, match="values must be exact: use Fraction, int"):
                ic.SampleSpace(weights)

    def test_bool_is_read_beside_an_equal_int(self):
        with pytest.raises(ValueError, match="^weights must sum to 1, got 2$"):
            ic.SampleSpace([True, 1])
        assert ic.SampleSpace([True, 0]) == ic.SampleSpace([1, False])

    def test_first_bad_weight_is_named(self):
        with pytest.raises(ValueError, match="^not a rational number: 'x'$"):
            ic.SampleSpace(["1/2", "x", "y", "x"])
        with pytest.raises(ValueError, match="^not a rational number: 'y'$"):
            ic.SampleSpace([F(1, 2), "1/2", "y", 0.5])

    @given(repeated_weights())
    def test_distinct_reading_matches_the_per_point_fold(self, written):
        ratios = [as_ratio(w) for w in written]
        denominator = lcm(*(d for _, d in ratios))
        numerators = tuple(n * (denominator // d) for n, d in ratios)
        weights = tuple(F(n, d) for n, d in ratios)
        space = ic.SampleSpace(written)
        assert space == ic.SampleSpace(weights) and space.map_weights(F) == weights
        if set(numerators) == {1}:
            assert space._key() == (len(weights), denominator, None)
            assert repr(space) == f"SampleSpace.uniform({len(weights)})"
        else:
            assert space._key() == (len(weights), denominator, numerators)
            assert repr(space) == f"SampleSpace({weights!r})"
        assert space.map_weights(str) == tuple(map(str, weights))

    @given(
        st.lists(st.integers(0, 6), min_size=1, max_size=30).filter(any),
        st.integers(1, 5),
        st.booleans(),
    )
    def test_from_counts_equals_the_space_of_pairs(self, counts, factor, ones):
        # A common factor of the counts and the total is reduced away;
        # equal counts give the uniform space, which keeps no numerators.
        counts = [factor * (1 if ones else c) for c in counts]
        total = sum(counts)
        space = ic.SampleSpace.from_counts(counts, total)
        expected = ic.SampleSpace((c, total) for c in counts)
        assert space == expected and repr(space) == repr(expected)
        assert space.map_weights(F) == expected.map_weights(F)
        assert space.is_uniform == (len(set(counts)) == 1)

    @pytest.mark.parametrize(
        "counts, total",
        [([1, 1], 3), ([2, 2], 2), ([3, -1], 2), ([], 1), ([0, 0], 4)],
    )
    def test_from_counts_refuses_what_the_pairs_refuse(self, counts, total):
        with pytest.raises(ValueError) as expected:
            ic.SampleSpace((c, total) for c in counts)
        with pytest.raises(ValueError) as info:
            ic.SampleSpace.from_counts(counts, total)
        assert str(info.value) == str(expected.value)

    def test_from_counts_needs_a_positive_total(self):
        with pytest.raises(ValueError, match="^total must be >= 1, got 0$"):
            ic.SampleSpace.from_counts([0, 0], 0)

    @settings(max_examples=60)
    @given(st.data())
    def test_weight_is_modular_and_monotone(self, data):
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        width = data.draw(st.integers(1, 12))
        space = random_space(rng, width)
        i = data.draw(incidences(width))
        j = data.draw(incidences(width))
        assert space.weight_of(i | j) + space.weight_of(i & j) == space.weight_of(
            i
        ) + space.weight_of(j)
        assert space.weight_of(i & j) <= space.weight_of(i)
        complement = ic.Incidence(i.bits ^ space.full().bits, width)
        assert space.weight_of(complement) == 1 - space.weight_of(i)


class TestWeighing:
    @settings(max_examples=80, deadline=None)
    @given(counted_spaces(), st.randoms(use_true_random=False))
    def test_weight_of_is_the_sum_over_the_member_points(self, built, rng):
        space, counts = built
        total = sum(counts)
        weights = [F(c, total) for c in counts]
        masks = [0, (1 << space.size) - 1] + [rng.getrandbits(space.size) for _ in range(3)]
        for bits in masks:
            inc = ic.Incidence(bits, space.size)
            assert space.weight_of(inc) == reference_weight_of(weights, inc)
        if not space.is_uniform:  # bit planes exactly when every numerator fits in a byte
            assert bool(space._masks) == (max(space._numerators) < 256)

    @pytest.mark.parametrize(
        "numerators",
        [
            [255, 1],
            [0, 3, 0, 255, 2],
            list(range(1, 256)),
            [0] + list(range(1, 256)) * 3,
            [k * 37 % 200 + 56 for k in range(1000)],  # 200 distinct values
        ],
    )
    def test_a_qualifying_space_is_weighed_by_point_masks(self, numerators, monkeypatch):
        # Numerators that fit in a byte, however many distinct: weighing
        # counts the bits of one point mask per bit plane, at most 8, and
        # never reads a point's flag.
        def refused(*args):
            raise AssertionError("weighed point by point")

        monkeypatch.setattr(space_module, "_flags", refused)
        total = sum(numerators)
        weights = [F(n, total) for n in numerators]
        rng = random.Random(len(numerators))
        for space in spaces_of_numerators(numerators):
            for _ in range(5):
                inc = ic.Incidence(rng.getrandbits(space.size), space.size)
                assert space.weight_of(inc) == reference_weight_of(weights, inc)
            assert space.weight_of(space.full()) == 1
            assert len(space._masks) == max(numerators).bit_length() <= 8

    @pytest.mark.parametrize("numerators", [[256, 1], [2**4000, 1, 3]])
    def test_any_other_space_is_weighed_point_by_point(self, numerators, monkeypatch):
        calls = []
        flags = space_module._flags
        monkeypatch.setattr(space_module, "_flags", lambda *a: calls.append(a) or flags(*a))
        total = sum(numerators)
        weights = [F(n, total) for n in numerators]
        for space in spaces_of_numerators(numerators):
            rest = ic.Incidence(space.full().bits ^ 1, space.size)
            for inc in (ic.Incidence(1, space.size), rest):
                assert space.weight_of(inc) == reference_weight_of(weights, inc)
        assert len(calls) == 4

    def test_weighing_leaves_equality_alone(self):
        counts = [3, 0, 5, 3, 7, 1] * 50
        for weigh_first in range(2):
            spaces = spaces_of_numerators(counts)
            spaces[weigh_first].weight_of(ic.Incidence(0b110101, len(counts)))
            assert spaces[0] == spaces[1]
            assert spaces[0]._key() == spaces[1]._key()

    @given(st.lists(st.integers(1, 10**30) | st.integers(1, 12), max_size=40))
    def test_tree_quotients_divide_the_lcm(self, values):
        given = list(values)
        denominator, quotients = _lcm_tree(given)
        assert denominator == lcm(*values)
        assert quotients == [denominator // d for d in values]
        assert given == []


# The bit-cost formula tabulated by scripts/storage_table.py.
storage_costs = load_script("storage_table").storage_costs


class TestStorageCosts:
    def test_worked_examples(self):
        assert storage_costs(10, 2) == (20480, 1000)
        assert storage_costs(1, 1) == (20, 10)
        assert storage_costs(20, 2) == (20971520, 2000)

    def test_incidences_win_for_many_propositions(self):
        for n in range(10, 31):
            for m in (1, 2):
                cost = storage_costs(n, m)
                assert cost.incidence_bits < cost.numeric_bits

    def test_validation(self):
        with pytest.raises(ValueError):
            storage_costs(0, 1)
        with pytest.raises(ValueError):
            storage_costs(1, 0)
