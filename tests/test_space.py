import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import incalc as ic
from incalc.space import MAX_WIDTH
from helpers import incidences, load_script, random_space, reference_weight_of, written_weights


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

    def test_wide_spaces_supported(self):
        width = 10**4
        inc = ic.Incidence.from_indices([0, width - 1], width)
        text = inc.to_bitstring()
        assert len(text) == width
        assert ic.Incidence.from_bitstring(text, width) == inc

    def test_from_indices_range_check(self):
        with pytest.raises(ValueError, match="out of range"):
            ic.Incidence.from_indices([4], 4)

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

    def test_width_mismatch_raises(self):
        with pytest.raises(ic.WidthMismatchError):
            ic.Incidence.empty(3) | ic.Incidence.empty(4)

    @given(st.integers(1, 24).flatmap(lambda w: st.tuples(incidences(w), incidences(w))))
    def test_de_morgan(self, pair):
        i, j = pair
        assert (i & j).complement() == i.complement() | j.complement()
        assert (i | j).complement() == i.complement() & j.complement()

    @given(st.integers(1, 24).flatmap(lambda w: st.tuples(incidences(w), incidences(w))))
    def test_difference_and_subset(self, pair):
        i, j = pair
        assert i - j == i & j.complement()
        assert (i & j).is_subset(i)
        assert i.is_subset(i | j)

    def test_str_is_bitstring(self):
        assert str(ic.Incidence.from_indices([1], 3)) == "010"


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


class TestSampleSpace:
    def test_weight_of_worked_example(self):
        space = ic.SampleSpace((F(1, 2), F(1, 4), F(1, 8), F(1, 8)))
        assert space.weight_of(space.incidence([1, 2])) == F(3, 8)

    def test_whole_space_has_weight_one(self):
        space = ic.SampleSpace.uniform(7)
        assert space.weight_of(space.full()) == 1
        assert space.weight_of(space.empty()) == 0

    def test_zero_weight_points_allowed(self):
        space = ic.SampleSpace((F(1, 2), F(0), F(1, 2)))
        assert space.weight_of(space.incidence([1])) == 0

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            ic.SampleSpace((F(1, 2), F(1, 4)))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            ic.SampleSpace((F(3, 2), F(-1, 2)))

    def test_float_weights_rejected(self):
        with pytest.raises(TypeError, match="exact"):
            ic.SampleSpace((0.5, 0.5))

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
        assert space.weights == tuple(F(w) for w in weights)
        assert space.weight_of(space.full()) == 1
        inc = data.draw(incidences(len(weights)))
        assert space.weight_of(inc) == reference_weight_of(weights, inc)

    @given(written_weights(), st.data())
    def test_spelling_of_weights_does_not_matter(self, weights, data):
        respelled = [data.draw(st.sampled_from([F(w), str(F(w))])) for w in weights]
        space, again = ic.SampleSpace(weights), ic.SampleSpace(respelled)
        assert space == again and hash(space) == hash(again)
        assert space.is_uniform == (len(set(map(F, weights))) == 1)

    def test_equal_weights_written_differently_are_equal(self):
        pairs = [
            (("2/4", "2/4"), (F(1, 2), F(1, 2))),
            (("2/4", "3/12", F(1, 4)), (F(1, 2), "1/4", "0.25")),
            ((0, "6/6"), (F(0), 1)),
        ]
        for left, right in pairs:
            a, b = ic.SampleSpace(left), ic.SampleSpace(right)
            assert a == b and hash(a) == hash(b)
        assert ic.SampleSpace(("2/4", "2/4")) == ic.SampleSpace.uniform(2)
        assert hash(ic.SampleSpace(("1/3",) * 3)) == hash(ic.SampleSpace.uniform(3))
        assert ic.SampleSpace((F(1, 2), F(1, 2))) != ic.SampleSpace((F(1, 4), F(3, 4)))
        assert ic.SampleSpace.uniform(2) != ic.SampleSpace.uniform(3)

    def test_weight_of_checks_width(self):
        with pytest.raises(ic.WidthMismatchError):
            ic.SampleSpace.uniform(3).weight_of(ic.Incidence.empty(4))

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
        assert space.weight_of(i.complement()) == 1 - space.weight_of(i)


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
