from decimal import Decimal
from fractions import Fraction as F

import pytest

import incalc as ic
from incalc.rational import sqrt_fraction

HALF, TWO_FIFTHS = F(1, 2), F(2, 5)


class TestTargetSpec:
    def test_normalises_pair_keys(self):
        spec = ic.TargetSpec({"a": HALF, "b": TWO_FIFTHS}, 10, {("b", "a"): F(1, 4)})
        assert spec.correlations == {("a", "b"): F(1, 4)}

    def test_accepts_strings_and_ints(self):
        spec = ic.TargetSpec({"a": "0.5", "b": 1}, 10)
        assert spec.marginals == {"a": HALF, "b": F(1)}

    @pytest.mark.parametrize(
        "marginals, size, correlations",
        [
            ({"a": 0.5}, 10, {}),  # float marginal
            ({"a": HALF}, 0, {}),
            ({"a": F(3, 2)}, 10, {}),
            ({"a": F(-1, 2)}, 10, {}),
            ({"1a": HALF}, 10, {}),
            ({"a": HALF, "b": HALF}, 10, {("a", "a"): HALF}),
            ({"a": HALF}, 10, {("a", "b"): HALF}),  # b has no marginal
            ({"a": HALF, "b": F(1)}, 10, {("a", "b"): HALF}),  # degenerate b
            ({"a": HALF, "b": HALF}, 10, {("a", "b"): F(2)}),
            ({"a": HALF, "b": HALF}, 10, {("a", "b"): 0.5}),  # float correlation
            ({"a": Decimal("0.5")}, 10, {}),  # Decimal marginal
        ],
    )
    def test_rejected(self, marginals, size, correlations):
        with pytest.raises((ValueError, TypeError)):
            ic.TargetSpec(marginals, size, correlations)


class TestSynthesis:
    def test_marginal_quotas_are_exact(self):
        spec = ic.TargetSpec({"a": HALF, "b": TWO_FIFTHS}, 10000)
        space, env = ic.incidences_from_probabilities(spec)
        assert space.is_uniform and space.size == 10000
        assert env["a"].count() == 5000
        assert env["b"].count() == 4000
        assert ic.prob(ic.Atom("a"), env, space) == HALF

    def test_quota_rounds_half_up(self):
        spec = ic.TargetSpec({"a": F(1, 4)}, 10)  # 2.5 points
        _, env = ic.incidences_from_probabilities(spec)
        assert env["a"].count() == 3

    def test_deterministic_per_seed(self):
        spec = ic.TargetSpec({"a": HALF, "b": TWO_FIFTHS}, 200, {("a", "b"): "0.8165"}, seed=7)
        first = ic.incidences_from_probabilities(spec)
        second = ic.incidences_from_probabilities(spec)
        assert first == second
        other = ic.TargetSpec({"a": HALF, "b": TWO_FIFTHS}, 200, {("a", "b"): "0.8165"}, seed=8)
        assert ic.incidences_from_probabilities(other) != first

    def test_overlap_hits_the_implied_count(self):
        spec = ic.TargetSpec(
            {"a": HALF, "b": TWO_FIFTHS}, 10000, {("a", "b"): "0.8165"}, seed=3
        )
        space, env = ic.incidences_from_probabilities(spec)
        overlap = env["a"] & env["b"]
        # kx*ky/n + c*sqrt(kx(n-kx)ky(n-ky))/n = 2000 + 0.8165*2449.49.. = 4000.0
        assert overlap.count() == 4000
        achieved = ic.correlation(ic.Atom("a"), ic.Atom("b"), env, space)
        assert abs(float(achieved.decimal()) - 0.8165) < 0.01

    def test_full_positive_correlation_aligns_equal_marginals(self):
        spec = ic.TargetSpec({"a": HALF, "b": HALF}, 40, {("a", "b"): 1}, seed=11)
        _, env = ic.incidences_from_probabilities(spec)
        assert env["a"] == env["b"]

    def test_full_negative_correlation_makes_complements(self):
        spec = ic.TargetSpec({"a": HALF, "b": HALF}, 40, {("a", "b"): -1}, seed=11)
        _, env = ic.incidences_from_probabilities(spec)
        assert env["b"] == env["a"].complement()

    def test_infeasible_pair_is_rejected(self):
        spec = ic.TargetSpec(
            {"a": F(9, 10), "b": F(9, 10)}, 10, {("a", "b"): -1}
        )
        with pytest.raises(ic.InfeasibleTargetError):
            ic.incidences_from_probabilities(spec)

    def test_quantised_degenerate_marginal_is_rejected(self):
        # 0.96 quantises to all 25 points, leaving no room to correlate.
        spec = ic.TargetSpec(
            {"a": F(49, 50), "b": HALF}, 25, {("a", "b"): HALF}
        )
        with pytest.raises(ic.InfeasibleTargetError):
            ic.incidences_from_probabilities(spec)

    def test_joint_probability_within_one_point(self):
        for seed in range(5):
            spec = ic.TargetSpec(
                {"a": F(3, 5), "b": F(7, 20)}, 400, {("a", "b"): F(-1, 4)}, seed=seed
            )
            space, env = ic.incidences_from_probabilities(spec)
            joint = ic.prob(ic.parse_formula("a & b"), env, space)
            pa, pb = F(3, 5), F(7, 20)
            implied = pa * pb + F(-1, 4) * sqrt_fraction(pa * (1 - pa) * pb * (1 - pb))
            assert abs(joint - implied) <= F(1, 400)


class TestRecordTable:
    def test_worked_example(self):
        table = ic.RecordTable(
            ("rain", "wet"),
            ((True, True), (True, True), (True, False), (False, False), (False, False)),
        )
        space, env = ic.incidences_from_records(table)
        assert space.weights == (F(2, 5), F(1, 5), F(2, 5))
        assert env["rain"] == space.incidence([0, 1])
        assert env["wet"] == space.incidence([0])
        assert ic.prob(ic.Atom("rain"), env, space) == F(3, 5)
        assert ic.cond_prob(ic.Atom("wet"), ic.Atom("rain"), env, space) == F(2, 3)

    def test_points_follow_first_occurrence(self):
        table = ic.RecordTable(
            ("x",), ((False,), (True,), (False,), (True,), (True,))
        )
        space, env = ic.incidences_from_records(table)
        # Distinct rows in order of first appearance: (False,), (True,).
        assert space.weights == (F(2, 5), F(3, 5))
        assert env["x"] == space.incidence([1])

    def test_from_text(self):
        table = ic.RecordTable.from_text(
            "# daily observations\n"
            "rain, wet\n"
            "1 1\n"
            "t, f\n"
            "FALSE false\n"
        )
        assert table.columns == ("rain", "wet")
        assert table.rows == ((True, True), (True, False), (False, False))

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("", "no header"),
            ("a b\n", "no rows"),
            ("a b\n1\n", "expected 2"),
            ("a b\n1 2\n", "bad value '2'"),
            ("a a\n1 1\n", "duplicate column"),
            ("a 2b\n1 1\n", "bad column name"),
        ],
    )
    def test_rejected(self, text, fragment):
        with pytest.raises(ic.RecordTableError, match=fragment):
            ic.RecordTable.from_text(text)

    def test_bad_value_reports_line_number(self):
        with pytest.raises(ic.RecordTableError, match="line 3"):
            ic.RecordTable.from_text("a\n1\nmaybe\n")

    def test_short_row_reports_line_number(self):
        with pytest.raises(ic.RecordTableError) as info:
            ic.RecordTable.from_text("a b\n1 0\n1\n")
        assert str(info.value) == "line 3: row has 1 values, expected 2"


class TestParseTargets:
    def test_worked_example(self):
        marginals, correlations = ic.parse_targets(
            "# synthesis targets\n"
            "prob a = 0.5\n"
            "prob b = 2/5\n"
            "corr b a = 0.8165\n"
        )
        assert marginals == {"a": HALF, "b": TWO_FIFTHS}
        assert correlations == {("a", "b"): F(8165, 10000)}

    @pytest.mark.parametrize(
        "text",
        [
            "prob a = 0.5\nprob a = 0.4\n",
            "corr a b = 0.1\ncorr b a = 0.1\n",
            "chance a = 0.5\n",
            "prob a 0.5\n",
        ],
    )
    def test_rejected(self, text):
        with pytest.raises(ValueError):
            ic.parse_targets(text)

    @pytest.mark.parametrize(
        "text", ["prob a = 0.5\nprob c\u00e9 = 0.5\n", "prob a = 0.5\ncorr a b\u00e9 = 0.1\n"]
    )
    def test_non_ascii_atom_names_rejected_with_line(self, text):
        with pytest.raises(ValueError, match="line 2: unrecognised directive"):
            ic.parse_targets(text)

    def test_bad_value_reports_line_number(self):
        with pytest.raises(ValueError) as info:
            ic.parse_targets("prob a = 0.5\nprob b = x\n")
        assert str(info.value) == "line 2: not a rational number: 'x'"

    def test_feeds_target_spec(self):
        marginals, correlations = ic.parse_targets("prob a = 3/4\n")
        spec = ic.TargetSpec(marginals, 8, correlations, seed=1)
        _, env = ic.incidences_from_probabilities(spec)
        assert env["a"].count() == 6
