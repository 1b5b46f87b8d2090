import random

import pytest

import incalc as ic
from incalc.cli import main
from incalc.propagation import MAX_ATOMS, RULES, RULES_BY_CONNECTIVE
from helpers import arbitrary_instance, enumerate_legal, sound_instance, tight_bounds

A, B = ic.Atom("a"), ic.Atom("b")


def u(n):
    return ic.SampleSpace.uniform(n)


class TestRuleCatalog:
    def test_census(self):
        assert len(RULES) == 22
        assert len(RULES_BY_CONNECTIVE[ic.Not]) == 4
        for kind in (ic.And, ic.Or, ic.Implies):
            assert len(RULES_BY_CONNECTIVE[kind]) == 6

    def test_every_rule_is_justified(self):
        for rule in RULES:
            assert "i(" in rule.note, rule

    def _axiom(self, kind, ta, tb, width):
        full = (1 << width) - 1
        if kind is ic.Not:
            return ~ta & full
        if kind is ic.And:
            return ta & tb
        if kind is ic.Or:
            return ta | tb
        return (~ta & full) | tb

    def test_exhaustive_soundness_small_widths(self):
        # Every rule, every ground truth, every bound pair bracketing it,
        # at widths 1 to 3: the truth must stay inside the merged bound.
        for width in (1, 2, 3):
            full = (1 << width) - 1
            values = range(1 << width)
            masks = list(values)
            for kind, rules in RULES_BY_CONNECTIVE.items():
                unary = kind is ic.Not
                for ta in values:
                    for tb in (0,) if unary else values:
                        tc = self._axiom(kind, ta, tb, width)
                        truths = {"self": tc, "left": ta, "right": tb}
                        for ma in masks:
                            for mb in (0,) if unary else masks:
                                for mc in masks:
                                    b_a = (ta & ma, ta | ma)
                                    # A unary rule gets A's bounds as B's.
                                    b_b = b_a if unary else (tb & mb, tb | mb)
                                    b_c = (tc & mc, tc | mc)
                                    for rule in rules:
                                        grown = rule.compute(full, *b_c, *b_a, *b_b)
                                        truth = truths[rule.target]
                                        if rule.action == "raise":
                                            # Everything the rule adds to the lower
                                            # bound must actually be in the truth.
                                            assert grown & ~truth == 0, rule.note
                                        else:
                                            # The cut set must keep the whole truth.
                                            assert truth & ~grown == 0, rule.note


class TestWorkedExamples:
    def test_conjunction_upper_bound_tightening(self):
        space = u(10)
        assignment = ic.BoundAssignment(space)
        assignment.declare(
            ic.parse_formula("a & b"), lower=space.empty(), upper=space.incidence([0, 1, 2])
        )
        assignment.declare(B, lower=space.incidence(range(8)), upper=space.full())
        outcome = ic.propagate(assignment)
        assert outcome.ok
        assert outcome.final.bounds(A)[1] == space.incidence([0, 1, 2, 8, 9])

    def test_negation_bound_transfer(self):
        space = u(2)
        assignment = ic.BoundAssignment(space)
        assignment.declare(A)
        assignment.declare(ic.Not(A), lower=space.incidence([0]))
        outcome = ic.propagate(assignment)
        assert outcome.ok
        assert outcome.final.bounds(A)[1] == space.incidence([1])
        legal = enumerate_legal(assignment)
        assert sorted(env["a"].indices() for env in legal) == [(), (1,)]

    def test_contradictory_lower_bounds(self):
        space = u(2)
        assignment = ic.BoundAssignment(space)
        assignment.declare(A, lower=space.incidence([0]))
        assignment.declare(ic.Not(A), lower=space.incidence([0]))
        outcome = ic.propagate(assignment)
        assert outcome.status == ic.INCONSISTENT
        assert outcome.culprit == A
        assert outcome.final.bounds(A)[1] == space.incidence([1])

    def test_complete_mode_culprit_on_unsatisfiable_bounds(self):
        # No valuation is admitted at point 0 (a and ~a must both hold)
        # nor at point 1 (b | c must hold, b and c may not).  The culprit
        # comes from the lowest such point: ~a is read after a, and only
        # by then is every valuation rejected.
        space = u(2)
        assignment = ic.BoundAssignment(space)
        assignment.declare(A, lower=space.incidence([0]))
        assignment.declare(ic.Not(A), lower=space.incidence([0]))
        assignment.declare(ic.parse_formula("b | c"), lower=space.incidence([1]))
        assignment.declare(B, upper=space.incidence([0]))
        assignment.declare(ic.Atom("c"), upper=space.incidence([0]))
        outcome = ic.propagate(assignment, "complete")
        assert outcome.status == ic.INCONSISTENT
        assert outcome.culprit == ic.Not(A)
        assert outcome.final == assignment
        assert outcome.steps == 0
        assert tight_bounds(assignment) is None

    def test_detachment_through_implication(self):
        space = u(4)
        assignment = ic.BoundAssignment(space)
        assignment.declare(ic.parse_formula("a -> b"), lower=space.full())
        assignment.declare(A, lower=space.incidence([0, 1]))
        outcome = ic.propagate(assignment)
        assert outcome.ok
        assert space.incidence([0, 1]).is_subset(outcome.final.bounds(B)[0])


class TestBoundAssignment:
    def test_constants_are_pinned_at_registration(self):
        space = u(3)
        assignment = ic.BoundAssignment(space)
        assignment.declare(ic.parse_formula("a & true"))
        assert assignment.bounds(ic.TRUE) == (space.full(), space.full())
        assignment.declare(ic.parse_formula("a | false"))
        assert assignment.bounds(ic.FALSE) == (space.empty(), space.empty())

    def test_subformulas_registered_in_preorder(self):
        assignment = ic.BoundAssignment(u(2))
        f = ic.parse_formula("~a & b")
        assignment.declare(f)
        assert assignment.sentences() == (f, ic.Not(A), A, B)

    def test_duplicate_declarations_amalgamate(self):
        space = u(4)
        assignment = ic.BoundAssignment(space)
        assignment.declare(A, lower=space.incidence([0]), upper=space.incidence([0, 1, 2]))
        assignment.declare(A, lower=space.incidence([1]), upper=space.incidence([0, 1, 3]))
        assert assignment.bounds(A) == (space.incidence([0, 1]),) * 2

    def test_union_of_sound_lower_bounds_is_sound(self):
        rng = random.Random(3)
        for _ in range(100):
            width = rng.randint(1, 10)
            truth = rng.getrandbits(width)
            assignment = ic.BoundAssignment(u(width))
            for _ in range(3):
                assignment.declare(A, lower=ic.Incidence(truth & rng.getrandbits(width), width))
            assert assignment.bounds(A)[0].bits & ~truth == 0

    def test_exact_shorthand(self):
        space = u(3)
        assignment = ic.BoundAssignment(space)
        assignment.declare(A, exact=space.incidence([1]))
        assert assignment.bounds(A) == (space.incidence([1]),) * 2
        with pytest.raises(ValueError):
            assignment.declare(B, exact=space.empty(), lower=space.empty())

    def test_dump_format(self):
        space = u(4)
        assignment = ic.BoundAssignment(space)
        assignment.declare(A, lower=space.incidence([0]), upper=space.incidence([0, 1]))
        assert assignment.dump() == "a inf=1000 sup=1100 p=[1/4 (= 0.25), 1/2 (= 0.5)]"

    def test_unknown_sentence(self):
        assignment = ic.BoundAssignment(u(2))
        with pytest.raises(ic.UnknownSentenceError):
            assignment.bounds(A)

    def test_width_checked(self):
        assignment = ic.BoundAssignment(u(2))
        with pytest.raises(ic.WidthMismatchError):
            assignment.declare(A, lower=ic.Incidence.empty(3))

    def test_check_consistency_reports_first_registered(self):
        space = u(2)
        assignment = ic.BoundAssignment(space)
        assignment.declare(B, lower=space.incidence([0]), upper=space.incidence([1]))
        assignment.declare(A, lower=space.incidence([0]), upper=space.incidence([1]))
        assert ic.check_consistency(assignment) == B
        outcome = ic.propagate(assignment)
        assert outcome.status == ic.INCONSISTENT and outcome.culprit == B

    def test_propagate_leaves_input_untouched(self):
        space = u(2)
        assignment = ic.BoundAssignment(space)
        assignment.declare(A)
        assignment.declare(ic.Not(A), lower=space.incidence([0]))
        before = assignment.copy()
        ic.propagate(assignment)
        assert assignment == before


class TestPropagate:
    def test_rejects_unknown_mode(self):
        assignment = ic.BoundAssignment(u(2))
        with pytest.raises(ValueError):
            ic.propagate(assignment, "eager")

    def test_bounds_only_tighten(self):
        rng = random.Random(17)
        for _ in range(60):
            _, assignment, _ = sound_instance(
                rng, width=rng.randint(1, 8), atoms=("a", "b", "c"), n_sentences=4
            )
            outcome = ic.propagate(assignment)
            for sentence in assignment:
                low0, high0 = assignment.bounds(sentence)
                low1, high1 = outcome.final.bounds(sentence)
                assert low0.is_subset(low1)
                assert high1.is_subset(high0)

    def test_sound_on_instances_with_a_model(self):
        rng = random.Random(29)
        for _ in range(100):
            space, assignment, env = sound_instance(
                rng, width=rng.randint(1, 10), atoms=("a", "b", "c", "d"), n_sentences=6
            )
            outcome = ic.propagate(assignment)
            assert outcome.ok
            for sentence in assignment:
                truth = ic.incidence_of(sentence, env, space)
                low, high = outcome.final.bounds(sentence)
                assert low.is_subset(truth) and truth.is_subset(high)

    def test_fixpoint_is_stable(self):
        rng = random.Random(41)
        for _ in range(30):
            _, assignment, _ = sound_instance(
                rng, width=rng.randint(1, 8), atoms=("a", "b"), n_sentences=4
            )
            once = ic.propagate(assignment)
            again = ic.propagate(once.final)
            assert again.steps == 0
            assert again.final == once.final

    def test_confluence_under_shuffled_worklists(self):
        rng = random.Random(53)
        for _ in range(25):
            width = rng.randint(1, 8)
            _, assignment, _ = sound_instance(
                rng, width=width, atoms=("a", "b", "c"), n_sentences=5
            )
            reference = ic.propagate(assignment)
            bound = 2 * width * len(assignment)
            assert reference.steps <= bound
            for seed in range(5):
                shuffled = ic.propagate(
                    assignment, worklist_rng=random.Random(seed)
                )
                assert shuffled.final == reference.final
                assert shuffled.steps <= bound


class TestOracle:
    def test_legal_respects_all_bounds(self):
        rng = random.Random(61)
        for _ in range(40):
            space, assignment = arbitrary_instance(
                rng, width=rng.randint(1, 4), atoms=("a", "b"), n_sentences=3
            )
            for env in enumerate_legal(assignment):
                for sentence in assignment:
                    value = ic.incidence_of(sentence, env, space)
                    low, high = assignment.bounds(sentence)
                    assert low.is_subset(value) and value.is_subset(high)

    def test_propagated_bounds_contain_tight_bounds(self):
        rng = random.Random(67)
        for _ in range(60):
            _, assignment = arbitrary_instance(
                rng, width=rng.randint(1, 4), atoms=("a", "b", "c"), n_sentences=3
            )
            tight = tight_bounds(assignment)
            if tight is None:
                continue
            outcome = ic.propagate(assignment)
            assert outcome.ok
            for sentence in assignment:
                assert outcome.final.bounds(sentence)[0].is_subset(tight.bounds(sentence)[0])
                assert tight.bounds(sentence)[1].is_subset(outcome.final.bounds(sentence)[1])

    def test_complete_mode_matches_oracle_exactly(self):
        rng = random.Random(71)
        for _ in range(60):
            _, assignment = arbitrary_instance(
                rng, width=rng.randint(1, 4), atoms=("a", "b", "c"), n_sentences=3
            )
            tight = tight_bounds(assignment)
            outcome = ic.propagate(assignment, "complete")
            if tight is None:
                assert outcome.status == ic.INCONSISTENT
            else:
                assert outcome.ok
                assert outcome.final == tight

    def test_guard_refuses_large_instances(self, tmp_path, capsys):
        # The brute-force oracle guards width * atoms; complete mode
        # guards the atom count alone.
        space = u(10)
        assignment = ic.BoundAssignment(space)
        assignment.declare(ic.parse_formula("a & b & c"))
        with pytest.raises(ic.InstanceTooLargeError):
            enumerate_legal(assignment)
        assert ic.propagate(assignment, "complete").ok
        assert ic.propagate(assignment).ok

        wide = u(4096)
        assignment = ic.BoundAssignment(wide)
        assignment.declare(ic.parse_formula("a & b -> c | d"), lower=wide.incidence([7]))
        assignment.declare(ic.parse_formula("a & b"), lower=wide.incidence([7, 4095]))
        outcome = ic.propagate(assignment, "complete")
        assert outcome.ok
        assert outcome.final.bounds(ic.parse_formula("c | d"))[0] == wide.incidence([7])

        too_many = " & ".join(f"x{j}" for j in range(MAX_ATOMS + 1))
        assignment = ic.BoundAssignment(u(1))
        assignment.declare(ic.parse_formula(too_many))
        with pytest.raises(ic.InstanceTooLargeError):
            ic.propagate(assignment, "complete")
        kb = tmp_path / "many_atoms.kb"
        kb.write_text(f"space 1\nbounds ({too_many}) inf {{}} sup {{0}}\n")
        assert main(["solve", str(kb), "--complete"]) == 2
        assert "atoms" in capsys.readouterr().err

    def test_complete_mode_matches_oracle_at_each_point_of_a_wide_space(self):
        # Complete mode treats the points together; the oracle sees one
        # width-1 projection of the instance at a time.
        rng = random.Random(73)
        one = u(1)
        for _ in range(3):
            space, assignment, env = sound_instance(
                rng, width=256, atoms=("a", "b", "c"), n_sentences=5
            )
            complete = ic.propagate(assignment, "complete")
            plain = ic.propagate(assignment)
            assert complete.ok and plain.ok
            for sentence in assignment:
                truth = ic.incidence_of(sentence, env, space)
                low, high = complete.final.bounds(sentence)
                assert low.is_subset(truth) and truth.is_subset(high)
                assert plain.final.bounds(sentence)[0].is_subset(low)
                assert high.is_subset(plain.final.bounds(sentence)[1])
            for k in range(space.size):
                projected = ic.BoundAssignment(one)
                for sentence in assignment:
                    low, high = assignment.bounds(sentence)
                    projected.declare(
                        sentence,
                        lower=ic.Incidence(low.bits >> k & 1, 1),
                        upper=ic.Incidence(high.bits >> k & 1, 1),
                    )
                tight = tight_bounds(projected)
                for sentence in assignment:
                    low, high = complete.final.bounds(sentence)
                    assert tight.bounds(sentence)[0].bits == low.bits >> k & 1
                    assert tight.bounds(sentence)[1].bits == high.bits >> k & 1
