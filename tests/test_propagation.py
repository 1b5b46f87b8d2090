import itertools
import random
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import incalc as ic
from incalc.cli import _COMMANDS, main
from incalc.propagation import MAX_TABLE_BITS
from incalc.rational import format_prob
from helpers import (
    ATOMS,
    RULES,
    RULES_BY_CONNECTIVE,
    arbitrary_instance,
    counting_worklist,
    enumerate_legal,
    formulas_st,
    holds_at,
    incidences,
    points,
    random_formula,
    reference_fixpoint,
    shuffled_worklist,
    sound_instance,
    tight_bounds,
    written_weights,
)

A, B = ic.Atom("a"), ic.Atom("b")
DATA = Path(__file__).parent / "data"


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


class TestOneUpdatePerNode:
    """The fixpoint runs one update per node, read off its connective's
    truth table; the rule catalog, closed to a fixpoint, is its oracle."""

    def test_one_update_is_the_local_closure_of_the_rules(self):
        # Every consistent state of C = op(A, B) at widths 1 and 2, shared
        # operands included.  A and B are atoms and an update wakes no
        # node for its own change, so `propagate` runs C's update once.
        cases = [ic.Not(A), ic.And(A, A), ic.Or(A, A), ic.Implies(A, A)]
        cases += [kind(A, B) for kind in (ic.And, ic.Or, ic.Implies)]
        seen = Counter()
        for width in (1, 2):
            space = u(width)
            masks = range(1 << width)
            states = [(lo, hi) for lo in masks for hi in masks if lo & ~hi == 0]
            for c in cases:
                nodes = (c, *dict.fromkeys(c.args))
                for pairs in itertools.product(states, repeat=len(nodes)):
                    assignment = ic.BoundAssignment(space)
                    for node, (lo, hi) in zip(nodes, pairs):
                        assignment.declare(
                            node, lower=ic.Incidence(lo, width), upper=ic.Incidence(hi, width)
                        )
                    outcome = ic.propagate(assignment)
                    status, _, closed = reference_fixpoint(assignment)
                    assert outcome.status == status, (c, pairs)
                    seen[status] += 1
                    if outcome.ok:
                        assert outcome.final == closed, (c, pairs)
                        again = ic.propagate(outcome.final)
                        assert again.steps == 0 and again.final == outcome.final
        assert sum(seen.values()) == 2628 and min(seen.values()) > 100

    def test_matches_the_rule_catalog_in_plain_rounds(self):
        # Seeded random instances, about half of them inconsistent.  The
        # culprit may depend on the order of work; it must still be a
        # registered sentence that the run left with crossed bounds.
        seen = Counter()
        for seed in range(3000):
            rng = random.Random(seed)
            _, assignment = arbitrary_instance(
                rng, width=rng.randint(1, 6), atoms=ATOMS[:4], n_sentences=rng.randint(1, 4)
            )
            outcome = ic.propagate(assignment)
            status, _, final = reference_fixpoint(assignment)
            assert outcome.status == status, seed
            seen[status] += 1
            if outcome.ok:
                assert outcome.final == final, seed
            else:
                low, high = outcome.final.bounds(outcome.culprit)
                assert not low.is_subset(high), seed
        assert min(seen.values()) >= 1000


class TestWorkedExamples:
    def test_conjunction_upper_bound_tightening(self):
        space = u(10)
        assignment = ic.BoundAssignment(space)
        assignment.declare(
            ic.parse_formula("a & b"),
            lower=ic.Incidence.empty(space.size),
            upper=points(space, [0, 1, 2]),
        )
        assignment.declare(B, lower=points(space, range(8)), upper=space.full())
        outcome = ic.propagate(assignment)
        assert outcome.ok
        assert outcome.final.bounds(A)[1] == points(space, [0, 1, 2, 8, 9])

    def test_negation_bound_transfer(self):
        space = u(2)
        assignment = ic.BoundAssignment(space)
        assignment.declare(A)
        assignment.declare(ic.Not(A), lower=points(space, [0]))
        outcome = ic.propagate(assignment)
        assert outcome.ok
        assert outcome.final.bounds(A)[1] == points(space, [1])
        legal = enumerate_legal(assignment)
        assert sorted(env["a"].indices() for env in legal) == [(), (1,)]

    def test_contradictory_lower_bounds(self):
        space = u(2)
        assignment = ic.BoundAssignment(space)
        assignment.declare(A, lower=points(space, [0]))
        assignment.declare(ic.Not(A), lower=points(space, [0]))
        outcome = ic.propagate(assignment)
        assert outcome.status == ic.INCONSISTENT
        assert outcome.culprit == A
        assert outcome.final.bounds(A)[1] == points(space, [1])

    def test_complete_mode_culprit_on_unsatisfiable_bounds(self):
        # No valuation is admitted at point 0 (a and ~a must both hold)
        # nor at point 1 (b | c must hold, b and c may not).  The culprit
        # ends the shortest inconsistent registration-order prefix: a, ~a
        # already reject every valuation at point 0.
        space = u(2)
        assignment = ic.BoundAssignment(space)
        assignment.declare(A, lower=points(space, [0]))
        assignment.declare(ic.Not(A), lower=points(space, [0]))
        assignment.declare(ic.parse_formula("b | c"), lower=points(space, [1]))
        assignment.declare(B, upper=points(space, [0]))
        assignment.declare(ic.Atom("c"), upper=points(space, [0]))
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
        assignment.declare(A, lower=points(space, [0, 1]))
        outcome = ic.propagate(assignment)
        assert outcome.ok
        assert points(space, [0, 1]).is_subset(outcome.final.bounds(B)[0])


class TestBoundAssignment:
    def test_constants_are_pinned_at_registration(self):
        space = u(3)
        assignment = ic.BoundAssignment(space)
        assignment.declare(ic.parse_formula("a & true"))
        assert assignment.bounds(ic.TRUE) == (space.full(), space.full())
        assignment.declare(ic.parse_formula("a | false"))
        empty = ic.Incidence.empty(space.size)
        assert assignment.bounds(ic.FALSE) == (empty, empty)

    def test_subformulas_registered_in_preorder(self):
        assignment = ic.BoundAssignment(u(2))
        f = ic.parse_formula("~a & b")
        assignment.declare(f)
        assert assignment.sentences() == (f, ic.Not(A), A, B)

    @given(st.lists(formulas_st, min_size=1, max_size=6))
    def test_registration_follows_the_preorder_of_all_declared(self, sentences):
        assignment = ic.BoundAssignment(u(2))
        for sentence in sentences:
            assignment.declare(sentence)
        assert assignment.sentences() == tuple(ic.subformulas(*sentences))

    def test_registering_a_chain_is_linear_in_its_length(self, monkeypatch):
        class Counting(dict):
            checks = 0

            def __contains__(self, key):
                Counting.checks += 1
                return super().__contains__(key)

        init = ic.BoundAssignment.__init__

        def counted(self, space):
            init(self, space)
            self._position = Counting()

        monkeypatch.setattr(ic.BoundAssignment, "__init__", counted)
        checks = {}
        for n in (100, 200, 400):
            lines = "".join(f"formula d{i} = d{i - 1} & a{i % 5}\n" for i in range(1, n))
            kb = ic.parse_kb(f"space 4\nformula d0 = a0\n{lines}")
            Counting.checks = 0
            assignment = kb.initial_assignment()
            assert assignment.sentences() == tuple(ic.subformulas(*kb.formulas.values()))
            checks[n] = Counting.checks
        # Each line after the first registers one new node and looks up its
        # two operands; a walk of every declared sentence's whole DAG would
        # grow quadratically in the length.
        assert checks == {n: 3 * n - 2 for n in checks}

    def test_equality_with_another_type_is_not_implemented(self):
        assignment = ic.BoundAssignment(u(2))
        assert assignment.__eq__(u(2)) is NotImplemented
        assert assignment != u(2)

    def test_duplicate_declarations_amalgamate(self):
        space = u(4)
        assignment = ic.BoundAssignment(space)
        assignment.declare(A, lower=points(space, [0]), upper=points(space, [0, 1, 2]))
        assignment.declare(A, lower=points(space, [1]), upper=points(space, [0, 1, 3]))
        assert assignment.bounds(A) == (points(space, [0, 1]),) * 2

    def test_union_of_sound_lower_bounds_is_sound(self):
        rng = random.Random(3)
        for _ in range(100):
            width = rng.randint(1, 10)
            truth = rng.getrandbits(width)
            assignment = ic.BoundAssignment(u(width))
            for _ in range(3):
                assignment.declare(A, lower=ic.Incidence(truth & rng.getrandbits(width), width))
            assert assignment.bounds(A)[0].bits & ~truth == 0

    def test_dump_format(self):
        space = u(4)
        assignment = ic.BoundAssignment(space)
        assignment.declare(A, lower=points(space, [0]), upper=points(space, [0, 1]))
        assert assignment.dump() == "a inf=1000 sup=1100 p=[1/4 (= 0.25), 1/2 (= 0.5)]"

    @given(st.data())
    def test_dump_prints_the_weight_of_each_bound(self, data):
        # dump reads each mask's weight off an integer numerator; it must
        # be the weight that weight_of gives, on either kind of space.
        if data.draw(st.booleans()):
            space = u(data.draw(st.integers(1, 12)))
        else:
            space = ic.SampleSpace(data.draw(written_weights(max_size=12)))
        assignment = ic.BoundAssignment(space)
        for f in data.draw(st.lists(formulas_st, min_size=1, max_size=4)):
            x, y = data.draw(incidences(space.size)), data.draw(incidences(space.size))
            assignment.declare(f, lower=x & y, upper=x | y)
        lines = assignment.dump().split("\n")
        assert len(lines) == len(assignment)
        for line, sentence in zip(lines, assignment):
            low, high = assignment.bounds(sentence)
            probs = ", ".join(format_prob(space.weight_of(bound)) for bound in (low, high))
            bits = f"inf={low.to_bitstring()} sup={high.to_bitstring()}"
            assert line == f"{ic.format_formula(sentence)} {bits} p=[{probs}]"

    def test_unknown_sentence(self):
        assignment = ic.BoundAssignment(u(2))
        with pytest.raises(ic.UnknownSentenceError, match="^no bounds registered for a & b$"):
            assignment.bounds(ic.And(A, B))

    def test_unknown_sentence_too_long_to_render_is_named_by_its_length(self):
        # d40 of a chain that uses each level twice would render as
        # terabytes: the error names its length and keeps its type.
        d = A
        for _ in range(40):
            d = ic.Or(ic.And(d, B), ic.Not(d))
        assignment = ic.BoundAssignment(u(1))
        assignment.declare(A)
        for call in (assignment.bounds, lambda s: assignment.raise_lower(s, u(1).full())):
            with pytest.raises(ic.UnknownSentenceError) as err:
                call(d)
            assert re.fullmatch(
                r"no bounds registered for a sentence of \d{13,} characters, too long to render",
                str(err.value),
            )

    def test_width_checked(self):
        assignment = ic.BoundAssignment(u(2))
        with pytest.raises(ic.WidthMismatchError):
            assignment.declare(A, lower=ic.Incidence.empty(3))

    def test_check_consistency_reports_first_registered(self):
        space = u(2)
        assignment = ic.BoundAssignment(space)
        assignment.declare(B, lower=points(space, [0]), upper=points(space, [1]))
        assignment.declare(A, lower=points(space, [0]), upper=points(space, [1]))
        assert ic.check_consistency(assignment) == B
        outcome = ic.propagate(assignment)
        assert outcome.status == ic.INCONSISTENT and outcome.culprit == B

    def test_propagate_leaves_input_untouched(self):
        space = u(2)
        assignment = ic.BoundAssignment(space)
        assignment.declare(A)
        assignment.declare(ic.Not(A), lower=points(space, [0]))
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
                with shuffled_worklist(seed):
                    shuffled = ic.propagate(assignment)
                assert shuffled.final == reference.final
                assert shuffled.steps <= bound

    @staticmethod
    def dag_kb(rng, wrong=0):
        """6 atoms pinned by `inc` lines at width 8, then 60 `formula`
        lines, each joining two terms over earlier names (a name, its
        negation, or two names in parentheses), so that subterms are
        widely shared.  The last `wrong` definitions are then pinned by
        `bounds` lines to the complement of their value."""
        width, ops, names = 8, ("&", "|", "->"), list("abcdef")
        lines = [f"space {width}"]
        lines += [f"inc {a} = {rng.getrandbits(width):0{width}b}" for a in names]

        def term():
            x, kind = rng.choice(names), rng.randrange(3)
            return (x, f"~{x}", f"({x} {rng.choice(ops)} {rng.choice(names)})")[kind]

        for k in range(60):
            lines.append(f"formula s{k} = {term()} {rng.choice(ops)} {term()}")
            names.append(f"s{k}")
        kb = ic.parse_kb("\n".join(lines))
        for name in names[len(names) - wrong :]:
            value = ic.incidence_of(kb.formulas[name], kb.incidences, kb.space)
            flipped = ic.Incidence(value.bits ^ (1 << width) - 1, width).to_bitstring()
            lines.append(f"bounds ({name}) inf {flipped} sup {flipped}")
        return "\n".join(lines) + "\n"

    def test_each_node_of_a_dag_over_exact_atoms_is_updated_once(self):
        # Children first, every operand is exact by the time its parents
        # run, so each update leaves its node exact, and the parents it
        # wakes are still queued.
        for seed in range(3):
            assignment = ic.parse_kb(self.dag_kb(random.Random(seed))).initial_assignment()
            compound = [i for i, f in enumerate(assignment) if f.args]
            with counting_worklist() as taken:
                outcome = ic.propagate(assignment)
            assert outcome.ok
            assert sorted(taken) == compound

    @staticmethod
    def solved(text):
        """Steps, culprit text and dump of `solve` on `text`, and the
        registration positions in the order of the nodes' serials."""
        assignment = ic.parse_kb(text).initial_assignment()
        outcome = ic.propagate(assignment)
        culprit = outcome.culprit and ic.format_formula(outcome.culprit)
        serials = [f.serial for f in assignment]
        by_serial = sorted(range(len(serials)), key=serials.__getitem__)
        return (outcome.steps, culprit, outcome.final.dump()), by_serial

    def test_seed_order_ignores_interning_history(self):
        consistent = (DATA / "fixpoint.kb").read_text()
        inconsistent = self.dag_kb(random.Random(5), wrong=8)
        for text in (consistent, inconsistent):
            fresh, fresh_serials = self.solved(text)
            texts = list(map(ic.format_formula, ic.parse_kb(text).initial_assignment()))
            # That parse is dropped, so these nodes are built anew, in
            # reverse, and held through the second solve.
            kept = [ic.parse_formula(t) for t in reversed(texts)]
            again, serials_again = self.solved(text)
            del kept
            assert serials_again != fresh_serials  # the history did change
            assert again == fresh
        assert fresh[1] is not None  # the last KB is inconsistent

    def test_a_shuffled_worklist_must_be_built(self):
        # Complete mode runs no worklist, so the block builds no queue
        # through `deque` and must not pass for a shuffled run.
        with pytest.raises(AssertionError, match="built no worklist"):
            with shuffled_worklist(0):
                ic.propagate(ic.BoundAssignment(u(2)), "complete")


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

    def test_guard_refuses_large_instances(self):
        # The brute-force oracle guards width * atoms; complete mode
        # guards only the bits of its tables, which do not grow with the
        # width: 20 atoms pass at width 1 and at width 4096.
        space = u(10)
        assignment = ic.BoundAssignment(space)
        assignment.declare(ic.parse_formula("a & b & c"))
        with pytest.raises(ic.InstanceTooLargeError):
            enumerate_legal(assignment)
        assert ic.propagate(assignment, "complete").ok
        assert ic.propagate(assignment).ok

        wide = u(4096)
        assignment = ic.BoundAssignment(wide)
        assignment.declare(ic.parse_formula("a & b -> c | d"), lower=points(wide, [7]))
        assignment.declare(ic.parse_formula("a & b"), lower=points(wide, [7, 4095]))
        outcome = ic.propagate(assignment, "complete")
        assert outcome.ok
        assert outcome.final.bounds(ic.parse_formula("c | d"))[0] == points(wide, [7])

        at_20 = ic.parse_formula(" | ".join(f"x{j}" for j in range(20)))
        for space in (u(1), wide):
            assignment = ic.BoundAssignment(space)
            assignment.declare(at_20, lower=points(space, [0]))
            outcome = ic.propagate(assignment, "complete")
            assert outcome.ok and outcome.final.bounds(at_20)[0] == points(space, [0])

    def test_readme_states_the_limits(self):
        # One budget: MAX_TABLE_BITS, stated in MB, in tables at 20 and
        # 25 atoms, and as the fewest atoms whose own tables exceed it.
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        stated = re.findall(r"more than (\d+) MB\s+are refused", readme)
        assert stated == [str(MAX_TABLE_BITS >> 23)]
        tables = re.findall(r"at most (\d+) tables\s+fit at 20 atoms\s+and (\d+) at 25", readme)
        assert tables == [(str(MAX_TABLE_BITS >> 20), str(MAX_TABLE_BITS >> 25))]
        refused = re.findall(r"(\d+) or more atoms\s+are always refused", readme)
        assert refused == [str(next(n for n in itertools.count(1) if n << n > MAX_TABLE_BITS))]
        # The help of `solve --complete` names the same figure.
        complete_help = next(o["help"] for flags, o in _COMMANDS["solve"][2] if "--complete" in flags)
        assert re.findall(r"at most (\d+) MB", complete_help) == stated

    def test_complete_mode_matches_oracle_past_the_old_atom_limit(self):
        # Width-1 instances with 17-23 atoms, all but six of them pinned
        # to a random exact value, so the oracle enumerates 2^6 cases.
        rng = random.Random(83)
        one = u(1)
        statuses = Counter()
        for n_atoms in range(17, 24):
            for _ in range(3):
                names = [f"x{j}" for j in range(n_atoms)]
                assignment = ic.BoundAssignment(one)
                for name in names[6:]:
                    inc = ic.Incidence(rng.getrandbits(1), 1)
                    assignment.declare(ic.Atom(name), inc, inc)
                for _ in range(8):
                    f = random_formula(rng, names, 3)
                    low, high = sorted((rng.getrandbits(1), rng.getrandbits(1)))
                    assignment.declare(f, lower=ic.Incidence(low, 1), upper=ic.Incidence(high, 1))
                for name in names:
                    assignment.declare(ic.Atom(name))
                tight = tight_bounds(assignment)
                outcome = ic.propagate(assignment, "complete")
                statuses[outcome.status] += 1
                if tight is None:
                    assert outcome.status == ic.INCONSISTENT
                else:
                    assert outcome.ok and outcome.final == tight
        assert statuses[ic.INCONSISTENT] and statuses[ic.FIXPOINT]

    def test_complete_mode_solves_25_atoms_within_the_budget(self):
        # 25 atoms and 2 compound nodes: 27 truth tables of 2^25 bits and
        # one group fit in 32.  Whether x0 holds is open, but both cases
        # force x24 (one through the disjunction, one through the
        # implication); the 23 other atoms are pinned and touch nothing.
        # Past the oracle's guard, so the oracle sees the instance less
        # the pinned atoms, which cannot change the other bounds.
        rng = random.Random(29)
        one = u(1)
        x0, x24 = ic.Atom("x0"), ic.Atom("x24")
        pinned = {ic.Atom(f"x{j}"): ic.Incidence(rng.getrandbits(1), 1) for j in range(1, 24)}
        assignment, small = ic.BoundAssignment(one), ic.BoundAssignment(one)
        for f in (ic.Or(x0, x24), ic.Implies(x0, x24)):
            assignment.declare(f, one.full(), one.full())
            small.declare(f, one.full(), one.full())
        for atom, inc in pinned.items():
            assignment.declare(atom, inc, inc)
        assert len([f for f in assignment if isinstance(f, ic.Atom)]) == 25
        outcome = ic.propagate(assignment, "complete")
        assert outcome.ok
        tight = tight_bounds(small)
        assert tight.bounds(x24) == (one.full(), one.full())
        assert tight.bounds(x0) == (ic.Incidence.empty(one.size), one.full())
        for f in assignment:
            expected = (pinned[f], pinned[f]) if f in pinned else tight.bounds(f)
            assert outcome.final.bounds(f) == expected

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


class TestEnvelopeGroups:
    """Complete mode against an enumeration of the valuations at each
    point, including instances whose points admit more distinct sets of
    valuations than there are valuations."""

    @staticmethod
    def _per_point(assignment):
        """(culprit, None, sets) when some point admits no valuation, the
        culprit ending the shortest prefix that admits none at some
        point; else (None, bounds, sets) with bounds[sentence] = (lower
        bits, upper bits).  `sets` counts the distinct admitted sets."""
        sentences = assignment.sentences()
        names = [f.name for f in sentences if isinstance(f, ic.Atom)]
        envs = [
            {name: ic.Incidence(bit, 1) for name, bit in zip(names, bits)}
            for bits in itertools.product((0, 1), repeat=len(names))
        ]

        def admits(k, f, env):
            low, high = assignment.bounds(f)
            value = holds_at(f, 0, env)
            return (value or k not in low) and (k in high or not value)

        def admitted(k, prefix):
            return [v for v, env in enumerate(envs) if all(admits(k, f, env) for f in prefix)]

        every = [admitted(k, sentences) for k in range(assignment.space.size)]
        sets = len(set(map(tuple, every)))
        refuted = [k for k, here in enumerate(every) if not here]
        if refuted:
            ends = min(
                next(i for i in range(len(sentences)) if not admitted(k, sentences[: i + 1]))
                for k in refuted
            )
            return sentences[ends], None, sets
        lower = dict.fromkeys(sentences, 0)
        upper = dict.fromkeys(sentences, 0)
        for k, here in enumerate(every):
            for f in sentences:
                values = [holds_at(f, 0, envs[v]) for v in here]
                lower[f] |= all(values) << k
                upper[f] |= any(values) << k
        return None, {f: (lower[f], upper[f]) for f in sentences}, sets

    def test_matches_per_point_enumeration(self):
        rng = random.Random(89)
        seen = Counter()
        for _ in range(400):
            atoms = ATOMS[: rng.randint(1, 3)]
            make = sound_instance if rng.random() < 0.5 else arbitrary_instance
            assignment = make(
                rng, width=rng.randint(1, 24), atoms=atoms, n_sentences=rng.randint(1, 5)
            )[1]
            if ic.check_consistency(assignment) is not None:
                continue
            culprit, bounds, sets = self._per_point(assignment)
            outcome = ic.propagate(assignment, "complete")
            if bounds is None:
                assert outcome.status == ic.INCONSISTENT and outcome.culprit == culprit
                assert outcome.final == assignment
            else:
                assert outcome.ok
                final = outcome.final
                assert {f: tuple(b.bits for b in final.bounds(f)) for f in final} == bounds
            seen[outcome.ok, sets > 1 << len(atoms)] += 1
        assert min(seen[ok, many] for ok in (True, False) for many in (True, False)) >= 5

    @staticmethod
    def _refuted_instances():
        """(assignment, culprit) for the seeded draws that pass
        `check_consistency` and that complete mode finds inconsistent."""
        rng = random.Random(7)
        for _ in range(3000):
            make = sound_instance if rng.random() < 0.5 else arbitrary_instance
            assignment = make(
                rng,
                width=rng.randint(1, 8),
                atoms=ATOMS[: rng.randint(1, 4)],
                n_sentences=rng.randint(1, 5),
            )[1]
            if ic.check_consistency(assignment) is None:
                outcome = ic.propagate(assignment, "complete")
                if not outcome.ok:
                    yield assignment, outcome.culprit

    def test_culprit_does_not_depend_on_the_numbering_of_points(self):
        rng = random.Random(8)
        refuted = 0
        for assignment, culprit in self._refuted_instances():
            space = assignment.space
            order = rng.sample(range(space.size), space.size)  # point k becomes order[k]

            def moved(inc):
                bits = sum((inc.bits >> k & 1) << j for k, j in enumerate(order))
                return ic.Incidence(bits, inc.width)

            weights = [None] * space.size
            for k, w in enumerate(space.map_weights(Fraction)):
                weights[order[k]] = w
            renumbered = ic.BoundAssignment(ic.SampleSpace(weights))
            for sentence in assignment.sentences():
                low, high = assignment.bounds(sentence)
                renumbered.declare(sentence, lower=moved(low), upper=moved(high))
            assert renumbered.sentences() == assignment.sentences()
            assert ic.propagate(renumbered, "complete").culprit == culprit
            refuted += 1
        assert refuted >= 300

    def test_culprit_ends_the_shortest_inconsistent_prefix(self):
        refuted = 0
        for assignment, culprit in self._refuted_instances():
            sentences = assignment.sentences()
            ends = sentences.index(culprit)
            for length, ok in ((ends, True), (ends + 1, False)):
                prefix = ic.BoundAssignment(assignment.space)
                for j, sentence in enumerate(sentences):
                    if j < length:
                        prefix.declare(sentence, *assignment.bounds(sentence))
                    else:
                        prefix.declare(sentence)
                assert prefix.sentences() == sentences
                assert ic.propagate(prefix, "complete").ok is ok
            refuted += 1
        assert refuted >= 300

    def test_table_budget_refuses_before_evaluating(self, tmp_path, capsys, monkeypatch):
        # 20 atoms and a chain of implications: more registered nodes than
        # 2^20-bit tables fit in MAX_TABLE_BITS, at width 1 and 4096.  The
        # refusal comes before a single table is built.
        def evaluate(*args):
            raise AssertionError("truth tables built past the budget")

        monkeypatch.setattr(ic.propagation, "evaluate", evaluate)
        chain = ic.Atom("x0")
        for j in range(MAX_TABLE_BITS >> 20):
            chain = ic.Implies(ic.Atom(f"x{j % 20}"), chain)
        for space in (u(1), u(4096)):
            assignment = ic.BoundAssignment(space)
            assignment.declare(chain, lower=space.full())
            assert len(assignment) > MAX_TABLE_BITS >> 20
            with pytest.raises(ic.InstanceTooLargeError, match="128 MB"):
                ic.propagate(assignment, "complete")
        kb = tmp_path / "chain.kb"
        kb.write_text(f"space 1\nbounds {ic.format_formula(chain)} inf 1 sup 1\n")
        assert main(["solve", str(kb), "--complete"]) == 2
        assert "128 MB" in capsys.readouterr().err

    def test_table_budget_refuses_26_atoms_before_evaluating(self, tmp_path, capsys, monkeypatch):
        # The atoms' own tables take 26 * 2^26 bits, past the 2^30 of
        # the budget, whatever the other nodes and the width.
        def evaluate(*args):
            raise AssertionError("truth tables built past the budget")

        monkeypatch.setattr(ic.propagation, "evaluate", evaluate)
        atoms = [f"x{j}" for j in range(26)]
        for space in (u(1), u(4096)):
            assignment = ic.BoundAssignment(space)
            for name in atoms:
                assignment.declare(ic.Atom(name))
            with pytest.raises(ic.InstanceTooLargeError, match="26 atoms needs 26 tables"):
                ic.propagate(assignment, "complete")
        kb = tmp_path / "many_atoms.kb"
        kb.write_text(f"space 1\nbounds ({' & '.join(atoms)}) inf {{}} sup {{0}}\n")
        assert main(["solve", str(kb), "--complete"]) == 2
        err = capsys.readouterr().err
        assert "26 atoms" in err and "128 MB" in err

    def test_table_budget_counts_groups_of_points(self, monkeypatch):
        # Two atoms, three nodes: a, b and a & b.  Points 0-4 admit five
        # distinct sets of valuations (a, ~a, b, ~b, a & b); point 5
        # admits all four.  With room for eight 4-bit tables, the three
        # truth tables and five groups fit, and a sixth group does not.
        monkeypatch.setattr(ic.propagation, "MAX_TABLE_BITS", 8 << 2)
        for width in (5, 6):
            space = u(width)
            assignment = ic.BoundAssignment(space)
            but = lambda k: points(space, [j for j in range(width) if j != k])
            assignment.declare(A, lower=points(space, [0]), upper=but(1))
            assignment.declare(B, lower=points(space, [2]), upper=but(3))
            assignment.declare(ic.And(A, B), lower=points(space, [4]))
            if width == 5:
                assert ic.propagate(assignment, "complete").ok
            else:
                with pytest.raises(ic.InstanceTooLargeError, match="needs 9 tables"):
                    ic.propagate(assignment, "complete")
