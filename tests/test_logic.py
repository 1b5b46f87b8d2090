import gc
import random
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import incalc as ic
from incalc import logic
from incalc.logic import format_formulas, is_name
from helpers import (
    ATOMS,
    atom_names,
    formulas_st,
    holds_at,
    points,
    random_env,
    random_formula,
    random_space,
    reference_parse_formula,
)

A, B, C = ic.Atom("a"), ic.Atom("b"), ic.Atom("c")
DATA = Path(__file__).parent / "data"

# Every token of the syntax, whitespace, and characters that are not
# tokens or only part of one.
TOKEN_SOUP = [
    "a", "b", "x_1", "true", "false", "~", "&", "|", "->", "(", ")",
    " ", "\t", "-", ">", "$", "1", "_", "\u00e9",
]

# Characters that start no token, one after an identifier, and the
# whitespace put between tokens (none, a no-break space and a line
# separator included).
STRAY = [*TOKEN_SOUP[13:], "0", "#", "!", "=", ",", "x\u00e9"]
SPACES = ["", " ", "\t", "\n", "\r", "\u00a0", "\u2028"]


@st.composite
def soup_texts(draw):
    """A random formula's text cut into tokens, with up to two of them
    dropped and up to two strings from TOKEN_SOUP or STRAY put anywhere,
    joined by random whitespace: well-formed, malformed and unreadable
    text all come up."""
    parts = re.findall(r"\w+|->|\S", ic.format_formula(draw(formulas_st)))
    for _ in range(draw(st.integers(0, 2))):
        if parts:
            del parts[draw(st.integers(0, len(parts) - 1))]
    for extra in draw(st.lists(st.sampled_from(TOKEN_SOUP + STRAY), max_size=2)):
        parts.insert(draw(st.integers(0, len(parts))), extra)
    return "".join(draw(st.sampled_from(SPACES)) + part for part in parts + [""])


class TestParser:
    def test_precedence_worked_example(self):
        assert ic.parse_formula("a & ~b | c") == ic.Or(ic.And(A, ic.Not(B)), C)

    def test_and_binds_tighter_than_or(self):
        assert ic.parse_formula("a | b & c") == ic.Or(A, ic.And(B, C))

    def test_implication_is_loosest_and_right_associative(self):
        assert ic.parse_formula("a -> b -> c") == ic.Implies(A, ic.Implies(B, C))
        assert ic.parse_formula("a | b -> c") == ic.Implies(ic.Or(A, B), C)

    def test_left_associative_chains(self):
        assert ic.parse_formula("a & b & c") == ic.And(ic.And(A, B), C)
        assert ic.parse_formula("a | b | c") == ic.Or(ic.Or(A, B), C)

    def test_parentheses_and_negation(self):
        assert ic.parse_formula("~(a | b)") == ic.Not(ic.Or(A, B))
        assert ic.parse_formula("~~a") == ic.Not(ic.Not(A))

    def test_constants(self):
        assert ic.parse_formula("true") is ic.TRUE
        assert ic.parse_formula("false") is ic.FALSE

    def test_identifiers(self):
        f = ic.parse_formula("rain_2 & Wet")
        assert f == ic.And(ic.Atom("rain_2"), ic.Atom("Wet"))

    @pytest.mark.parametrize(
        "text",
        ["", "a &", "(a", "a b", "a $ b", "& a", "a -> ", "~", "a ~ b", "1a"],
    )
    def test_syntax_errors_carry_positions(self, text):
        with pytest.raises(ic.FormulaSyntaxError) as err:
            ic.parse_formula(text)
        assert err.value.position >= 0

    @pytest.mark.parametrize(
        "text, message, position",
        [
            ("", "unexpected end of input", 0),
            ("a &", "unexpected end of input", 3),
            ("(a", "expected ')'", 2),
            ("a b", "unexpected 'b'", 2),
            ("a $ b", "unexpected character '$'", 2),
            ("& a", "unexpected '&'", 0),
            ("a -> ", "unexpected end of input", 5),
            ("~", "unexpected end of input", 1),
            ("a ~ b", "unexpected '~'", 2),
            ("1a", "unexpected character '1'", 0),
            (")", "unexpected ')'", 0),
            ("a)", "unexpected ')'", 1),
            ("(a b", "expected ')'", 3),
            ("((a)", "expected ')'", 4),
            ("()", "unexpected ')'", 1),
            ("(a &)", "unexpected ')'", 4),
            ("a -> -> b", "unexpected '->'", 5),
            ("a - b", "unexpected character '-'", 2),
            # The whole text is scanned for bad characters first.
            (")->$", "unexpected character '$'", 3),
        ],
    )
    def test_syntax_error_messages(self, text, message, position):
        with pytest.raises(ic.FormulaSyntaxError) as err:
            ic.parse_formula(text)
        assert str(err.value) == f"{message} (at position {position})"
        assert err.value.position == position

    @given(st.lists(st.sampled_from(TOKEN_SOUP)).map("".join))
    def test_any_text_parses_or_raises_a_syntax_error(self, text):
        try:
            f = ic.parse_formula(text)
        except ic.FormulaSyntaxError:
            return
        assert ic.parse_formula(ic.format_formula(f)) is f

    @settings(max_examples=300)
    @given(soup_texts())
    def test_agrees_with_the_match_object_parser(self, text):
        # The same node, or the same message at the same position.
        definitions = {"x_1": ic.And(A, B)}
        try:
            expected = reference_parse_formula(text, definitions)
        except ic.FormulaSyntaxError as err:
            with pytest.raises(ic.FormulaSyntaxError) as got:
                ic.parse_formula(text, definitions)
            assert (str(got.value), got.value.position) == (str(err), err.position)
        else:
            assert ic.parse_formula(text, definitions) is expected

    def test_no_normalisation(self):
        assert ic.parse_formula("a & b") != ic.parse_formula("b & a")
        assert ic.parse_formula("~~a") != A

    def test_structural_equality_and_hashing(self):
        assert ic.parse_formula("a & (b | c)") == ic.And(A, ic.Or(B, C))
        assert hash(ic.parse_formula("a -> b")) == hash(ic.Implies(A, B))


class TestInterning:
    def test_equal_nodes_are_one_object(self):
        assert ic.And(A, B) is ic.And(A, B)
        assert ic.parse_formula("a -> ~b") is ic.Implies(A, ic.Not(B))

    @given(formulas_st)
    def test_round_trip_is_identity(self, f):
        assert ic.parse_formula(ic.format_formula(f)) is f

    def test_operands_must_be_formulas(self):
        with pytest.raises(TypeError) as info:
            ic.And(1, 2)
        assert str(info.value) == "bad operands for And: (1, 2)"

    def test_threads_get_one_node_per_formula(self):
        # Threads race to build the same new formulas; a lost race would
        # hand two threads different nodes for one formula.
        names = [f"race{i}" for i in range(300)]

        def build():
            return [ic.Or(ic.Atom(n), ic.Not(ic.Atom(n))) for n in names]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                futures = [pool.submit(build) for _ in range(8)]
                results = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for nodes in results[1:]:
            assert all(a is b for a, b in zip(nodes, results[0]))

    def test_threads_rebuilding_dropped_formulas_get_one_node_each(self):
        # Each round rebuilds formulas whose nodes the last round dropped.
        # Every atom's key starts with a dead entry, as when a node has
        # died and its callback has not run yet: the lock-free lookup
        # finds it, and the threads must settle on one node under the lock.
        names = [f"reborn{i}" for i in range(100)]

        def build():
            return [ic.Or(ic.Atom(n), ic.Not(ic.Atom(n))) for n in names]

        def plant_dead_entries():
            for n in names:
                victim = ic.Atom(n)
                stale = logic._Entry(victim)
                stale.key = (ic.Atom, n)
                del victim
                logic._nodes[stale.key] = stale
                assert stale() is None

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                for _ in range(20):
                    plant_dead_entries()
                    futures = [pool.submit(build) for _ in range(8)]
                    results = [future.result(timeout=60) for future in futures]
                    for f, *others in zip(*results):
                        assert all(g is f for g in others)
                        assert logic._nodes[(ic.Or, *f.args)]() is f
                        assert logic._nodes[(ic.Atom, f.args[0].name)]() is f.args[0]
                    del futures, results, f, others
                    gc.collect()
                    assert not any((ic.Atom, n) in logic._nodes for n in names)
        finally:
            sys.setswitchinterval(interval)

    def test_dropped_nodes_leave_the_table(self):
        text = (DATA / "fixpoint.kb").read_text()
        gc.collect()
        before = len(logic._nodes)
        kbs = [ic.parse_kb(text) for _ in range(3)]
        assert len(logic._nodes) > before
        del kbs
        gc.collect()
        assert len(logic._nodes) == before

    def test_a_node_built_after_its_predecessor_died_is_interned(self):
        key = (ic.Atom, "reborn")
        f = ic.parse_formula("reborn & ~reborn")
        del f
        gc.collect()
        assert key not in logic._nodes
        again = ic.parse_formula("reborn & ~reborn")
        assert again is ic.And(ic.Atom("reborn"), ic.Not(ic.Atom("reborn")))
        # A predecessor's callback that runs late leaves a live entry alone.
        entry = logic._nodes[key]
        logic._forget(entry)
        assert logic._nodes[key] is entry and ic.Atom("reborn") is entry()

    def test_shared_subterm_walked_once(self):
        assert len(list(ic.subformulas(ic.parse_formula("a & a")))) == 2

    def test_atom_names_still_checked(self):
        with pytest.raises(ValueError):
            ic.Atom("1x")

    @pytest.mark.parametrize("name", ["true", "false"])
    def test_constants_name_no_atom(self, name):
        # Atom("true") would render as `true`, which parses as the constant.
        with pytest.raises(ValueError, match="bad atom name"):
            ic.Atom(name)
        assert not is_name(name) and is_name(name + "_") and not is_name("1" + name)

    def test_deep_formula_needs_no_recursion(self):
        f = A
        for _ in range(10**4):
            f = ic.Not(ic.And(f, B))
        space = ic.SampleSpace.uniform(3)
        env = {"a": points(space, [0, 1]), "b": points(space, [1, 2])}
        # ~(x & b) is true where b is false and ~x where b holds, so the
        # 10^4 negations leave f true at point 0 and equal to a elsewhere.
        truth = points(space, [0, 1])
        assert ic.incidence_of(f, env, space) == truth
        assert ic.format_formula(f) == "~(" * 10**4 + "a & b" + ") & b" * (10**4 - 1) + ")"
        assert ic.parse_formula(ic.format_formula(f)) is f
        assert len(list(ic.subformulas(f))) == 2 * 10**4 + 2
        assignment = ic.BoundAssignment(space)
        assignment.declare(f, upper=truth)
        for name, inc in env.items():
            assignment.declare(ic.Atom(name), inc, inc)
        for mode in ("fixpoint", "complete"):
            outcome = ic.propagate(assignment, mode)
            assert outcome.ok and outcome.final.bounds(f) == (truth, truth)


class TestPrinter:
    @pytest.mark.parametrize(
        "text",
        [
            "a",
            "true",
            "~a",
            "a & b",
            "a & b & c",
            "a & (b & c)",
            "a & ~b | c",
            "~(a | b)",
            "a -> b -> c",
            "(a -> b) -> c",
            "(a | b) & c",
            "a | b -> ~c",
        ],
    )
    def test_canonical_text_is_stable(self, text):
        assert ic.format_formula(ic.parse_formula(text)) == text

    @given(formulas_st)
    def test_round_trip(self, f):
        assert ic.parse_formula(ic.format_formula(f)) == f

    @given(st.lists(formulas_st, min_size=1, max_size=6), st.randoms(use_true_random=False))
    def test_many_nodes_render_as_each_alone(self, roots, rng):
        # Subterms shared between the requested nodes, requested nodes
        # that sit below other requested nodes, and repeats.
        nodes = [g for f in roots for g in ic.subformulas(f) if rng.random() < 0.5] + roots
        rng.shuffle(nodes)
        texts = format_formulas(nodes)
        assert texts == [ic.format_formula(f) for f in nodes]
        assert all(ic.parse_formula(text) is f for text, f in zip(texts, nodes))

    @given(st.lists(formulas_st, min_size=1, max_size=4))
    def test_text_up_to_the_limit_renders_and_one_character_more_is_refused(self, nodes):
        texts = format_formulas(nodes)
        total = sum(map(len, texts))
        with mock.patch.object(logic, "MAX_TEXT", total):
            assert format_formulas(nodes) == texts
        with mock.patch.object(logic, "MAX_TEXT", total - 1):
            with pytest.raises(ic.InstanceTooLargeError):
                format_formulas(nodes)

    def test_the_refusal_names_the_sentence_by_position_and_length(self, monkeypatch):
        f = ic.parse_formula("(a | b) & ~c")  # 12 characters
        monkeypatch.setattr(logic, "MAX_TEXT", 23)
        with pytest.raises(ic.InstanceTooLargeError) as err:
            format_formulas([f, f])
        assert str(err.value) == (
            "sentence 2 of 2 renders as 12 characters,"
            " taking the text past the limit of 23 characters"
        )

    def test_repr_past_the_limit_names_the_length(self, monkeypatch):
        f = ic.parse_formula("(a | b) & ~c")  # 12 characters
        monkeypatch.setattr(logic, "MAX_TEXT", 12)
        assert repr(f) == "parse_formula('(a | b) & ~c')"
        monkeypatch.setattr(logic, "MAX_TEXT", 11)
        assert repr(f) == "<a sentence of 12 characters, too long to render>"
        with pytest.raises(ic.InstanceTooLargeError):
            ic.format_formula(f)

    def test_repr_of_a_deep_chain_is_immediate(self):
        # Each level uses the one below twice, so d40's text would be
        # terabytes; repr counts it without building it.
        d = ic.Atom("a")
        for _ in range(40):
            d = ic.Or(ic.And(d, ic.Atom("b")), ic.Not(d))
        assert re.fullmatch(r"<a sentence of \d{13,} characters, too long to render>", repr(d))


@pytest.fixture
def ten_point():
    space = ic.SampleSpace.uniform(10)
    env = {"a": points(space, range(5)), "b": points(space, range(3, 7))}
    return space, env


class TestIncidenceOf:
    def test_conjunction_worked_example(self, ten_point):
        space, env = ten_point
        inc = ic.incidence_of(ic.parse_formula("a & b"), env, space)
        assert inc == points(space, [3, 4])

    def test_negation_worked_example(self, ten_point):
        space, env = ten_point
        inc = ic.incidence_of(ic.parse_formula("~a"), env, space)
        assert inc == points(space, range(5, 10))

    def test_disjunction_and_implication(self, ten_point):
        space, env = ten_point
        assert ic.incidence_of(ic.parse_formula("a | b"), env, space) == points(space, range(7))
        assert ic.incidence_of(ic.parse_formula("a -> b"), env, space) == points(
            space, range(3, 10)
        )

    def test_constants(self, ten_point):
        space, env = ten_point
        assert ic.incidence_of(ic.TRUE, env, space) == space.full()
        assert ic.incidence_of(ic.FALSE, env, space) == ic.Incidence.empty(space.size)

    def test_unbound_atom(self, ten_point):
        space, env = ten_point
        with pytest.raises(ic.UnboundAtomError, match="zzz"):
            ic.incidence_of(ic.Atom("zzz"), env, space)

    def test_width_mismatch(self, ten_point):
        space, _ = ten_point
        with pytest.raises(ic.WidthMismatchError):
            ic.incidence_of(A, {"a": ic.Incidence.empty(4)}, space)


class TestHoldsAt:
    def test_pointwise_worked_example(self, ten_point):
        _, env = ten_point
        f = ic.parse_formula("a & b")
        assert holds_at(f, 3, env) is True
        assert holds_at(f, 0, env) is False

    def test_constant_holds_everywhere(self, ten_point):
        _, env = ten_point
        assert all(holds_at(ic.TRUE, j, env) for j in range(10))

    def test_point_range_checked(self, ten_point):
        _, env = ten_point
        with pytest.raises(ValueError, match="out of range"):
            holds_at(A, 10, env)
        with pytest.raises(ValueError):
            holds_at(A, -1, env)
        narrow = {"a": ic.Incidence.empty(5), "b": ic.Incidence.empty(1)}
        with pytest.raises(ValueError, match="out of range"):
            holds_at(B, 4, narrow)

    @settings(max_examples=80)
    @given(formulas_st, st.integers(0, 2**32))
    def test_agrees_with_incidence_of(self, f, seed):
        rng = random.Random(seed)
        width = rng.randint(1, 16)
        space = random_space(rng, width)
        env = random_env(rng, ATOMS, width)
        expected = points(space, [j for j in range(width) if holds_at(f, j, env)])
        assert ic.incidence_of(f, env, space) == expected


class TestHelpers:
    def test_atom_names(self):
        assert atom_names(ic.parse_formula("a & (b -> ~a) | true")) == {"a", "b"}

    def test_subformulas_preorder(self):
        f = ic.parse_formula("a & ~b")
        assert list(ic.subformulas(f)) == [f, A, ic.Not(B), B]

    def test_subformulas_of_several_roots(self):
        f, g = ic.parse_formula("a & ~b"), ic.parse_formula("~b | c")
        assert list(ic.subformulas(f, g)) == [f, A, ic.Not(B), B, g, ic.Atom("c")]

    def test_random_formula_generator_is_valid(self):
        rng = random.Random(5)
        for _ in range(50):
            f = random_formula(rng, ATOMS, 4)
            assert ic.parse_formula(ic.format_formula(f)) == f
