from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import incalc as ic
from incalc import space as space_module
from helpers import ATOMS

DATA = Path(__file__).parent / "data"


class TestParseKB:
    def test_example_file(self):
        kb = ic.parse_kb((DATA / "example.kb").read_text())
        assert kb.space == ic.SampleSpace.uniform(10)
        assert kb.incidences["a"] == kb.space.incidence([0, 1, 2, 3, 4])
        assert kb.incidences["b"] == kb.space.incidence([3, 4, 5, 6])
        [(target, low, high)] = kb.bounds
        assert target == ic.parse_formula("a & b")
        assert low == kb.space.incidence([3])
        assert high == kb.space.incidence([0, 1, 2, 3, 4, 5, 6])
        assert kb.formulas["claim"] == ic.parse_formula("a -> b")
        assert [q.kind for q in kb.queries] == ["prob", "cond", "corr"]

    def test_weighted_space(self):
        kb = ic.parse_kb("space weights 1/2 1/4 1/4\ninc a = 101\n")
        assert kb.space.weights == (F(1, 2), F(1, 4), F(1, 4))
        assert not kb.space.is_uniform

    def test_comments_and_blank_lines(self):
        kb = ic.parse_kb("\n# header\nspace 4   # four points\n\ninc a = {0}\n")
        assert kb.space.size == 4

    def test_incidence_spellings_agree(self):
        kb = ic.parse_kb("space 4\ninc a = 0110\ninc b = {1,2}\n")
        assert kb.incidences["a"] == kb.incidences["b"]

    def test_alias_expansion(self):
        kb = ic.parse_kb(
            "space 4\n"
            "formula wet = rain & ~roof\n"
            "formula bad = wet | storm\n"
            "query prob bad\n"
        )
        assert kb.formulas["bad"] == ic.parse_formula("(rain & ~roof) | storm")
        assert kb.queries[0].f == kb.formulas["bad"]

    def test_alias_is_not_retroactive(self):
        kb = ic.parse_kb(
            "space 2\n"
            "query prob wet\n"
            "formula wet = rain\n"
        )
        assert kb.queries[0].f == ic.Atom("wet")

    def test_cond_and_corr_query_shapes(self):
        kb = ic.parse_kb(
            "space 4\n"
            "query cond a & b given b\n"
            "query corr a | b , ~b\n"
        )
        cond, corr = kb.queries
        assert (cond.f, cond.g) == (ic.parse_formula("a & b"), ic.Atom("b"))
        assert (corr.f, corr.g) == (ic.parse_formula("a | b"), ic.parse_formula("~b"))

    @pytest.mark.parametrize(
        "text, lineno, fragment",
        [
            ("inc a = 10\n", 1, "space must be declared"),
            ("space 2\nspace 3\n", 2, "duplicate space"),
            ("", None, "no space declaration"),
            ("space 2\ninc a = 10\ninc a = 01\n", 3, "duplicate incidence"),
            ("space 2\nformula f = a\ninc f = 10\n", 3, "already names a formula"),
            ("space 2\ninc f = 10\nformula f = a\n", 3, "already names an incidence"),
            ("space 2\nformula f = a\nformula f = b\n", 3, "duplicate formula"),
            ("space 2\nformula f = f & a\n", 2, "refers to itself"),
            ("space 2\nguess a = 10\n", 2, "unknown directive"),
            ("space 2\ninc a = 101\n", 2, "length 3"),
            ("space 2\ninc a = {5}\n", 2, "out of range"),
            ("space weights 1/2 1/3\n", 1, "sum to 1"),
            ("space 2\nbounds a inf 10\n", 2, "expected `bounds"),
            ("space 2\nquery prob a &\n", 2, None),
            ("space 2\nquery cond a b\n", 2, "given"),
            ("space 2\nquery corr a b\n", 2, ","),
            ("space 2\nquery guess a\n", 2, "prob|cond|corr"),
            ("space x\n", 1, None),
            ("space 1/2\n", 1, "space size must be a whole number, got '1/2'"),
            ("space 2.5\n", 1, "space size must be a whole number, got '2.5'"),
            # Atom names are ASCII: [A-Za-z][A-Za-z0-9_]*.
            ("space 4\ninc a\u00e9 = 0101\n", 2, "expected `inc"),
            ("space 4\ninc a = 0101\nformula c\u00e9 = a\n", 3, "expected `formula"),
            ("space 4\nbounds a\u00e9 inf {} sup {0}\n", 2, "unexpected character"),
        ],
    )
    def test_rejected(self, text, lineno, fragment):
        with pytest.raises(ic.KBError) as info:
            ic.parse_kb(text)
        if lineno is not None:
            assert info.value.line == lineno
        if fragment is not None:
            assert fragment in str(info.value)

    @pytest.mark.parametrize(
        "weights, error, space",
        [
            ("1/0 1", "line 1: not a rational number: '1/0'", None),
            ("0/0 1", "line 1: not a rational number: '0/0'", None),
            ("1/0_0 1", "line 1: not a rational number: '1/0_0'", None),
            ("-1/2 3/2", "line 1: weights must be non-negative", None),
            ("3/2 -1/2", "line 1: weights must be non-negative", None),
            ("x 1", "line 1: not a rational number: 'x'", None),
            ("0x1 0", "line 1: not a rational number: '0x1'", None),
            ("1/ 1", "line 1: not a rational number: '1/'", None),
            ("/2 1/2", "line 1: not a rational number: '/2'", None),
            ("1 / 2", "line 1: not a rational number: '/'", None),
            ("1/-2 1/2", "line 1: not a rational number: '1/-2'", None),
            ("1/2 1/+2", "line 1: not a rational number: '1/+2'", None),
            ("1/2/3 1", "line 1: not a rational number: '1/2/3'", None),
            ("1.5/3 1/2", "line 1: not a rational number: '1.5/3'", None),
            ("\u00b2/4 1/2", "line 1: not a rational number: '\u00b2/4'", None),
            ("1/3 1/3 1/4", "line 1: weights must sum to 1, got 11/12", None),
            ("0 0", "line 1: weights must sum to 1, got 0", None),
            ("1/2 1/2", None, "SampleSpace.uniform(2)"),
            ("2/4 2/4", None, "SampleSpace.uniform(2)"),
            ("1/02 1/2", None, "SampleSpace.uniform(2)"),
            ("0.5 0.5", None, "SampleSpace.uniform(2)"),
            ("+1/2 1/2", None, "SampleSpace.uniform(2)"),
            ("1_0/20 1/2", None, "SampleSpace.uniform(2)"),
            ("\u0663/6 1/2", None, "SampleSpace.uniform(2)"),
            ("1e-1 9/10", None, "SampleSpace((Fraction(1, 10), Fraction(9, 10)))"),
            ("1 0", None, "SampleSpace((Fraction(1, 1), Fraction(0, 1)))"),
            ("00/1 1/1", None, "SampleSpace((Fraction(0, 1), Fraction(1, 1)))"),
            ("-0 1", None, "SampleSpace((Fraction(0, 1), Fraction(1, 1)))"),
        ],
    )
    def test_space_weights_spellings(self, weights, error, space):
        # Results recorded from the regex-parsed `Fraction` reading of
        # each entry; the int fast path must not change any of them, and
        # the library constructor must read every spelling as the KB does.
        if error is None:
            assert repr(ic.parse_kb(f"space weights {weights}\n").space) == space
            assert repr(ic.SampleSpace(weights.split())) == space
        else:
            with pytest.raises(ic.KBError) as info:
                ic.parse_kb(f"space weights {weights}\n")
            assert str(info.value) == error
            with pytest.raises(ValueError) as info:
                ic.SampleSpace(weights.split())
            assert f"line 1: {info.value}" == error

    def test_space_size_is_read_like_any_number(self):
        for text in ("12", "1_2", "12/1", "24/2", "1.2e1", "+12"):
            assert ic.parse_kb(f"space {text}\n").space == ic.SampleSpace.uniform(12)

    def test_width_limit_names_the_line(self, monkeypatch):
        with pytest.raises(ic.KBError, match="line 2: size must be <= 100000000, got 10000000000"):
            ic.parse_kb("# a space that fits an index but not memory\nspace 10000000000\n")
        monkeypatch.setattr(space_module, "MAX_WIDTH", 2)
        with pytest.raises(ic.KBError, match="line 1: size must be <= 2, got 3"):
            ic.parse_kb("space weights 1/3 1/3 1/3\n")

    def test_parenthesised_bounds_target(self):
        kb = ic.parse_kb("space 2\nbounds (a & b) inf {} sup {0}\n")
        [(target, _, _)] = kb.bounds
        assert target == ic.parse_formula("a & b")

    def test_bare_compound_bounds_target_also_accepted(self):
        kb = ic.parse_kb("space 2\nbounds a -> b inf {} sup {0}\n")
        [(target, _, _)] = kb.bounds
        assert target == ic.parse_formula("a -> b")


class TestKnowledgeBase:
    def test_environment_is_a_copy(self):
        kb = ic.parse_kb("space 2\ninc a = 10\n")
        env = kb.environment()
        env["b"] = kb.space.empty()
        assert "b" not in kb.incidences

    def test_initial_assignment_structure(self):
        kb = ic.parse_kb((DATA / "example.kb").read_text())
        assignment = kb.initial_assignment()
        a, b = ic.Atom("a"), ic.Atom("b")
        for atom in (a, b):
            assert assignment.bounds(atom) == (kb.incidences[atom.name],) * 2
        conj = ic.parse_formula("a & b")
        assert assignment.bounds(conj)[0] == kb.space.incidence([3])
        claim = kb.formulas["claim"]
        assert assignment.bounds(claim) == (kb.space.empty(), kb.space.full())

    def test_resolve_uses_definitions(self):
        kb = ic.parse_kb("space 2\nformula f = a & b\n")
        assert kb.resolve("~f") == ic.parse_formula("~(a & b)")

    def test_long_definition_chain_is_shared(self):
        # Each level uses the one below twice, so the text of d40 would
        # hold 2^40 copies of d0; dump is skipped for that reason.
        levels = "".join(
            f"formula d{i} = (d{i - 1} & b) | ~d{i - 1}\n" for i in range(1, 41)
        )
        kb = ic.parse_kb(
            "space 4\ninc b = 1010\nformula d0 = a -> c\n"
            + levels
            + "bounds d40 inf {0} sup {0,1,2}\n"
        )
        assignment = kb.initial_assignment()
        top = kb.formulas["d40"]
        assert len(assignment) == 3 * 40 + 4
        assert set(assignment) == set(ic.subformulas(top))
        # d_i is b | ~d_(i-1): at point 3, outside b, d40 = d0 is false.
        for mode in ("fixpoint", "complete"):
            outcome = ic.propagate(assignment, mode)
            assert outcome.ok
            assert 3 not in outcome.final.bounds(kb.formulas["d0"])[1]


class TestKBFragment:
    def test_uniform_round_trip(self):
        space = ic.SampleSpace.uniform(3)
        env = {"a": space.incidence([0, 2])}
        text = ic.kb_fragment(space, env)
        assert text == "space 3\ninc a = 101"
        back = ic.parse_kb(text)
        assert back.space == space and back.incidences == env

    def test_weighted_round_trip(self):
        space = ic.SampleSpace((F(2, 5), F(1, 5), F(2, 5)))
        env = {"rain": space.incidence([0, 1]), "wet": space.incidence([0])}
        back = ic.parse_kb(ic.kb_fragment(space, env))
        assert back.space == space and back.incidences == env

    @pytest.mark.parametrize(
        "space_line, rendered",
        [
            ("space weights 1/2 1/2", "space 2"),
            ("space weights 2/6 1/3 1/3", "space 3"),
            ("space weights 1", "space 1"),
            ("space weights 2/10 4/10 0.4", "space weights 1/5 2/5 2/5"),
            ("space weights 0 6/8 1/4", "space weights 0 3/4 1/4"),
            ("space weights 3/8 3/8 1/4", "space weights 3/8 3/8 1/4"),
        ],
    )
    def test_space_line_round_trip(self, space_line, rendered):
        points = len(space_line.split()) - 2
        text = f"{space_line}\ninc a = {'1' * points}\n"
        space = ic.parse_kb(text).space
        fragment = ic.kb_fragment(space, {"a": space.full()})
        assert fragment == f"{rendered}\ninc a = {'1' * points}"
        assert ic.parse_kb(fragment).space == space

    @pytest.mark.parametrize(
        "rows, rendered",
        [
            ("1 0\n1 0\n0 1\n1 0\n", "space weights 3/4 1/4\ninc a = 10\ninc b = 01"),
            ("1 0\n0 0\n1 1\n0 0\n1 0\n0 0\n",
             "space weights 1/3 1/2 1/6\ninc a = 101\ninc b = 001"),
            ("1 0\n0 0\n0 0\n1 0\n", "space 2\ninc a = 10\ninc b = 00"),
        ],
    )
    def test_ingest_output_renders_reduced_weights(self, rows, rendered):
        table = ic.RecordTable.from_text("a b\n" + rows)
        assert ic.kb_fragment(*ic.incidences_from_records(table)) == rendered

    @given(
        st.lists(st.sampled_from(ATOMS), min_size=1, max_size=4, unique=True).flatmap(
            lambda columns: st.tuples(
                st.just(tuple(columns)),
                st.lists(st.tuples(*[st.booleans()] * len(columns)), min_size=1, max_size=40),
            )
        )
    )
    def test_ingest_output_parses_back(self, table):
        columns, rows = table
        space, env = ic.incidences_from_records(ic.RecordTable(columns, tuple(rows)))
        back = ic.parse_kb(ic.kb_fragment(space, env))
        assert back.space == space and back.incidences == env

    @given(st.data())
    def test_sample_output_parses_back(self, data):
        probability = st.fractions(0, 1, max_denominator=12)
        names = data.draw(st.lists(st.sampled_from(ATOMS), min_size=1, max_size=4, unique=True))
        marginals = {name: data.draw(probability) for name in names}
        inside = [name for name in names if 0 < marginals[name] < 1]
        pairs = [(x, y) for i, x in enumerate(inside) for y in inside[i + 1 :]]
        chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        correlations = {pair: data.draw(st.fractions(-1, 1, max_denominator=8)) for pair in chosen}
        size = data.draw(st.integers(1, 120))
        spec = ic.TargetSpec(marginals, size, correlations, seed=data.draw(st.integers(0, 99)))
        try:
            space, env = ic.incidences_from_probabilities(spec)
        except ic.InfeasibleTargetError:
            assume(False)
        back = ic.parse_kb(ic.kb_fragment(space, env))
        assert back.space == space and back.incidences == env
