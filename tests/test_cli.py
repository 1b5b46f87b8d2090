import argparse
import contextlib
import io
import random
import shlex
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import incalc as ic
from incalc import cli
from incalc import kb as kb_module
from incalc.cli import main
from incalc.construct import _overlap_count
from incalc.rational import round_half_up

from helpers import shuffled_worklist

DATA = Path(__file__).parent / "data"
ROOT = Path(__file__).parent.parent


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def golden(name):
    return (DATA / name).read_text()


def readme_examples():
    """Each `$ incalc ...` example in README.md with the indented output
    lines that follow it."""
    examples, lines = [], (ROOT / "README.md").read_text().splitlines()
    for k, line in enumerate(lines):
        if line.startswith("    $ incalc "):
            shown = []
            for after in lines[k + 1 :]:
                if not after.startswith("    "):
                    break
                shown.append(after[4:])
            examples.append(pytest.param(shlex.split(line[13:]), shown, id=line[13:]))
    return examples


class TestEval:
    def test_matches_golden(self, capsys):
        code, out, err = run(capsys, "eval", DATA / "example.kb", "-f", "a & b")
        assert code == 0 and err == ""
        assert out == golden("example_eval.golden")

    def test_alias_resolves(self, capsys):
        code, out, _ = run(capsys, "eval", DATA / "example.kb", "-f", "claim")
        assert code == 0
        assert out.splitlines()[0] == "0001111111"

    def test_unbound_atom_is_a_data_error(self, capsys):
        code, out, err = run(capsys, "eval", DATA / "example.kb", "-f", "a & zzz")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "zzz" in err

    def test_syntax_error_reports_position(self, capsys):
        code, _, err = run(capsys, "eval", DATA / "example.kb", "-f", "a &")
        assert code == 2
        assert "position" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "eval", DATA / "no_such.kb", "-f", "a")
        assert code == 2 and err.startswith("error:")

    def test_a_read_error_names_the_path_as_typed(self, capsys, monkeypatch):
        monkeypatch.chdir(DATA)
        code, out, err = run(capsys, "solve", "./missing.kb")
        assert (code, out) == (2, "")
        assert err == "error: [Errno 2] No such file or directory: './missing.kb'\n"

    def test_huge_width_is_a_data_error(self, capsys, tmp_path):
        # Refused while parsing the space line, before any point exists.
        kb = tmp_path / "huge.kb"
        kb.write_text("space 99999999999999999999\n")
        code, out, err = run(capsys, "eval", kb, "-f", "a")
        assert code == 2 and out == ""
        assert err.startswith("error: line 1: size must be <=")

    @pytest.mark.parametrize(
        "formula, truth",
        [
            ("~" * 10**5 + "a", "a"),
            ("(" * 10**5 + "a" + ")" * 10**5, "a"),
            (" -> ".join(["a"] * 10**5), "true"),
            (" -> ".join(["(a)"] * 10**5), "true"),
        ],
        ids=["negations", "parentheses", "implications", "parenthesised-implications"],
    )
    def test_deep_nesting_works(self, capsys, formula, truth):
        # 10^5 negations cancel out; a -> ... -> a holds everywhere.
        code, out, err = run(capsys, "eval", DATA / "example.kb", "-f", formula)
        _, expected, _ = run(capsys, "eval", DATA / "example.kb", "-f", truth)
        assert code == 0 and err == ""
        assert out == expected


class TestQuery:
    def test_matches_golden(self, capsys):
        code, out, err = run(capsys, "query", DATA / "example.kb")
        assert code == 0 and err == ""
        assert out == golden("example_query.golden")

    def test_many_distinct_byte_weights_match_golden(self, capsys):
        # 300 points whose numerators take 182 distinct values below 256.
        # The golden was recorded from the per-point sum, which weighed
        # every space with more than 64 distinct numerators.
        code, out, err = run(capsys, "query", DATA / "weighted_query.kb")
        assert code == 0 and err == ""
        assert out == golden("weighted_query.golden")

    def test_degenerate_correlation_is_a_data_error(self, capsys, tmp_path):
        kb = tmp_path / "degenerate.kb"
        kb.write_text(
            "space 2\ninc a = 11\ninc b = 10\nquery corr a , b\n"
        )
        code, _, err = run(capsys, "query", kb)
        assert code == 2 and "correlation" in err

    def test_an_atom_named_given_may_open_a_cond_query(self, capsys, tmp_path):
        kb = tmp_path / "given.kb"
        kb.write_text(
            "space 2\ninc given = 10\ninc a = 11\n"
            "query cond given given a\nquery cond a given given\n"
        )
        code, out, err = run(capsys, "query", kb)
        assert (code, err) == (0, "")
        assert out == "cond given given a = 1/2 (= 0.5)\ncond a given given = 1\n"

    @pytest.mark.parametrize("gap", ["\t", "  "], ids=["tab", "two-spaces"])
    @pytest.mark.parametrize(
        "kind, rest", [("prob", "a & b"), ("cond", "a given b"), ("corr", "a , b")]
    )
    def test_any_whitespace_may_follow_the_kind(self, capsys, tmp_path, gap, kind, rest):
        outputs = []
        for sep in (" ", gap):
            kb = tmp_path / f"{len(outputs)}.kb"
            kb.write_text(f"space 4\ninc a = 0110\ninc b = 0011\nquery {kind}{sep}{rest}\n")
            outputs.append(run(capsys, "query", kb))
        assert outputs[0][0] == 0 and outputs[1] == outputs[0]


class TestSolve:
    def test_example_matches_golden(self, capsys):
        code, out, err = run(capsys, "solve", DATA / "example.kb")
        assert code == 0 and err == ""
        assert out == golden("example_solve.golden")

    def test_tightening_matches_golden(self, capsys):
        code, out, _ = run(capsys, "solve", DATA / "tighten.kb")
        assert code == 0
        assert out == golden("tighten_solve.golden")

    def test_shared_definitions_match_golden(self, capsys):
        code, out, err = run(capsys, "solve", DATA / "chain.kb")
        assert code == 0 and err == ""
        assert out == golden("chain_solve.golden")

    @pytest.mark.parametrize("command", ["solve", "query"])
    def test_text_past_the_rendering_limit_exits_two_before_printing(
        self, command, capsys, tmp_path
    ):
        # The KB of tests/test_kb.py::test_long_definition_chain_is_shared:
        # the text of d40 would hold 2^40 copies of d0.
        levels = "".join(f"formula d{i} = (d{i - 1} & b) | ~d{i - 1}\n" for i in range(1, 41))
        path = tmp_path / "chain40.kb"
        path.write_text(
            "space 4\ninc b = 1010\nformula d0 = a -> c\n"
            + levels
            + "bounds d40 inf {0} sup {0,1,2}\ninc a = 0011\ninc c = 0101\nquery prob d40\n"
        )
        start = time.perf_counter()
        code, out, err = run(capsys, command, path)
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        position = "4 of 124" if command == "solve" else "1 of 1"
        assert err == (
            f"error: sentence {position} renders as 19791209299956 characters,"
            " taking the text past the limit of 67108864 characters\n"
        )

    def test_fixpoint_scale_matches_golden(self, capsys):
        # 303 registered sentences at width 32, shared chains included.
        # The output was recorded from the Incidence-based loop that the
        # int-array core replaced.  The step counts (default worklist
        # order, children first, then three shuffled ones) are those of
        # one update per node, each bound it changes counting once.
        code, out, err = run(capsys, "solve", DATA / "fixpoint.kb")
        assert code == 0 and err == ""
        assert out == golden("fixpoint_solve.golden")
        assignment = ic.parse_kb((DATA / "fixpoint.kb").read_text()).initial_assignment()
        assert len(assignment) == 303
        assert ic.propagate(assignment).steps == 1072
        shuffled = []
        for seed in range(3):
            with shuffled_worklist(seed):
                shuffled.append(ic.propagate(assignment).steps)
        assert shuffled == [1208, 1242, 1217]

    def test_weighted_space_matches_golden(self, capsys):
        # Unequal weights, one zero, and many masks of one weight.  The
        # golden was recorded from the `dump` that weighed each distinct
        # mask through an `Incidence` and `weight_of`.
        code, out, err = run(capsys, "solve", DATA / "weighted.kb")
        assert code == 0 and err == ""
        assert out == golden("weighted_solve.golden")

    def test_width_past_memory_is_a_data_error(self, capsys, tmp_path):
        # Fits an index, but its first full mask would take 1.25 GB.
        kb = tmp_path / "wide.kb"
        kb.write_text("space 10000000000\n")
        code, out, err = run(capsys, "solve", kb)
        assert code == 2 and out == ""
        assert err == (
            "error: line 1: size must be <= 100000000, got 10000000000: its masks would not fit\n"
        )

    def test_contradiction_exits_one(self, capsys):
        code, out, err = run(capsys, "solve", DATA / "contradiction.kb")
        assert code == 1 and err == ""
        assert out == golden("contradiction_solve.golden")
        assert out.rstrip().splitlines()[-1] == "INCONSISTENT: a"

    @pytest.mark.parametrize("kb", ["chain", "fixpoint"])
    def test_complete_matches_golden(self, capsys, kb):
        # The exact envelope, which differs from the fixpoint's bounds on
        # both KBs.
        code, out, err = run(capsys, "solve", DATA / f"{kb}.kb", "--complete")
        assert code == 0 and err == ""
        assert out == golden(f"{kb}_complete.golden")

    def test_complete_contradiction_exits_one(self, capsys):
        code, out, err = run(capsys, "solve", DATA / "contradiction.kb", "--complete")
        assert code == 1 and err == ""
        assert out == golden("contradiction_complete.golden")
        assert out.rstrip().splitlines()[-1] == "INCONSISTENT: ~a"

    @pytest.mark.parametrize("mode", [[], ["--complete"]])
    def test_no_registered_sentence_prints_only_the_verdict(self, capsys, tmp_path, mode):
        kb = tmp_path / "empty.kb"
        kb.write_text("space 1\n")
        assert run(capsys, "solve", kb, *mode) == (0, "CONSISTENT\n", "")

    def test_complete_tightens_past_the_fixpoint(self, capsys, tmp_path):
        # Whether a holds at the single point is open, but both cases
        # force b there (one through the disjunction, one through the
        # implication), which only the exact envelope can see.
        kb = tmp_path / "gap.kb"
        kb.write_text(
            "space 1\n"
            "bounds (a | b) inf {0} sup {0}\n"
            "bounds (a -> b) inf {0} sup {0}\n"
        )
        code, plain, _ = run(capsys, "solve", kb)
        assert code == 0
        assert "b inf=0 sup=1" in plain
        code, complete, _ = run(capsys, "solve", kb, "--complete")
        assert code == 0
        assert "b inf=1 sup=1" in complete
        assert "a inf=0 sup=1" in complete

    def test_complete_flags_unsatisfiable_bounds(self, capsys, tmp_path):
        kb = tmp_path / "unsat.kb"
        kb.write_text(
            "space 1\n"
            "bounds (a | b) inf {0} sup {0}\n"
            "bounds (a & b) inf {} sup {}\n"
            "bounds (a -> b) inf {0} sup {0}\n"
            "bounds b inf {} sup {}\n"
        )
        code, out, _ = run(capsys, "solve", kb, "--complete")
        assert code == 1
        assert out.rstrip().splitlines()[-1].startswith("INCONSISTENT:")


@pytest.mark.parametrize("argv, shown", readme_examples())
def test_readme_example_matches_the_program(capsys, monkeypatch, argv, shown):
    # A "..." line stands for output left out of the README.
    monkeypatch.chdir(ROOT)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    printed = out.splitlines()
    if "..." in shown:
        cut = shown.index("...")
        head, tail = shown[:cut], shown[cut + 1 :]
        assert printed[: len(head)] == head and printed[len(printed) - len(tail) :] == tail
    else:
        assert printed == shown


class TestSample:
    def test_deterministic_and_seed_sensitive(self, capsys):
        code, first, err = run(capsys, "sample", DATA / "ab.targets", "--size", 50)
        assert code == 0 and err == ""
        _, again, _ = run(capsys, "sample", DATA / "ab.targets", "--size", 50)
        assert first == again
        _, reseeded, _ = run(
            capsys, "sample", DATA / "ab.targets", "--size", 50, "--seed", 1
        )
        assert reseeded != first

    def test_path_of_pairs_matches_golden(self, capsys):
        # Pairs a-b, b-c and c-d of mixed sign: b, c and d each move once,
        # and the fix-ups add points on some draws and remove them on
        # others.  The golden was recorded from the placement that listed
        # each fix-up pool point by point.
        code, out, err = run(
            capsys, "sample", DATA / "path.targets", "--size", 3000, "--seed", 17
        )
        assert code == 0 and err == ""
        assert out == golden("path_sample.golden")

    def test_output_is_a_parsable_kb(self, capsys):
        import incalc as ic

        code, out, _ = run(capsys, "sample", DATA / "ab.targets", "--size", 40)
        assert code == 0
        kb = ic.parse_kb(out)
        assert kb.space.size == 40
        assert kb.incidences["a"].count() == 20
        assert kb.incidences["b"].count() == 16

    def test_huge_size_is_a_data_error(self, capsys):
        code, out, err = run(capsys, "sample", DATA / "ab.targets", "--size", 10**20)
        assert code == 2 and out == ""
        assert err.startswith("error: size must be <=")

    def test_path_of_pairs_is_realised(self, capsys, tmp_path):
        # c is the second atom of both pairs: it moves against a, then b
        # moves against c, so both overlaps are met exactly.
        targets = tmp_path / "path.targets"
        targets.write_text(
            "prob a = 1/2\nprob b = 1/2\nprob c = 1/2\ncorr a c = 0.8\ncorr b c = -0.5\n"
        )
        code, out, err = run(capsys, "sample", targets, "--size", 100)
        assert (code, err) == (0, "")
        kb = ic.parse_kb(out)
        assert (kb.incidences["a"] & kb.incidences["c"]).count() == _overlap_count(
            50, 50, 100, Fraction(4, 5)
        )
        assert (kb.incidences["b"] & kb.incidences["c"]).count() == _overlap_count(
            50, 50, 100, Fraction(-1, 2)
        )
        corr = ic.correlation(ic.Atom("a"), ic.Atom("c"), kb.incidences, kb.space)
        assert (corr.sign, corr.c_squared) == (1, Fraction(16, 25))

    def test_triangle_exits_two_naming_its_closing_pair(self, capsys, tmp_path):
        targets = tmp_path / "triangle.targets"
        targets.write_text(
            "prob a = 1/2\nprob b = 1/2\nprob c = 1/2\n"
            "corr a b = 0.2\ncorr a c = 0.2\ncorr b c = 0.2\n"
        )
        code, out, err = run(capsys, "sample", targets, "--size", 100)
        assert (code, out) == (2, "")
        assert err == (
            "error: correlation for pair (b, c) closes a cycle of pairs;"
            " only pairs that form a forest can be placed\n"
        )

    def test_a_million_points_meet_every_count_and_the_pair(self, capsys, tmp_path):
        targets = tmp_path / "wide.targets"
        targets.write_text("prob a = 0.3\nprob b = 0.55\nprob c = 0.7\ncorr a c = -0.25\n")
        size = 10**6
        code, out, err = run(capsys, "sample", targets, "--size", size, "--seed", 4)
        assert (code, err) == (0, "")
        kb = ic.parse_kb(out)
        counts = {"a": 300000, "b": 550000, "c": 700000}
        assert {name: inc.count() for name, inc in kb.incidences.items()} == counts
        overlap = (kb.incidences["a"] & kb.incidences["c"]).count()
        assert overlap == _overlap_count(counts["a"], counts["c"], size, Fraction(-1, 4))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_every_pair_is_realised_or_the_exit_is_two(self, data):
        names = [f"a{i}" for i in range(data.draw(st.integers(3, 6), label="atoms"))]
        pairs = data.draw(
            st.lists(
                st.sampled_from([(x, y) for x in names for y in names if x < y]),
                min_size=1,
                unique=True,
            ),
            label="pairs",
        )
        size = data.draw(st.integers(4, 60), label="size")
        marginals = {name: Fraction(data.draw(st.integers(1, 9)), 10) for name in names}
        correlations = {pair: Fraction(data.draw(st.integers(-10, 10)), 10) for pair in pairs}
        text = "".join(f"prob {name} = {p}\n" for name, p in marginals.items()) + "".join(
            f"corr {x} {y} = {c}\n" for (x, y), c in correlations.items()
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "random.targets"
            path.write_text(text)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["sample", str(path), "--size", str(size)])
        # A forest of pairs is placed unless a pair is infeasible on its own.
        component = {name: {name} for name in names}
        forest = True
        for x, y in pairs:
            forest &= component[x] is not component[y]
            joined = component[x] | component[y]
            component.update(dict.fromkeys(joined, joined))
        if code == 2:
            assert err.getvalue().startswith("error: ") and out.getvalue() == ""
            if forest:
                assert "feasible range" in err.getvalue() or "degenerate" in err.getvalue()
            return
        assert code == 0 and forest, err.getvalue()
        kb = ic.parse_kb(out.getvalue())
        counts = {name: round_half_up(p * size) for name, p in marginals.items()}
        for (x, y), c in correlations.items():
            overlap = (kb.incidences[x] & kb.incidences[y]).count()
            assert overlap == _overlap_count(counts[x], counts[y], size, c), (x, y)

    def test_infeasible_targets_exit_two(self, capsys, tmp_path):
        targets = tmp_path / "bad.targets"
        targets.write_text("prob a = 0.9\nprob b = 0.9\ncorr a b = -1\n")
        code, _, err = run(capsys, "sample", targets, "--size", 10)
        assert code == 2 and "feasible range" in err


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("solve", "space 2\ninc true = 00\n", "line 2: 'true' is a constant"),
        ("solve", "space 2\nformula false = ~false\n", "line 2: 'false' is a constant"),
        ("sample", "prob a = 1/2\nprob true = 1/2\n", "line 2: bad atom name: 'true'"),
        ("ingest", "true wet\n1 0\n", "line 1: bad column name: 'true'"),
    ],
)
def test_constant_as_a_name_exits_two_naming_its_line(capsys, tmp_path, command, text, message):
    source = tmp_path / "input"
    source.write_text(text)
    extra = ["--size", 4] if command == "sample" else []
    code, out, err = run(capsys, command, source, *extra)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {message}")


@pytest.mark.parametrize(
    "text, message",
    [
        ("# targets\nprob a = 3/2\n", "line 2: marginal for 'a' out of [0, 1]: 3/2"),
        (
            "prob a = 1/2\ncorr a b = -3/2\nprob b = 1/2\n",
            "line 2: correlation for ('a', 'b') out of [-1, 1]: -3/2",
        ),
        (
            "prob a = 1/2\n\ncorr a a = 1/2\n",
            "line 3: correlation pair must name two distinct atoms: ('a', 'a')",
        ),
        ("prob a = 1/2\ncorr a b = 1/2\n", "line 2: correlated atom 'b' has no marginal"),
        (
            "prob a = 1/2\nprob b = 1\nprob c = 1/2\ncorr a c = 0\ncorr b a = 0\n",
            "line 5: correlated atom 'b' needs a marginal strictly inside (0, 1)",
        ),
    ],
    ids=["marginal", "correlation", "same-atom", "no-marginal", "degenerate"],
)
def test_every_targets_error_names_its_line(capsys, tmp_path, text, message):
    targets = tmp_path / "t.targets"
    targets.write_text(text)
    code, out, err = run(capsys, "sample", targets, "--size", 10)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "source, command, expected",
    [
        ("example.kb", ["solve"], "example_solve.golden"),
        ("example.kb", ["eval", "-f", "a & b"], "example_eval.golden"),
        ("path.targets", ["sample", "--size", "3000", "--seed", "17"], "path_sample.golden"),
        ("rain_wet.records", ["ingest"], "rain_wet_ingest.golden"),
    ],
)
def test_a_leading_byte_order_mark_is_ignored(capsys, tmp_path, source, command, expected):
    path = tmp_path / source
    path.write_bytes(b"\xef\xbb\xbf" + (DATA / source).read_bytes())
    code, out, err = run(capsys, command[0], path, *command[1:])
    assert (code, out, err) == (0, golden(expected), "")


def workflow_checks():
    """(golden, exit code, incalc arguments) for each `check` line of the
    console-script step in the tier-1 workflow, in the order it runs them."""
    lines = (ROOT / ".github" / "workflows" / "tier1.yml").read_text().splitlines()
    checks = [shlex.split(line) for line in lines if line.strip().startswith("check ")]
    return [(words[1], int(words[2]), words[3:]) for words in checks]


WORKFLOW_CHECKS = workflow_checks()


def test_the_workflow_checks_every_golden_once():
    checked = sorted(name for name, _, _ in WORKFLOW_CHECKS)
    assert checked == sorted(path.name for path in DATA.glob("*.golden"))


@pytest.mark.parametrize(
    "name, code, argv", WORKFLOW_CHECKS, ids=[name for name, _, _ in WORKFLOW_CHECKS]
)
def test_each_workflow_check_passes_in_process(capsys, monkeypatch, name, code, argv):
    # As the step runs it, from tests/data: the exit code and every byte.
    monkeypatch.chdir(DATA)
    assert main(argv) == code
    assert capsys.readouterr().out.encode() == (DATA / name).read_bytes()


#: What a mutant's edits write: the separators, operators, brackets and
#: digits of the KB, targets and records formats, and one letter.
FUZZ_ALPHABET = " \t\n\r#=&|~()-><{},./01a"


def mutate(rng: random.Random, text: str) -> str:
    """`text` after 1 to 4 edits, each deleting, replacing or inserting
    one character at a random place."""
    for _ in range(rng.randint(1, 4)):
        k, edit = rng.randrange(len(text) + 1), rng.randrange(3)
        put = rng.choice(FUZZ_ALPHABET) if edit else ""  # 0 deletes
        text = text[:k] + put + text[k + (edit < 2) :]  # 2 inserts
    return text


def test_mutated_inputs_exit_zero_one_or_two(capsys, monkeypatch, tmp_path):
    # 2,000 seeded mutants of the workflow checks' input files, each run
    # with its check's arguments: any input, however broken, is a result
    # or a data error, never an internal error.
    rng = random.Random(11)
    sources = {argv[1]: (DATA / argv[1]).read_text(encoding="utf-8")
               for _, _, argv in WORKFLOW_CHECKS}
    monkeypatch.chdir(tmp_path)
    for n in range(2000):
        argv = WORKFLOW_CHECKS[n % len(WORKFLOW_CHECKS)][2]
        text = mutate(rng, sources[argv[1]])
        (tmp_path / argv[1]).write_text(text, encoding="utf-8")
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2) and "internal error:" not in err, (argv, text)


@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize(
    "command, lines, bad_line",
    [
        (["query"], ["space 2", "inc a = 10", "# caf\xe9 au lait", "query prob a"], 3),
        (["sample", "--size", "4"], ["prob a = 1/2", "", "prob b = 1/4 # \xe9t\xe9"], 3),
        (["ingest"], ["# rain and wet", "rain wet", "1 1", "0 1 # \xe9t\xe9", "1 0"], 4),
    ],
    ids=["kb", "targets", "records"],
)
def test_a_byte_that_is_not_utf8_names_its_line(
    capsys, tmp_path, bom, end, command, lines, bad_line
):
    # Latin-1 text: each 'é' is the one byte 0xe9, which no UTF-8 text holds.
    path = tmp_path / "input"
    path.write_bytes(bom + end.join(lines).encode("latin-1") + end.encode())
    code, out, err = run(capsys, command[0], path, *command[1:])
    message = f"line {bad_line}: byte 0xe9 is not UTF-8 (invalid continuation byte)"
    assert (code, out, err) == (2, "", f"error: {message}\n")


class TestIngest:
    def test_matches_golden(self, capsys):
        code, out, err = run(capsys, "ingest", DATA / "rain_wet.records")
        assert code == 0 and err == ""
        assert out == golden("rain_wet_ingest.golden")

    def test_bad_value_exits_two(self, capsys, tmp_path):
        records = tmp_path / "bad.records"
        records.write_text("a b\n1 maybe\n")
        code, _, err = run(capsys, "ingest", records)
        assert code == 2 and "maybe" in err

    def test_mixed_format_matches_golden(self, capsys):
        """Commas, tabs, mixed case, comments, CRLF and repeated rows."""
        source = DATA / "mixed.records"
        code, out, err = run(capsys, "ingest", source)
        assert code == 0 and err == ""
        assert out == golden("mixed_ingest.golden")
        # The library reads the CRLF line ends that the command's file read
        # turns into '\n'.
        raw = source.read_bytes().decode()
        assert "\r\n" in raw
        table = ic.RecordTable.from_text(raw)
        assert ic.kb_fragment(*ic.incidences_from_records(table)) + "\n" == out


@pytest.mark.parametrize("literal", ["{1_0}", "{+3}", "{\u0663}"])
def test_point_index_other_than_ascii_digits_exits_two(capsys, tmp_path, literal):
    # int() would read these as points 10, 3 and 3.
    kb = tmp_path / "points.kb"
    kb.write_text(f"space 11\ninc a = {literal}\nquery prob a\n", encoding="utf-8")
    code, out, err = run(capsys, "query", kb)
    assert (code, out) == (2, "")
    assert err == f"error: line 2: bad point set: {literal!r}\n"


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("query", "space 2\ninc a = 10\n# note\finc b = 01\nquery prob a & b\n",
         "atom 'b' has no incidence"),
        ("query", "space 2\n# note\finc a = 10\nquery prob x y\n", "line 3: "),
        ("ingest", "a b\n1 0\n# note\f1 1\n1 2\n", "line 4: bad value '2'"),
        ("ingest", "a\fb\n1 0\n1\n", "line 3: row has 1 values, expected 2"),
        ("sample", "prob a = 1/2\n# note\fprob b = x\nprob c = y\n",
         "line 3: not a rational number: 'y'"),
    ],
)
def test_form_feed_stays_inside_its_line(capsys, tmp_path, command, text, message):
    source = tmp_path / "input"
    source.write_text(text)
    extra = ["--size", 4] if command == "sample" else []
    code, out, err = run(capsys, command, source, *extra)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {message}")


@pytest.fixture(scope="module")
def tiny_weight_kb(tmp_path_factory):
    """A 4301-point KB whose point 0 weighs 1e-4300: the common
    denominator has 4301 digits, past what `str` writes by default."""
    weights = " ".join(["1e-4300"] + [f"9e-{k}" for k in range(1, 4301)])
    path = tmp_path_factory.mktemp("wide") / "tiny_weight.kb"
    path.write_text(f"space weights {weights}\ninc a = 1{'0' * 4300}\nquery prob a\n")
    return path


class TestDigitsPastTheLimit:
    def test_query_prints_every_digit(self, capsys, tiny_weight_kb):
        code, out, err = run(capsys, "query", tiny_weight_kb)
        assert (code, err) == (0, "")
        assert out == f"prob a = 1/1{'0' * 4300} (= 0)\n"

    def test_solve_prints_every_digit(self, capsys, tiny_weight_kb):
        code, out, err = run(capsys, "solve", tiny_weight_kb)
        assert (code, err) == (0, "")
        prob = f"1/1{'0' * 4300} (= 0)"
        mask = f"1{'0' * 4300}"
        assert out == f"a inf={mask} sup={mask} p=[{prob}, {prob}]\nCONSISTENT\n"

    @staticmethod
    def corr_kb(tmp_path, tiny_weight_kb, a, b):
        """The tiny-weight KB's space, atoms a and b, and `query corr a , b`."""
        space = tiny_weight_kb.read_text().split("\n", 1)[0]
        path = tmp_path / "corr.kb"
        path.write_text(f"{space}\ninc a = {a}\ninc b = {b}\nquery corr a , b\n")
        return path

    def test_query_corr_prints_every_digit_of_c_squared(self, capsys, tmp_path, tiny_weight_kb):
        path = self.corr_kb(tmp_path, tiny_weight_kb, "{0,1,4300}", "{1,2,4299}")
        code, out, err = run(capsys, "query", path)
        assert (code, err) == (0, "")
        # Point 0 weighs 1e-4300 and point k > 0 weighs 9e-k.
        weight = {0: Fraction(1, 10**4300), **{k: Fraction(9, 10**k) for k in (1, 2, 4299, 4300)}}
        pa, pb, pab = (sum(map(weight.get, s)) for s in ({0, 1, 4300}, {1, 2, 4299}, {1}))
        gap = pab - pa * pb
        c_squared = gap * gap / (pa * (1 - pa) * pb * (1 - pb))
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            shown = f"{c_squared.numerator}/{c_squared.denominator}"
        finally:
            sys.set_int_max_str_digits(limit)
        assert min(map(len, shown.split("/"))) > limit
        assert out == f"corr a , b = 0.301511 (c^2 = {shown})\n"

    def test_query_corr_rounding_to_zero_prints_no_sign(self, capsys, tmp_path, tiny_weight_kb):
        # Disjoint, so c is negative; point 0 weighs 1e-4300, so c^2 is
        # about 9e-4300 and c rounds to 0 at six places.
        path = self.corr_kb(tmp_path, tiny_weight_kb, "{0}", "{1}")
        code, out, err = run(capsys, "query", path)
        assert (code, err) == (0, "")
        assert out.startswith("corr a , b = 0 (c^2 = 1/")

    def test_degenerate_marginals_are_named_past_the_digit_limit(
        self, capsys, tmp_path, tiny_weight_kb
    ):
        path = self.corr_kb(tmp_path, tiny_weight_kb, "{0}", "1" * 4301)
        code, out, err = run(capsys, "query", path)
        assert (code, out) == (2, "")
        assert err == "error: correlation undefined: marginals are 1/<4301 digits> and 1\n"


# Each argv once through `main` as it stands and once with the reader
# refusing everything, so that argparse reads it; the exit code and both
# streams must agree.
USAGE_ARGVS = [
    [], ["-h"], ["--help"], ["bogus"], ["sol"], ["--x"], ["-h", "solve"], ["solve"],
    ["solve", "-h"], ["solve", "x", "--bogus"], ["solve", "a", "b"], ["solve", "--comp", "x"],
    ["solve", "--complete"], ["eval", "-h"], ["eval", "x"], ["query", "-h"], ["sample", "-h"],
    ["sample", "t", "--size", "x"], ["ingest", "-h"],
    ["sample", "t", "--size=5"], ["eval", "x", "-fa"], ["solve", "--", "x"], ["solve", "-"],
    ["sample", "t", "--size", "-5"], ["sample", "t", "--si", "5"], ["eval", "x", "--form", "a"],
    ["sample", "t", "--size", "5", "--size", "6"], ["sample", "t", "--size", "9" * 5000],
    ["sample", "t", "--size", "٣"], ["eval", "x", "-f"], ["solve", "x", "--complete", "-h"],
]

# Well-formed command lines of all five commands, which the reader takes.
WELL_FORMED = [
    ["eval", str(DATA / "example.kb"), "-f", "a & ~b"],
    ["eval", "--formula", "a | b", str(DATA / "example.kb")],
    ["query", str(DATA / "example.kb")],
    ["solve", str(DATA / "example.kb")],
    ["solve", "--complete", str(DATA / "tighten.kb")],
    ["sample", str(DATA / "ab.targets"), "--size", " 1_0", "--seed", "٣"],
    ["ingest", str(DATA / "rain_wet.records")],
    ["query", "x"],
]


def argv_id(argv):
    """A test id: data files by name, long tokens by their length."""
    names = (Path(t).name if t.startswith(str(DATA)) else t for t in argv)
    return " ".join(t if len(t) < 40 else f"<{len(t)} characters>" for t in names)


def outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def parsed(argv):
    """What the full argparse parser makes of `argv`: its Namespace as a
    dict, or None when it exits (help, usage or an error)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli._build_parser().parse_args(argv))
        except SystemExit:
            return None


_FLAGS = sorted(
    {
        f
        for _, _, arguments in cli._COMMANDS.values()
        for names, _ in arguments
        for f in names
        if f.startswith("-")
    }
)
_ODD = ["--comp", "--si", "--form", "--size=5", "-fa", "--", "-", "-5", "-h", "--help"]
_TOKENS = [*cli._COMMANDS, *_FLAGS, *_ODD, "7", " 7", "1_0", "٣", "9" * 5000, "", "x", "a & b"]
# A flag-like token and the token after it, or one token alone.
_CHUNKS = st.one_of(
    st.tuples(st.sampled_from(_FLAGS + _ODD), st.sampled_from(_TOKENS)),
    st.tuples(st.sampled_from(_TOKENS)),
)


class TestParserPerCommand:
    @pytest.mark.parametrize("argv", USAGE_ARGVS + WELL_FORMED, ids=argv_id)
    def test_text_matches_the_full_parser(self, argv, monkeypatch, tmp_path):
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.chdir(tmp_path)  # 'x', 'a' and 't' name no file
        own = outcome(argv)
        monkeypatch.setattr(cli, "_read_argv", lambda argv: None)
        assert own == outcome(argv)
        assert own[0] in (0, 2)

    @pytest.mark.parametrize("argv", WELL_FORMED, ids=argv_id)
    def test_reads_a_well_formed_command_line(self, argv):
        assert vars(cli._read_argv(argv)) == parsed(argv)

    @settings(max_examples=500, deadline=None)
    @example("sample", [("t",), ("--size", "7"), ("--size", "9")])
    @example("solve", [("x",), ("--comp",)])
    @example("eval", [("x",), ("--", "a")])
    @given(
        st.one_of(st.sampled_from(list(cli._COMMANDS)), st.sampled_from(_TOKENS)),
        st.lists(_CHUNKS, max_size=4),
    )
    def test_reader_agrees_with_argparse(self, first, chunks):
        argv = [first, *(token for chunk in chunks for token in chunk)]
        read = cli._read_argv(argv)
        assert read is None or vars(read) == parsed(argv)

    @pytest.mark.parametrize(
        "argv, built",
        [(["solve", str(DATA / "example.kb")], 0), (["-h"], 5), (["solve", "x", "--bogus"], 5)],
    )
    def test_builds_subparsers_only_for_help_and_errors(self, argv, built, monkeypatch):
        calls = []
        add_parser = argparse._SubParsersAction.add_parser

        def counted(self, name, **kwargs):
            calls.append(name)
            return add_parser(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
        outcome(argv)
        assert len(calls) == built

    def test_reads_sys_argv_when_given_none(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["incalc", "solve", str(DATA / "example.kb")])
        code = main()
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        assert captured.out == golden("example_solve.golden")


class TestUsage:
    def test_no_command_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_internal_error_exits_three(self, capsys, monkeypatch):
        def broken(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "_cmd_query", broken)
        code, out, err = run(capsys, "query", DATA / "example.kb")
        assert (code, out, err) == (3, "", "internal error: RuntimeError: boom\n")

    def test_type_error_in_a_command_exits_three(self, capsys, monkeypatch):
        # Every value from the command line is text, so a TypeError is a
        # fault in incalc, not in its input.
        def broken(args):
            raise TypeError("boom")

        monkeypatch.setattr(cli, "_cmd_query", broken)
        code, out, err = run(capsys, "query", DATA / "example.kb")
        assert (code, out, err) == (3, "", "internal error: TypeError: boom\n")

    def test_type_error_in_the_kb_reader_exits_three(self, capsys, monkeypatch):
        def broken(kb, line):
            raise TypeError("boom")

        monkeypatch.setattr(kb_module, "_parse_inc", broken)
        code, out, err = run(capsys, "query", DATA / "example.kb")
        assert (code, out, err) == (3, "", "internal error: TypeError: boom\n")

    def test_module_entry_point(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "incalc", "query", str(DATA / "example.kb")],
            capture_output=True,
            text=True,
            cwd=DATA.parent.parent / "src",
        )
        assert proc.returncode == 0
        assert proc.stdout == golden("example_query.golden")


# Run with -S: a site-packages `.pth` hook may import modules before any
# user code does.
START_UP = """
import sys
sys.path.insert(0, sys.argv[1])
unwanted = ("dataclasses", "inspect", "typing", "pathlib", "random")
def loaded():
    return [name for name in unwanted if name in sys.modules]
import incalc.cli
after_cli = loaded()
import incalc
after_package = loaded()
code = incalc.cli.main(["sample", "path.targets", "--size", "30"])
print(after_cli, after_package, code, loaded(), file=sys.stderr)
"""


def test_start_up_loads_no_module_the_command_does_not_use():
    proc = subprocess.run(
        [sys.executable, "-S", "-c", START_UP, str(ROOT / "src")],
        capture_output=True,
        text=True,
        cwd=DATA,
    )
    assert proc.stderr == "[] [] 0 ['random']\n"
    assert proc.stdout.startswith("space 30\n")
