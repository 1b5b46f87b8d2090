"""The three line-oriented input formats (KB, targets, records) are read
by one scanner, and whatever a file holds, the command reading it either
succeeds or exits 2 with one `error:` line, promptly."""

import ast
import contextlib
import io
import re
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import incalc as ic
from incalc.cli import main
from incalc.kb import directive_lines
from incalc.rational import exact_str

from helpers import reference_directive_lines

SRC = Path(__file__).resolve().parent.parent / "src"

NUMBERS = ["0", "1", "2", "3", "7", "1/2", "1/4", "3/4", "0.5", "0.25", "-1", "1e-1", "25e-2"]
ATOMS = ["a", "b", "c"]
JUNK = list("#,={}()/.e-+_~&|\t\x0b\u00e9\u00b2\u0663\u2028\\'\"%!") + ["->", "1/0"]

# Tokens run together can spell a longer exponent; those stay at two digits.
LONG_EXPONENT = re.compile(r"[eE][-+]?(?:\d_?){3}")


def lines_of(vocabulary):
    """Text of up to six lines, each up to eight tokens drawn from the
    vocabulary, joined by spaces or run together."""
    token = st.sampled_from(vocabulary)
    line = st.tuples(st.lists(token, max_size=8), st.sampled_from([" ", ""])).map(
        lambda parts: parts[1].join(parts[0])
    )
    text = st.lists(line, max_size=6).map("\n".join)
    return text.filter(lambda text: not LONG_EXPONENT.search(text))


KB_TEXT = st.tuples(
    st.sampled_from(["", "space 3\n", "space weights 1/2 1/4 1/4\n"]),
    lines_of(["space", "weights", "inc", "bounds", "inf", "sup", "formula", "query", "prob",
              "cond", "given", "corr", "true", "false", "010", "{0,2}", "{}"]
             + ATOMS + NUMBERS + JUNK),
).map("".join)
TARGETS_TEXT = lines_of(["prob", "corr"] + ATOMS + NUMBERS + JUNK)
RECORDS_TEXT = lines_of(
    ["0", "1", "t", "f", "true", "FALSE", "T", "2", "10", "tf", "\f", "\u3000"] + ATOMS + JUNK
)


def run_on(text, command, *options):
    """Exit code and stderr of `incalc <command> <file> <options>` on a
    file holding `text`."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_text(text, encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, str(path), *options])
    return code, err.getvalue()


def assert_clean_outcome(code, err):
    assert code in (0, 2), err
    if code == 0:
        assert err == ""
    else:
        assert err.startswith("error: ") and err.endswith("\n")
        assert len(err.splitlines()) == 1, err


class TestFuzz:
    @settings(max_examples=150, deadline=None)
    @given(KB_TEXT)
    def test_kb(self, text):
        assert_clean_outcome(*run_on(text, "query"))

    @settings(max_examples=150, deadline=None)
    @given(TARGETS_TEXT)
    def test_targets(self, text):
        assert_clean_outcome(*run_on(text, "sample", "--size", "8"))

    @settings(max_examples=150, deadline=None)
    @given(RECORDS_TEXT)
    def test_records(self, text):
        assert_clean_outcome(*run_on(text, "ingest"))


@pytest.mark.parametrize(
    "command, text",
    [
        (["sample", "--size", "4"], "prob a = 1e-999999999\n"),
        (["solve"], "space weights 1e-999999999 1\n"),
        # The library constructors read text through the same reader.
        (["-c", "import incalc; incalc.SampleSpace(['1e-999999999', '1'])"], None),
        (["-c", "import incalc; incalc.TargetSpec({'a': '1e-999999999'}, 10)"], None),
    ],
)
def test_hostile_exponent_fails_within_a_second(tmp_path, command, text):
    argv = command
    if text is not None:
        path = tmp_path / "input"
        path.write_text(text)
        argv = ["-m", "incalc", command[0], str(path), *command[1:]]
    # Run from src/ so that `incalc` imports this checkout, installed or not.
    proc = subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, cwd=SRC, timeout=1
    )
    error = "exponent of '1e-999999999' exceeds 4300 in magnitude\n"
    if text is None:
        assert proc.returncode == 1
        assert proc.stderr.endswith(f"\nValueError: {error}")
    else:
        assert proc.returncode == 2
        assert proc.stderr == f"error: line 1: {error}"


@pytest.mark.parametrize(
    "command, text",
    [
        (["sample", "--size", "4"], "prob a = {}\n"),
        (["sample", "--size", "4"], "prob a = 0.{}\n"),
        (["solve"], "space weights {} 1\n"),
        (["solve"], "space weights 1/{} 1\n"),
        (["solve"], "space {}\n"),
    ],
)
def test_numbers_beyond_the_digit_limit_are_refused_in_our_words(command, text):
    digits = "1" * 4400
    code, err = run_on(text.format(digits), *command)
    assert code == 2
    assert "set_int_max_str_digits" not in err
    assert err.startswith("error: line 1: number ")
    assert err.endswith("... is longer than 4300 characters\n")


@pytest.mark.parametrize(
    "command, text, error",
    [
        (["solve"], "space weights 1e4300 1", "line 1: weights must sum to 1, got <4301 digits>"),
        (["solve"], "space 1e4300", "line 1: size must be <= 100000000, got <4301 digits>"),
        (["sample", "--size", "4"], "prob a = 2e4300",
         "line 1: marginal for 'a' out of [0, 1]: <4301 digits>"),
        (
            ["sample", "--size", "4"],
            "prob a = 1/2\nprob b = 1/2\ncorr a b = -3e4300",
            "line 3: correlation for ('a', 'b') out of [-1, 1]: -<4301 digits>",
        ),
    ],
    ids=["weights", "space", "marginal", "correlation"],
)
def test_values_beyond_the_digit_limit_are_shown_by_their_digit_count(command, text, error):
    code, err = run_on(text + "\n", *command)
    assert code == 2
    assert err.startswith(f"error: {error}")
    assert "set_int_max_str_digits" not in err


def test_exact_str_counts_the_digits_that_str_refuses():
    for digits in (4301, 4302, 9999, 12345):
        assert exact_str(10 ** (digits - 1)) == f"<{digits} digits>"
        assert exact_str(1 - 10**digits) == f"-<{digits} digits>"
    assert exact_str(10**4300 - 1) == "9" * 4300
    assert exact_str(Fraction(1, 10**4300)) == "1/<4301 digits>"
    assert exact_str(Fraction(10**4300, 3)) == "<4301 digits>/3"
    assert exact_str(Fraction(-3, 4)) == "-3/4" and exact_str(Fraction(6, 3)) == "2"


def test_exponent_limit_follows_the_integer_digit_limit(monkeypatch):
    assert ic.parse_targets("prob a = 1e-4300\n")[0]["a"] == Fraction(1, 10**4300)
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 2)
    with pytest.raises(ValueError, match="line 1: exponent of '1e-3' exceeds 2 in magnitude"):
        ic.parse_targets("prob a = 1e-3\n")
    # 0 switches Python's limit off; exponents then keep the default limit.
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
    limit = sys.int_info.default_max_str_digits
    with pytest.raises(ValueError, match=f"exceeds {limit} in magnitude"):
        ic.parse_targets(f"prob a = 1e-{limit + 1}\n")


class TestDirectiveLines:
    def test_numbers_content_lines_and_cuts_comments(self):
        text = "# header\n\n  a b  # note\n\t\r\nc\r\n#\nd"
        assert list(directive_lines(text)) == [(3, "a b"), (5, "c"), (7, "d")]

    def test_numbers_lines_by_newline_and_carriage_return_only(self):
        text = "a\fb\x0bc\x1cd\x85e\u2028f\u2029g\rh\r\ni # x\fy\nj"
        assert list(directive_lines(text)) == [
            (1, "a\fb\x0bc\x1cd\x85e\u2028f\u2029g"), (2, "h"), (3, "i"), (4, "j")
        ]

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.sampled_from(
                ["a", "b c", "1 0", "#", "# x", "##", "\r", "\r\n", "\n", "\n\n", "\f", "\x85",
                 "\u2028", "\u3000", " ", "  ", "\t", "\x0b", "\xa0"]
            ),
            max_size=24,
        ).map("".join)
    )
    def test_matches_the_per_line_reference(self, text):
        assert list(directive_lines(text)) == list(reference_directive_lines(text))

    def test_is_the_only_place_that_breaks_text_at_line_ends(self):
        callers = [
            f"{path.stem}.{name}"
            for path in sorted((SRC / "incalc").glob("*.py"))
            for name in line_split_callers(ast.parse(path.read_text()))
        ]
        assert callers == ["kb.directive_lines"]

    def test_callers_are_found_in_methods_and_at_module_level(self):
        tree = ast.parse(
            "x = text.splitlines()\n"
            "def f(): return [1 for _ in t.split('\\n')]\n"
            "def g(): return t.split(','), t.split(), t.split(b'\\n')\n"
            "class K:\n"
            "    def m(self):\n"
            "        def inner(): return s.splitlines()\n"
        )
        assert line_split_callers(tree) == ["<module>", "f", "inner"]


def line_split_callers(tree: ast.Module) -> list[str]:
    """The innermost enclosing function of each call in a module that
    breaks text at line ends, `.splitlines()` or `.split()` at a '\\n' or
    '\\r' string, in source order; '<module>' for a call outside any
    function."""
    owner = {}
    # ast.walk is breadth-first, so an inner function overwrites its outer one.
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for child in ast.walk(node):
                owner[child] = node.name
    calls = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and (node.func.attr == "splitlines" or node.func.attr == "split" and at_line_end(node))
    ]
    calls.sort(key=lambda node: (node.lineno, node.col_offset))
    return [owner.get(node, "<module>") for node in calls]


def at_line_end(call: ast.Call) -> bool:
    return any(
        isinstance(arg, ast.Constant) and arg.value in ("\n", "\r", "\r\n") for arg in call.args
    )
