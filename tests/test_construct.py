import random
from collections import Counter
from decimal import Decimal
from fractions import Fraction as F
from itertools import combinations, compress
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import incalc as ic
from incalc import construct
from incalc.construct import _overlap_count, _random_subset, _select
from incalc.kb import directive_lines

from helpers import points, reference_ingest, reference_overlap_count, reference_random_subset

DATA = Path(__file__).parent / "data"
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
            ({"true": HALF}, 10, {}),
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

    def test_a_pair_given_in_both_orders_is_a_duplicate(self):
        with pytest.raises(ValueError) as info:
            ic.TargetSpec({"a": HALF, "b": HALF}, 10, {("a", "b"): HALF, ("b", "a"): HALF})
        assert str(info.value) == "duplicate correlation for pair (a, b)"


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
        assert env["a"].bits ^ env["b"].bits == (1 << 40) - 1

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
            # The marginals quantise exactly, to 240 and 140 of 400 points,
            # and the overlap is the implied count rounded: within half a point.
            assert joint * 400 == reference_overlap_count(240, 140, 400, F(-1, 4))


@st.composite
def _overlap_cases(draw):
    """(kx, ky, size, c) for `_overlap_count`: sizes 2 to 10^8, many of
    them small, where a root's fraction often decides the count; some with
    kx = ky = size/2, where the root is a perfect square and the count can
    tie; correlations of either sign, 0 and +-1 among them."""
    size = draw(st.integers(2, 60) | st.integers(2, 10**8), label="size")
    if draw(st.booleans(), label="half"):
        size += size % 2
        kx = ky = size // 2
    else:
        kx = draw(st.integers(1, size - 1), label="kx")
        ky = draw(st.integers(1, size - 1), label="ky")
    c = draw(
        st.sampled_from([F(-1), F(0), F(1), F(1, 2), F(-1, 2), F(1, 10), F(-3, 10)])
        | st.fractions(-1, 1, max_denominator=10**6),
        label="c",
    )
    return kx, ky, size, c


class TestOverlapCount:
    @settings(max_examples=500, deadline=None)
    @given(_overlap_cases())
    # A negative correlation whose root is not whole: the ceiling of the
    # root, not its floor, decides these counts.
    @example((3, 4, 5, F(-1)))
    @example((2, 7, 10, F(-1, 2)))
    def test_matches_the_rounded_root(self, case):
        kx, ky, size, c = case
        expected = reference_overlap_count(kx, ky, size, c)
        if max(0, kx + ky - size) <= expected <= min(kx, ky):
            assert _overlap_count(kx, ky, size, c) == expected
        else:
            with pytest.raises(ic.InfeasibleTargetError):
                _overlap_count(kx, ky, size, c)

    def test_matches_the_rounded_root_on_every_whole_root(self):
        # Every case below size 200 whose root is whole, where the implied
        # count can land exactly on a half and round up.
        ties = 0
        for size in range(2, 200):
            for kx in range(1, size):
                for ky in range(kx, size):
                    variance = kx * (size - kx) * ky * (size - ky)
                    root = isqrt(variance)
                    if root * root != variance:
                        continue
                    for c in (F(1, 2), F(-1, 2), F(1, 10), F(-3, 10), F(1), F(-1)):
                        expected = reference_overlap_count(kx, ky, size, c)
                        if max(0, kx + ky - size) <= expected <= min(kx, ky):
                            assert _overlap_count(kx, ky, size, c) == expected, (kx, ky, size, c)
                        p, q = c.numerator, c.denominator
                        ties += 2 * (kx * ky * q + p * root) % (2 * size * q) == size * q
        assert ties > 0


class TestRandomSubset:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_exact_count_inside_the_mask_and_seeded(self, data):
        size = data.draw(st.integers(1, 300), label="size")
        mask = data.draw(st.integers(0, (1 << size) - 1), label="mask")
        count = data.draw(st.integers(0, mask.bit_count()), label="count")
        seed = data.draw(st.integers(0, 2**32), label="seed")
        drawn = _random_subset(random.Random(seed), mask, count, size)
        assert drawn & ~mask == 0
        assert drawn.bit_count() == count
        assert _random_subset(random.Random(seed), mask, count, size) == drawn

    def test_more_points_than_the_mask_holds_is_refused(self):
        with pytest.raises(ValueError):
            _random_subset(random.Random(0), 0b101, 3, 3)

    def test_every_subset_equally_likely(self):
        # 3 of the 5 points {0, 1, 3, 4, 6} of a 7-point space: 10 subsets.
        mask, seeds = 0b1011011, 30000
        drawn = Counter(_random_subset(random.Random(seed), mask, 3, 7) for seed in range(seeds))
        points = [k for k in range(7) if mask >> k & 1]
        assert set(drawn) == {sum(1 << k for k in c) for c in combinations(points, 3)}
        expected = seeds / 10
        chi_square = sum((n - expected) ** 2 / expected for n in drawn.values())
        # 27.88 is the 0.999 quantile of chi-square with 9 degrees of freedom.
        assert chi_square < 27.88

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_draws_what_listing_the_pool_drew(self, data):
        # The fix-up picks ranks where the reference picked points from the
        # tuple of the pool's points; both must leave the same mask and the
        # generator in the same state, or every later draw of a seed moves.
        width = data.draw(
            st.integers(1, 300) | st.sampled_from([8, 9, 16, 17, 10**4]), label="width"
        )
        if width <= 300:
            mask = data.draw(st.integers(0, (1 << width) - 1), label="mask")
        else:
            words = random.Random(data.draw(st.integers(0, 2**32), label="mask seed"))
            mask = words.getrandbits(width) | words.getrandbits(width)
        count = data.draw(st.integers(0, mask.bit_count()), label="count")
        seed = data.draw(st.integers(0, 2**32), label="seed")
        ours, theirs = random.Random(seed), random.Random(seed)
        assert _random_subset(ours, mask, count, width) == reference_random_subset(
            theirs, mask, count, width
        )
        assert ours.getstate() == theirs.getstate()


class TestSelect:
    def picked(self, mask: int, width: int, ranks) -> int:
        """The points of the given ranks, from `mask`'s points listed one
        int each."""
        listed = tuple(compress(range(width), ic.Incidence(mask, width).flags()))
        return sum(1 << listed[rank] for rank in ranks)

    @pytest.mark.parametrize("width", [1, 7, 8, 9, 16, 17, 64, 300])
    def test_first_and_last_rank_of_a_full_mask(self, width):
        full = (1 << width) - 1
        assert _select(full, [0]) == 1
        assert _select(full, [width - 1]) == 1 << width - 1
        assert _select(full, [0, width - 1]) == 1 | 1 << width - 1

    @pytest.mark.parametrize(
        "mask, width",
        [
            ((1 << 40) - 1, 40),
            (0xFF00FF00FF, 40),  # whole bytes without points between them
            (0b1000_0000_1000_0001, 16),  # one point at each end of a byte
            (random.Random(5).getrandbits(10**4), 10**4),
        ],
    )
    def test_ranks_on_byte_boundaries(self, mask, width):
        total = mask.bit_count()
        near = {r for k in range(0, total + 9, 8) for r in (k - 1, k, k + 1)}
        ranks = sorted(near & set(range(total)))
        assert _select(mask, ranks) == self.picked(mask, width, ranks)
        for rank in ranks:
            assert _select(mask, [rank]) == self.picked(mask, width, [rank])

    @pytest.mark.parametrize("width", [1, 8, 9, 16, 17, 10**4])
    def test_single_point_masks(self, width):
        for k in {0, 1, 7, 8, 9, width // 2, width - 2, width - 1} & set(range(width)):
            assert _select(1 << k, [0]) == 1 << k

    def test_the_top_point_of_the_width(self):
        width = 10**4
        mask = 1 << width - 1 | random.Random(2).getrandbits(width - 8)
        assert _select(mask, [mask.bit_count() - 1]) == 1 << width - 1

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_equals_indexing_the_listed_points(self, data):
        width = data.draw(st.integers(1, 300) | st.sampled_from([8, 9, 16, 17]), label="width")
        mask = data.draw(st.integers(1, (1 << width) - 1), label="mask")
        ranks = data.draw(
            st.lists(st.integers(0, mask.bit_count() - 1), unique=True, max_size=20),
            label="ranks",
        )
        assert _select(mask, ranks) == self.picked(mask, width, ranks)


def ingest_fragment(text: str) -> str:
    return ic.kb_fragment(*ic.incidences_from_records(ic.RecordTable.from_text(text)))


def outcome(read, text: str) -> str:
    """What `read` returns for `text`, or the text of its error."""
    try:
        return read(text)
    except ic.RecordTableError as error:
        return f"error: {error}"


SPELLINGS = {
    True: ["1", "t", "T", "true", "True", "TRUE"],
    False: ["0", "f", "F", "false", "False", "FALSE"],
}
SEPARATORS = [" ", "  ", "\t", ",", ", ", " ,", "\xa0", "\u3000", "\f"]
BAD_TOKENS = ["2", "maybe", "tru", "yes", "-1", "0.5", "\u0130", "trueX"]


@st.composite
def records_texts(draw):
    """A records text written in every form the reader accepts (mixed
    separators and case, comments, blank lines, CRLF), sometimes with a bad
    column name and sometimes with one row corrupted: a bad token, two
    values run together ('10', 'tt', 'truefalse'), a value dropped or a
    value added."""
    columns = draw(st.lists(st.sampled_from("abcd"), min_size=1, max_size=4, unique=True))
    if draw(st.integers(0, 7)) == 7:
        columns[-1] = draw(st.sampled_from(["a", "true", "2b"]))
    rows = draw(st.lists(st.lists(st.booleans(), min_size=len(columns), max_size=len(columns)),
                         max_size=8))
    lines = [[*columns]]
    for row in rows:
        lines.append([draw(st.sampled_from(SPELLINGS[value])) for value in row])
    if rows and draw(st.booleans()):
        tokens = lines[draw(st.integers(1, len(rows)))]
        k = draw(st.integers(0, len(tokens) - 1))
        corruption = draw(st.sampled_from(["bad", "run together", "missing", "extra"]))
        if corruption == "bad":
            tokens[k] = draw(st.sampled_from(BAD_TOKENS))
        elif corruption == "run together" and k + 1 < len(tokens):
            tokens[k : k + 2] = [tokens[k] + tokens[k + 1]]
        elif corruption == "missing":
            del tokens[k]
        else:
            tokens.insert(k, draw(st.sampled_from(SPELLINGS[draw(st.booleans())])))
    text = []
    for tokens in lines:
        while draw(st.integers(0, 3)) == 3:
            text.append(draw(st.sampled_from(["", "# note", "  \t", "# 1 2 , maybe"])))
        line = ""
        for k, token in enumerate(tokens):
            line += (draw(st.sampled_from(SEPARATORS)) if k else "") + token
        if draw(st.integers(0, 3)) == 3:
            line += draw(st.sampled_from([",", " ", " # 1 0", "\t#x"]))
        text.append(line)
    endings = st.sampled_from(["\n", "\r\n", "\r"])
    return "".join(line + draw(endings) for line in text)


@st.composite
def boolean_tables(draw):
    """Rows of one to eight booleans each, all of one width."""
    width = draw(st.integers(1, 8))
    row = st.lists(st.booleans(), min_size=width, max_size=width)
    return draw(st.lists(row, min_size=1, max_size=12))


@st.composite
def flag_rows(draw):
    """A width of one to four and one to eight rows of the bytes 0, 1, 2
    and 10 ('\\n'), most of them `width` 0/1 bytes, some short or long."""
    width = draw(st.integers(1, 4))
    valid = st.lists(st.sampled_from([0, 1]), min_size=width, max_size=width)
    other = st.lists(st.sampled_from([0, 1, 2, 10]), max_size=width + 2)
    return width, draw(st.lists(st.one_of(valid, valid, other).map(bytes), min_size=1, max_size=8))


def written_table(rows, separator: str, words: tuple[str, str]) -> str:
    """`rows` as a records text: columns c0, c1, ..., values written as
    words[False] and words[True], every line ended by a newline."""
    lines = [[f"c{k}" for k in range(len(rows[0]))]]
    lines += [[words[value] for value in row] for row in rows]
    return "".join(separator.join(line) + "\n" for line in lines)


# Ways of writing a large table that are not single-spaced 0/1 rows: the
# words for false and true, the separator, the line end, and a line that
# follows about one row in ten, or None.
LARGE_SHAPES = {
    "words": (("F", "true"), " ", "\n", None),
    "comma separators": (("0", "1"), ", ", "\n", None),
    "tabs and blank lines": (("0", "1"), "\t", "\n", ""),
    "CRLF and a comment": (("0", "1"), " ", "\r\n", "# a comment"),
}


class TestRecordTable:
    def test_worked_example(self):
        table = ic.RecordTable(("rain", "wet"), (b"\1\1", b"\1\1", b"\1\0", b"\0\0", b"\0\0"))
        space, env = ic.incidences_from_records(table)
        assert space.map_weights(F) == (F(2, 5), F(1, 5), F(2, 5))
        assert env["rain"] == points(space, [0, 1])
        assert env["wet"] == points(space, [0])
        assert ic.prob(ic.Atom("rain"), env, space) == F(3, 5)
        assert ic.cond_prob(ic.Atom("wet"), ic.Atom("rain"), env, space) == F(2, 3)

    def test_points_follow_first_occurrence(self):
        table = ic.RecordTable(("x",), (b"\0", b"\1", b"\0", b"\1", b"\1"))
        space, env = ic.incidences_from_records(table)
        # Distinct rows in order of first appearance: b"\0", b"\1".
        assert space.map_weights(F) == (F(2, 5), F(3, 5))
        assert env["x"] == points(space, [1])

    def test_from_text(self):
        table = ic.RecordTable.from_text(
            "# daily observations\n"
            "rain, wet\n"
            "1 1\n"
            "t, f\n"
            "FALSE false\n"
        )
        assert table.columns == ("rain", "wet")
        assert table.rows == (b"\1\1", b"\1\0", b"\0\0")

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("", "no header"),
            ("a b\n", "no rows"),
            ("a b\n1\n", "expected 2"),
            ("a b\n1 2\n", "bad value '2'"),
            ("a a\n1 1\n", "duplicate column"),
            ("a 2b\n1 1\n", "bad column name"),
            ("# header next\na, true\n1 1\n", "line 2: bad column name: 'true'"),
            ("a\n0\n0\n0\n,\n", "line 5: row has 0 values, expected 1"),
            ("a # column\n0\n\n,\n", "line 4: row has 0 values, expected 1"),
        ],
    )
    def test_rejected(self, text, fragment):
        with pytest.raises(ic.RecordTableError, match=fragment):
            ic.RecordTable.from_text(text)

    def test_constant_column_rejected_directly(self):
        with pytest.raises(ic.RecordTableError, match="bad column name: 'false'"):
            ic.RecordTable(("a", "false"), (b"\1\0",))

    def test_bad_value_reports_line_number(self):
        with pytest.raises(ic.RecordTableError, match="line 3"):
            ic.RecordTable.from_text("a\n1\nmaybe\n")

    def test_short_row_reports_line_number(self):
        with pytest.raises(ic.RecordTableError) as info:
            ic.RecordTable.from_text("a b\n1 0\n1\n")
        assert str(info.value) == "line 3: row has 1 values, expected 2"

    @pytest.mark.parametrize(
        "rows, message",
        [
            ((b"\1\0", b"\1", b"\1\1\1"), "row 2 has 1 values, expected 2"),
            ((b"\1\0", b"\1\1\1"), "row 2 has 3 values, expected 2"),
        ],
    )
    def test_direct_rows_name_the_first_bad_length(self, rows, message):
        with pytest.raises(ic.RecordTableError) as info:
            ic.RecordTable(("a", "b"), rows)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "rows, message",
        [
            ((b"1",), "row 1 is not flag bytes: b'1'"),
            ((b"\1", ("yes",)), "row 2 is not flag bytes: ('yes',)"),
            ((b"\0", b"\0\xff"), "row 2 is not flag bytes: b'\\x00\\xff'"),
            ((b"\1", b"\n"), "row 2 is not flag bytes: b'\\n'"),
            ((b"\1", b"\2"), "row 2 is not flag bytes: b'\\x02'"),
            ((b"\0", 1), "row 2 is not flag bytes: 1"),
        ],
    )
    def test_direct_rows_refuse_values_other_than_bools_and_0_1(self, rows, message):
        with pytest.raises(ic.RecordTableError) as info:
            ic.RecordTable(("a",), rows)
        assert str(info.value) == message

    @settings(max_examples=500, deadline=None)
    @given(flag_rows())
    def test_one_pass_check_agrees_with_a_per_row_check(self, table):
        width, rows = table
        bad = [n for n, row in enumerate(rows, 1) if not (len(row) == width and set(row) <= {0, 1})]
        try:
            result = ic.RecordTable(tuple(f"c{k}" for k in range(width)), rows)
        except ic.RecordTableError as error:
            assert bad and str(error).startswith(f"row {bad[0]} ")
        else:
            assert not bad and result.rows == tuple(rows)

    @settings(max_examples=300, deadline=None)
    @given(records_texts())
    def test_reader_matches_the_per_row_reference(self, text):
        assert outcome(ingest_fragment, text) == outcome(reference_ingest, text)

    @settings(max_examples=150, deadline=None)
    @given(boolean_tables(), st.sampled_from([("FALSE", "TRUE"), ("F", "T"), ("false", "True")]))
    def test_every_spelling_of_a_table_ingests_alike(self, rows, words):
        # Single-spaced 0/1 rows pass the as-written check; every other
        # spelling is read one row at a time.
        expected = reference_ingest(written_table(rows, " ", ("0", "1")))
        for separator in (" ", ", ", "\t", "   ", " \t , "):
            for spelling in (("0", "1"), words):
                assert ingest_fragment(written_table(rows, separator, spelling)) == expected

    @pytest.mark.parametrize(
        "text",
        [
            "a b\n1 0\n\n0 1\n",
            "a b\n1 0\n \t \n0 1\n",
            "a b\n1 0  \n0 1\n",
            "\na b\n1 0\n0 1\n",
            "a b\n",
            "a b\n1 0\n0 1",
            "a b\ntrue F\n0 1\n",
            "a b\n1 0\n\n1\n",
            "a b\n\n1 0\n0 maybe\n",
        ],
        ids=[
            "blank line between rows",
            "whitespace-only line",
            "trailing spaces",
            "blank first line",
            "header only",
            "no final newline",
            "true and F",
            "short row after a blank line",
            "bad value after a blank line",
        ],
    )
    def test_a_text_without_comments_reads_as_the_per_row_reference(self, text):
        assert outcome(ingest_fragment, text) == outcome(reference_ingest, text)

    @pytest.mark.parametrize("shape", LARGE_SHAPES)
    def test_large_tables_read_as_the_per_row_reference(self, shape):
        words, separator, line_end, extra = LARGE_SHAPES[shape]
        rng = random.Random(shape)
        rows = [[words[rng.getrandbits(1)] for _ in range(6)] for _ in range(5000)]
        bad_value, short_row = [row[:] for row in rows], [row[:] for row in rows]
        bad_value[rng.randrange(5000)][rng.randrange(6)] = "maybe"
        short_row[rng.randrange(5000)].pop()
        for table in (rows, bad_value, short_row):
            lines = [separator.join(f"c{k}" for k in range(6))]
            for row in table:
                lines.append(separator.join(row))
                if extra is not None and rng.random() < 0.1:
                    lines.append(extra)
            text = line_end.join(lines) + line_end
            expected = outcome(reference_ingest, text)
            assert expected.startswith("error: line ") == (table is not rows)
            assert outcome(ingest_fragment, text) == expected

    def test_only_a_clean_flag_table_is_read_without_the_line_scanner(self, monkeypatch):
        # Blank and whitespace-only rows are read one at a time, through the scanner.
        text = "a b\n1 0\n\n0 1\n \t \n1 0\n\n"
        assert ingest_fragment(text) == reference_ingest(text)

        class Scanned(Exception):
            pass

        def scan(text):
            raise Scanned

        monkeypatch.setattr(construct, "directive_lines", scan)
        text = "a b\n1 0\n0 1\n1 0\n"
        for end in ("\n", "\r\n", "\r"):
            table = ic.RecordTable.from_text(text.replace("\n", end))
            assert table.rows == (b"\1\0", b"\0\1", b"\1\0")
        with pytest.raises(Scanned):
            ic.RecordTable.from_text("a b\n1 0\n# a comment\n0 1\n1 0\n")

    @pytest.mark.parametrize(
        "text",
        [
            "a b\n# F and true\ntrue F\nF F\ntrue true\n",
            "a b\r\n1 0\r\n# a comment\r\n0 1\r\n",
            "a b\ntrue F\nF F\ntrue true\n",
        ],
        ids=["words with a comment", "crlf with a comment", "clean words"],
    )
    def test_the_line_scanner_reads_a_text_at_most_once(self, monkeypatch, text):
        scans = []

        def scan(text):
            scans.append(text)
            return directive_lines(text)

        monkeypatch.setattr(construct, "directive_lines", scan)
        assert ingest_fragment(text) == reference_ingest(text)
        assert len(scans) == 1

    @pytest.mark.parametrize("path", sorted(DATA.glob("*.records")), ids=lambda path: path.name)
    def test_every_line_end_of_a_fixture_ingests_alike(self, path):
        text = path.read_bytes().decode()
        expected = ingest_fragment(text)
        lf = text.replace("\r\n", "\n").replace("\r", "\n")
        for end in ("\r\n", "\r"):
            assert ingest_fragment(lf.replace("\n", end)) == expected


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
            "prob a = 0.5\nprob b = 0.5\ncorr a b = 0.1\ncorr b a = 0.1\n",
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

    @pytest.mark.parametrize(
        "text, name", [("prob true = 1/2\n", "true"), ("prob a = 1/2\ncorr a false = 0\n", "false")]
    )
    def test_constants_rejected_with_line(self, text, name):
        with pytest.raises(ValueError) as info:
            ic.parse_targets("# targets\n" + text)
        lineno = text.count("\n") + 1
        assert str(info.value) == f"line {lineno}: bad atom name: {name!r}"

    @pytest.mark.parametrize("first, second", [("a b", "a b"), ("a b", "b a"), ("b a", "a b")])
    def test_duplicate_correlation_names_its_line(self, first, second):
        text = f"prob a = 0.5\nprob b = 0.5\ncorr {first} = 0.1\ncorr {second} = 0.2\n"
        with pytest.raises(ValueError) as info:
            ic.parse_targets(text)
        assert str(info.value) == "line 4: duplicate correlation for pair (a, b)"

    def test_bad_value_reports_line_number(self):
        with pytest.raises(ValueError) as info:
            ic.parse_targets("prob a = 0.5\nprob b = x\n")
        assert str(info.value) == "line 2: not a rational number: 'x'"

    def test_feeds_target_spec(self):
        marginals, correlations = ic.parse_targets("prob a = 3/4\n")
        spec = ic.TargetSpec(marginals, 8, correlations, seed=1)
        _, env = ic.incidences_from_probabilities(spec)
        assert env["a"].count() == 6
