"""The value classes' equality, hashing, repr, immutability and
validation: `Incidence`, `Query`, `KnowledgeBase`, `TargetSpec`,
`RecordTable`, `Correlation` and `PropagationOutcome`, and the `Frozen`
base that stores one field per slot."""

from fractions import Fraction as F

import pytest

import incalc as ic
from incalc.record import Frozen

A, B = ic.Atom("a"), ic.Atom("b")
KB_TEXT = "space 2\ninc a = 10\nformula c = a | b\nbounds b inf 00 sup 11\nquery prob c\n"


def frozen_values():
    """One instance of each frozen class, with the name of a field."""
    outcome = ic.propagate(ic.parse_kb(KB_TEXT).initial_assignment())
    return [
        (ic.Incidence(5, 4), "bits"),
        (ic.Query("cond", A, ic.And(A, B)), "g"),
        (ic.TargetSpec({"a": "1/2"}, 10), "size"),
        (ic.RecordTable(("a", "b"), [b"\1\0"]), "rows"),
        (ic.Correlation(F(1, 4), -1), "sign"),
        (outcome, "steps"),
    ]


@pytest.mark.parametrize(
    "value, text",
    [
        (ic.Incidence(5, 4), "Incidence(bits=5, width=4)"),
        (
            ic.Query("cond", A, ic.And(A, B)),
            "Query(kind='cond', f=parse_formula('a'), g=parse_formula('a & b'))",
        ),
        (ic.Correlation(F(1, 4), -1), "Correlation(c_squared=Fraction(1, 4), sign=-1)"),
        (
            ic.TargetSpec({"a": "1/2", "b": "0.4"}, 10, {("b", "a"): "0.5"}, seed=3),
            "TargetSpec(marginals={'a': Fraction(1, 2), 'b': Fraction(2, 5)}, size=10,"
            " correlations={('a', 'b'): Fraction(1, 2)}, seed=3)",
        ),
        (
            ic.TargetSpec({"a": "1/2"}, 10),
            "TargetSpec(marginals={'a': Fraction(1, 2)}, size=10, correlations={}, seed=0)",
        ),
        (ic.RecordTable(("a", "b"), [b"\1\0"]), "RecordTable(columns=('a', 'b'), rows=(b'\\x01\\x00',))"),
        (
            ic.parse_kb(KB_TEXT),
            "KnowledgeBase(space=SampleSpace.uniform(2),"
            " incidences={'a': Incidence(bits=1, width=2)},"
            " bounds=[(parse_formula('b'), Incidence(bits=0, width=2), Incidence(bits=3, width=2))],"
            " formulas={'c': parse_formula('a | b')},"
            " queries=[Query(kind='prob', f=parse_formula('a | b'), g=None)])",
        ),
    ],
)
def test_repr(value, text):
    assert repr(value) == text


def test_outcome_repr_names_every_field():
    outcome = ic.propagate(ic.parse_kb(KB_TEXT).initial_assignment())
    assert repr(outcome).startswith("PropagationOutcome(status='fixpoint', culprit=None, final=<")
    assert repr(outcome).endswith(">, steps=1)")


def test_equal_values_compare_and_hash_equal():
    assert ic.Incidence(1, 2) == ic.Incidence(1, 2)
    assert hash(ic.Incidence(1, 2)) == hash(ic.Incidence(1, 2)) == hash((1, 2))
    assert ic.Incidence(1, 2) != ic.Incidence(1, 3)
    assert ic.Incidence(1, 2) != (1, 2)
    assert ic.Query("prob", A) == ic.Query("prob", A, None)
    assert hash(ic.Query("prob", A)) == hash(ic.Query("prob", A, None))
    assert ic.Query("prob", A) != ic.Query("prob", B)
    assert ic.Correlation(F(1, 4), 1) == ic.Correlation(c_squared=F(1, 4), sign=1)
    assert ic.Correlation(F(1, 4), 1) != ic.Correlation(F(1, 4), -1)
    assert ic.RecordTable(("a",), [b"\1"]) == ic.RecordTable(("a",), (b"\1",))
    assert hash(ic.RecordTable(("a",), [b"\1"])) == hash(ic.RecordTable(("a",), (b"\1",)))
    assert ic.RecordTable(("a",), [b"\1"]) != ic.RecordTable(("a",), [b"\0"])
    assert ic.TargetSpec({"a": "0.5"}, 4) == ic.TargetSpec({"a": F(1, 2)}, 4, {}, 0)
    with pytest.raises(TypeError):  # its fields are dicts
        hash(ic.TargetSpec({"a": "0.5"}, 4))


def test_a_knowledge_base_compares_by_its_fields_and_does_not_hash():
    assert ic.parse_kb(KB_TEXT) == ic.parse_kb(KB_TEXT)
    assert ic.parse_kb(KB_TEXT) != ic.parse_kb(KB_TEXT + "query prob a\n")
    with pytest.raises(TypeError):
        hash(ic.parse_kb(KB_TEXT))
    kb = ic.parse_kb(KB_TEXT)
    kb.queries = []  # not frozen
    assert kb == ic.parse_kb(KB_TEXT.replace("query prob c\n", ""))


@pytest.mark.parametrize("value, field", frozen_values())
def test_frozen_classes_refuse_assignment(value, field):
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        delattr(value, field)


@pytest.mark.parametrize("fields", [(1,), (1, 2, 3)], ids=["too-few", "too-many"])
def test_frozen_base_takes_one_field_per_slot(fields):
    class Pair(Frozen):
        __slots__ = ("left", "right")

        def __init__(self):
            super().__init__(*fields)

    with pytest.raises(ValueError):  # from zip(..., strict=True)
        Pair()


@pytest.mark.parametrize("bits", [0, -1, 1])
def test_incidence_width_must_be_positive(bits):
    with pytest.raises(ValueError) as info:  # checked before the bits
        ic.Incidence(bits, 0)
    assert str(info.value) == "width must be >= 1, got 0"


@pytest.mark.parametrize("width", [1, 64, 10**4])
def test_incidence_bits_must_fit_the_width(width):
    for bits in (-1, 1 << width):
        with pytest.raises(ValueError) as info:
            ic.Incidence(bits, width)
        assert str(info.value) == f"bitmask out of range for width {width}"
    assert ic.Incidence((1 << width) - 1, width).count() == width


@pytest.mark.parametrize(
    "c_squared, sign, message",
    [
        (F(1, 2), 2, "sign must be -1, 0, or 1, got 2"),
        (F(-1, 2), -1, "c_squared cannot be negative"),
        (F(1, 2), 0, "sign must be 0 exactly when c_squared is 0"),
        (F(0), 1, "sign must be 0 exactly when c_squared is 0"),
    ],
)
def test_correlation_checks(c_squared, sign, message):
    with pytest.raises(ValueError) as info:
        ic.Correlation(c_squared, sign)
    assert str(info.value) == message


def test_target_spec_size_must_be_positive():
    with pytest.raises(ValueError) as info:
        ic.TargetSpec({"a": "1/2"}, 0)
    assert str(info.value) == "size must be >= 1, got 0"


def test_target_spec_reads_its_targets_as_fractions():
    spec = ic.TargetSpec({"a": "0.5", "b": 1, "c": "1/3"}, 10, {("c", "a"): "-1/4"})
    assert spec.marginals == {"a": F(1, 2), "b": F(1), "c": F(1, 3)}
    assert all(type(p) is F for p in spec.marginals.values())
    assert spec.correlations == {("a", "c"): F(-1, 4)}
    assert type(spec.correlations["a", "c"]) is F
    assert (spec.size, spec.seed) == (10, 0)


@pytest.mark.parametrize(
    "columns, rows, message",
    [
        ((), [b"\1"], "table has no columns"),
        (("a", "2b"), [b"\1\0"], "bad column name: '2b'"),
        (("a", "a"), [b"\1\0"], "duplicate column names"),
        (("a",), [], "table has no rows"),
        (("a", "b"), [b"\1\0", b"\1"], "row 2 has 1 values, expected 2"),
        (("a",), [b"\1", (True,)], "row 2 is not flag bytes: (True,)"),
    ],
)
def test_record_table_checks(columns, rows, message):
    with pytest.raises(ic.RecordTableError) as info:
        ic.RecordTable(columns, rows)
    assert str(info.value) == message
