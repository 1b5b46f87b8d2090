"""The knowledge-base file format: a line-oriented description of a
weighted space, known incidences, partial bounds, named sentences, and
queries.

Grammar (one directive per line, '#' starts a comment, blank lines are
ignored; the space must be declared first and exactly once):

    space <N>                          uniform space of N points
    space weights <w1> <w2> ...        explicit rational weights, sum 1
    inc <name> = <incidence>           exact incidence for an atom
    bounds <target> inf <i> sup <i>    partial knowledge for a sentence
    formula <name> = <formula>         name a sentence (and register it)
    query prob <formula>
    query cond <formula> given <formula>
    query corr <formula> , <formula>

An <incidence> is a bit string (character k is point k) or a point-set
literal like {0,2,5}.  A bounds <target> is an atom name or a
parenthesised formula.  A name defined by `formula` may be used inside
later formulas and stands for its definition, shared rather than copied.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import FormulaSyntaxError, KBError
from .logic import IDENT_RE, Atom, Formula, atom_names, parse_formula
from .propagation import BoundAssignment
from .rational import parse_rational
from .space import Incidence, SampleSpace, parse_incidence_text

_INC_RE = re.compile(rf"inc\s+({IDENT_RE.pattern})\s*=\s*(.+)")
_BOUNDS_RE = re.compile(
    r"bounds\s+(?P<target>.+?)\s+inf\s+(?P<low>\{[^}]*\}|[01]+)\s+sup\s+(?P<high>\{[^}]*\}|[01]+)"
)
_FORMULA_RE = re.compile(rf"formula\s+({IDENT_RE.pattern})\s*=\s*(.+)")


@dataclass(frozen=True)
class Query:
    kind: str  # "prob" | "cond" | "corr"
    f: Formula
    g: Formula | None = None


@dataclass
class KnowledgeBase:
    space: SampleSpace
    incidences: dict[str, Incidence] = field(default_factory=dict)
    bounds: list[tuple[Formula, Incidence, Incidence]] = field(default_factory=list)
    formulas: dict[str, Formula] = field(default_factory=dict)
    queries: list[Query] = field(default_factory=list)

    def environment(self) -> dict[str, Incidence]:
        """The exact incidences, for truth-functional evaluation."""
        return dict(self.incidences)

    def resolve(self, text: str) -> Formula:
        """Parse formula text in this KB's context: a name that a
        `formula` directive defined stands for the defined sentence."""
        return parse_formula(text, self.formulas)

    def initial_assignment(self) -> BoundAssignment:
        """Starting bounds for propagation: exact incidences pin their
        atom from both sides, bounds directives contribute partial pairs,
        formula definitions register their sentence with vacuous bounds,
        and every subformula of anything registered gets an entry."""
        assignment = BoundAssignment(self.space)
        for name, inc in self.incidences.items():
            assignment.declare(Atom(name), exact=inc)
        for sentence, low, high in self.bounds:
            assignment.declare(sentence, lower=low, upper=high)
        for sentence in self.formulas.values():
            assignment.declare(sentence)
        return assignment


def parse_kb(text: str) -> KnowledgeBase:
    """Parse KB text; raises KBError with a 1-based line number."""
    kb: KnowledgeBase | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        word = line.split(None, 1)[0]
        if word == "space":
            if kb is not None:
                raise KBError("duplicate space declaration", lineno)
            kb = _parse_space(line, lineno)
            continue
        if kb is None:
            raise KBError("the space must be declared before anything else", lineno)
        if word == "inc":
            _parse_inc(kb, line, lineno)
        elif word == "bounds":
            _parse_bounds(kb, line, lineno)
        elif word == "formula":
            _parse_formula_def(kb, line, lineno)
        elif word == "query":
            _parse_query(kb, line, lineno)
        else:
            raise KBError(f"unknown directive {word!r}", lineno)
    if kb is None:
        raise KBError("no space declaration found")
    return kb


def _parse_weight(text: str) -> tuple[int, int]:
    """A `space weights` entry as (numerator, denominator): `n/d` and `n`
    in ASCII digits are read with `int`, any other spelling (a decimal, a
    sign) with `parse_rational`, which also words every error."""
    numerator, slash, denominator = text.partition("/")
    if not slash:
        denominator = "1"
    if text.isascii() and numerator.isdigit() and denominator.isdigit() and denominator.strip("0"):
        return int(numerator), int(denominator)
    value = parse_rational(text)
    return value.numerator, value.denominator


def _parse_space(line: str, lineno: int) -> KnowledgeBase:
    parts = line.split()
    try:
        if len(parts) == 2 and parts[1] != "weights":
            return KnowledgeBase(SampleSpace.uniform(int(parts[1])))
        if len(parts) >= 3 and parts[1] == "weights":
            return KnowledgeBase(SampleSpace(map(_parse_weight, parts[2:])))
    except (ValueError, TypeError) as exc:
        raise KBError(str(exc), lineno) from None
    raise KBError("expected `space <N>` or `space weights <w1> <w2> ...`", lineno)


def _parse_inc(kb: KnowledgeBase, line: str, lineno: int) -> None:
    m = _INC_RE.fullmatch(line)
    if not m:
        raise KBError("expected `inc <name> = <bitstring or point set>`", lineno)
    name, value = m.group(1), m.group(2)
    if name in kb.incidences:
        raise KBError(f"duplicate incidence for {name!r}", lineno)
    if name in kb.formulas:
        raise KBError(f"{name!r} already names a formula", lineno)
    try:
        kb.incidences[name] = parse_incidence_text(value, kb.space.size)
    except ValueError as exc:
        raise KBError(str(exc), lineno) from None


def _parse_bounds(kb: KnowledgeBase, line: str, lineno: int) -> None:
    m = _BOUNDS_RE.fullmatch(line)
    if not m:
        raise KBError(
            "expected `bounds <name or (formula)> inf <incidence> sup <incidence>`", lineno
        )
    try:
        target = kb.resolve(m.group("target"))
        low = parse_incidence_text(m.group("low"), kb.space.size)
        high = parse_incidence_text(m.group("high"), kb.space.size)
    except (FormulaSyntaxError, ValueError) as exc:
        raise KBError(str(exc), lineno) from None
    kb.bounds.append((target, low, high))


def _parse_formula_def(kb: KnowledgeBase, line: str, lineno: int) -> None:
    m = _FORMULA_RE.fullmatch(line)
    if not m:
        raise KBError("expected `formula <name> = <formula>`", lineno)
    name = m.group(1)
    if name in kb.formulas:
        raise KBError(f"duplicate formula name {name!r}", lineno)
    if name in kb.incidences:
        raise KBError(f"{name!r} already names an incidence", lineno)
    try:
        sentence = kb.resolve(m.group(2))
    except FormulaSyntaxError as exc:
        raise KBError(str(exc), lineno) from None
    if name in atom_names(sentence):
        raise KBError(f"formula {name!r} refers to itself", lineno)
    kb.formulas[name] = sentence


def _parse_query(kb: KnowledgeBase, line: str, lineno: int) -> None:
    body = line.split(None, 1)[1] if len(line.split(None, 1)) == 2 else ""
    try:
        if body.startswith("prob "):
            kb.queries.append(Query("prob", kb.resolve(body[5:])))
            return
        if body.startswith("cond "):
            rest = body[5:]
            m = re.search(r"\bgiven\b", rest)
            if not m:
                raise KBError("expected `query cond <formula> given <formula>`", lineno)
            kb.queries.append(
                Query("cond", kb.resolve(rest[: m.start()]), kb.resolve(rest[m.end() :]))
            )
            return
        if body.startswith("corr "):
            rest = body[5:]
            if "," not in rest:
                raise KBError("expected `query corr <formula> , <formula>`", lineno)
            left, right = rest.split(",", 1)
            kb.queries.append(Query("corr", kb.resolve(left), kb.resolve(right)))
            return
    except FormulaSyntaxError as exc:
        raise KBError(str(exc), lineno) from None
    raise KBError("expected `query prob|cond|corr ...`", lineno)


def kb_fragment(space: SampleSpace, env: dict[str, Incidence]) -> str:
    """Serialise a space and exact incidences as KB directives, suitable
    for pasting into (or concatenating with) a KB file."""
    if space.is_uniform:
        lines = [f"space {space.size}"]
    else:
        lines = ["space weights " + " ".join(str(w) for w in space.weights)]
    for name, inc in env.items():
        lines.append(f"inc {name} = {inc.to_bitstring()}")
    return "\n".join(lines)
