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
A weight and N are read by the `rational` module.  `directive_lines` is the
line scanner that the KB, targets and records formats share; `parse_kb`
attaches the line number to every directive's error in one place.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterator

from .errors import IncalcError, KBError
from .logic import IDENT_RE, Atom, Formula, atom_names, parse_formula
from .propagation import BoundAssignment
from .rational import as_ratio, parse_rational
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


def directive_lines(text: str) -> Iterator[tuple[int, str]]:
    """The lines of `text` that have content once their '#' comment is
    cut, as (1-based line number, stripped text).  Every line-oriented
    input (KB, targets, records) is read through this one scanner."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_kb(text: str) -> KnowledgeBase:
    """Parse KB text; raises KBError with a 1-based line number."""
    kb: KnowledgeBase | None = None
    for lineno, line in directive_lines(text):
        word = line.split(None, 1)[0]
        try:
            if word == "space":
                if kb is not None:
                    raise KBError("duplicate space declaration")
                kb = _parse_space(line)
            elif kb is None:
                raise KBError("the space must be declared before anything else")
            elif word == "inc":
                _parse_inc(kb, line)
            elif word == "bounds":
                _parse_bounds(kb, line)
            elif word == "formula":
                _parse_formula_def(kb, line)
            elif word == "query":
                _parse_query(kb, line)
            else:
                raise KBError(f"unknown directive {word!r}")
        except (IncalcError, ValueError, TypeError) as exc:
            raise KBError(str(exc), lineno) from None
    if kb is None:
        raise KBError("no space declaration found")
    return kb


def _parse_space(line: str) -> KnowledgeBase:
    parts = line.split()
    if len(parts) == 2 and parts[1] != "weights":
        size, denominator = as_ratio(parts[1])
        if denominator != 1:
            raise KBError(f"space size must be a whole number, got {parts[1]!r}")
        return KnowledgeBase(SampleSpace.uniform(size))
    if len(parts) >= 3 and parts[1] == "weights":
        return KnowledgeBase(SampleSpace(map(parse_rational, parts[2:])))
    raise KBError("expected `space <N>` or `space weights <w1> <w2> ...`")


def _parse_inc(kb: KnowledgeBase, line: str) -> None:
    m = _INC_RE.fullmatch(line)
    if not m:
        raise KBError("expected `inc <name> = <bitstring or point set>`")
    name, value = m.group(1), m.group(2)
    if name in kb.incidences:
        raise KBError(f"duplicate incidence for {name!r}")
    if name in kb.formulas:
        raise KBError(f"{name!r} already names a formula")
    kb.incidences[name] = parse_incidence_text(value, kb.space.size)


def _parse_bounds(kb: KnowledgeBase, line: str) -> None:
    m = _BOUNDS_RE.fullmatch(line)
    if not m:
        raise KBError("expected `bounds <name or (formula)> inf <incidence> sup <incidence>`")
    target = kb.resolve(m.group("target"))
    low = parse_incidence_text(m.group("low"), kb.space.size)
    high = parse_incidence_text(m.group("high"), kb.space.size)
    kb.bounds.append((target, low, high))


def _parse_formula_def(kb: KnowledgeBase, line: str) -> None:
    m = _FORMULA_RE.fullmatch(line)
    if not m:
        raise KBError("expected `formula <name> = <formula>`")
    name = m.group(1)
    if name in kb.formulas:
        raise KBError(f"duplicate formula name {name!r}")
    if name in kb.incidences:
        raise KBError(f"{name!r} already names an incidence")
    sentence = kb.resolve(m.group(2))
    if name in atom_names(sentence):
        raise KBError(f"formula {name!r} refers to itself")
    kb.formulas[name] = sentence


def _parse_query(kb: KnowledgeBase, line: str) -> None:
    body = line.split(None, 1)[1] if len(line.split(None, 1)) == 2 else ""
    if body.startswith("prob "):
        kb.queries.append(Query("prob", kb.resolve(body[5:])))
    elif body.startswith("cond "):
        rest = body[5:]
        m = re.search(r"\bgiven\b", rest)
        if not m:
            raise KBError("expected `query cond <formula> given <formula>`")
        kb.queries.append(
            Query("cond", kb.resolve(rest[: m.start()]), kb.resolve(rest[m.end() :]))
        )
    elif body.startswith("corr "):
        rest = body[5:]
        if "," not in rest:
            raise KBError("expected `query corr <formula> , <formula>`")
        left, right = rest.split(",", 1)
        kb.queries.append(Query("corr", kb.resolve(left), kb.resolve(right)))
    else:
        raise KBError("expected `query prob|cond|corr ...`")


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
