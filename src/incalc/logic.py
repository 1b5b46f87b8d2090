"""Propositional sentences and their evaluation to incidences.

Connectives are truth functional over incidences: the incidence of a
compound sentence is a fixed set operation on the incidences of its parts,

    i(true)   = all points          i(~A)     = complement of i(A)
    i(false)  = no points           i(A & B)  = i(A) intersect i(B)
                                    i(A | B)  = i(A) union i(B)
                                    i(A -> B) = complement of i(A), union i(B)

with no independence assumption anywhere.  Equality on formulas is
structural; nothing here normalises or simplifies.

Concrete syntax: identifiers are atoms ([A-Za-z][A-Za-z0-9_]*), `true` and
`false` are constants, `~` binds tighter than `&`, which binds tighter
than `|`, which binds tighter than `->`; `&` and `|` associate left, `->`
associates right, and parentheses group.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Mapping

from .errors import FormulaSyntaxError, UnboundAtomError, WidthMismatchError
from .space import Incidence, SampleSpace


class Formula:
    """Base class for sentence nodes; subclasses are frozen dataclasses."""

    __slots__ = ()

    def __str__(self) -> str:
        return format_formula(self)


@dataclass(frozen=True)
class Top(Formula):
    pass


@dataclass(frozen=True)
class Bottom(Formula):
    pass


@dataclass(frozen=True)
class Atom(Formula):
    name: str

    def __post_init__(self):
        if not _IDENT_RE.fullmatch(self.name):
            raise ValueError(f"bad atom name: {self.name!r}")


@dataclass(frozen=True)
class Not(Formula):
    operand: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


TRUE = Top()
FALSE = Bottom()

Environment = Mapping[str, Incidence]

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_TOKEN_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*|->|[~&|()]")
_KEYWORDS = {"true": TRUE, "false": FALSE}


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise FormulaSyntaxError(f"unexpected character {text[pos]!r}", pos)
        tokens.append((m.group(), pos))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self) -> str | None:
        if self.index < len(self.tokens):
            return self.tokens[self.index][0]
        return None

    def pos(self) -> int:
        if self.index < len(self.tokens):
            return self.tokens[self.index][1]
        return len(self.text)

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise FormulaSyntaxError("unexpected end of input", self.pos())
        self.index += 1
        return tok

    def expect(self, tok: str) -> None:
        if self.peek() != tok:
            raise FormulaSyntaxError(f"expected {tok!r}", self.pos())
        self.index += 1

    def parse(self) -> Formula:
        f = self.implication()
        if self.peek() is not None:
            raise FormulaSyntaxError(f"unexpected {self.peek()!r}", self.pos())
        return f

    def implication(self) -> Formula:
        left = self.disjunction()
        if self.peek() == "->":
            self.take()
            return Implies(left, self.implication())
        return left

    def disjunction(self) -> Formula:
        f = self.conjunction()
        while self.peek() == "|":
            self.take()
            f = Or(f, self.conjunction())
        return f

    def conjunction(self) -> Formula:
        f = self.unary()
        while self.peek() == "&":
            self.take()
            f = And(f, self.unary())
        return f

    def unary(self) -> Formula:
        tok = self.peek()
        if tok is None:
            raise FormulaSyntaxError("unexpected end of input", self.pos())
        if tok == "~":
            self.take()
            return Not(self.unary())
        if tok == "(":
            self.take()
            f = self.implication()
            self.expect(")")
            return f
        if _IDENT_RE.fullmatch(tok):
            self.take()
            if tok in _KEYWORDS:
                return _KEYWORDS[tok]
            return Atom(tok)
        raise FormulaSyntaxError(f"unexpected {tok!r}", self.pos())


def parse_formula(text: str) -> Formula:
    """Parse concrete syntax into a Formula, or raise FormulaSyntaxError."""
    return _Parser(text).parse()


# Binding strength, loosest first; used to drop redundant parentheses.
_PREC_IMPLIES, _PREC_OR, _PREC_AND, _PREC_NOT = 1, 2, 3, 4


def format_formula(f: Formula) -> str:
    """Render with the fewest parentheses that re-parse to the same tree."""
    return _fmt(f, 0)


def _fmt(f: Formula, context: int) -> str:
    if isinstance(f, Top):
        return "true"
    if isinstance(f, Bottom):
        return "false"
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Not):
        return "~" + _fmt(f.operand, _PREC_NOT)
    if isinstance(f, And):
        text = f"{_fmt(f.left, _PREC_AND)} & {_fmt(f.right, _PREC_AND + 1)}"
        return f"({text})" if context > _PREC_AND else text
    if isinstance(f, Or):
        text = f"{_fmt(f.left, _PREC_OR)} | {_fmt(f.right, _PREC_OR + 1)}"
        return f"({text})" if context > _PREC_OR else text
    if isinstance(f, Implies):
        text = f"{_fmt(f.left, _PREC_IMPLIES + 1)} -> {_fmt(f.right, _PREC_IMPLIES)}"
        return f"({text})" if context > _PREC_IMPLIES else text
    raise TypeError(f"not a formula: {f!r}")


def children(f: Formula) -> tuple[Formula, ...]:
    if isinstance(f, Not):
        return (f.operand,)
    if isinstance(f, (And, Or, Implies)):
        return (f.left, f.right)
    return ()


def subformulas(f: Formula) -> Iterator[Formula]:
    """All nodes of f in preorder, duplicates included."""
    yield f
    for child in children(f):
        yield from subformulas(child)


def atom_names(f: Formula) -> set[str]:
    return {g.name for g in subformulas(f) if isinstance(g, Atom)}


def incidence_of(f: Formula, env: Environment, space: SampleSpace) -> Incidence:
    """Evaluate f to its incidence under exact atom incidences."""
    if isinstance(f, Top):
        return space.full()
    if isinstance(f, Bottom):
        return space.empty()
    if isinstance(f, Atom):
        inc = env.get(f.name)
        if inc is None:
            raise UnboundAtomError(f"atom {f.name!r} has no incidence")
        if inc.width != space.size:
            raise WidthMismatchError(
                f"incidence for {f.name!r} has width {inc.width}, space has {space.size}"
            )
        return inc
    if isinstance(f, Not):
        return incidence_of(f.operand, env, space).complement()
    if isinstance(f, And):
        return incidence_of(f.left, env, space) & incidence_of(f.right, env, space)
    if isinstance(f, Or):
        return incidence_of(f.left, env, space) | incidence_of(f.right, env, space)
    if isinstance(f, Implies):
        return incidence_of(f.left, env, space).complement() | incidence_of(f.right, env, space)
    raise TypeError(f"not a formula: {f!r}")


def holds_at(f: Formula, point: int, env: Environment) -> bool:
    """Pointwise truth of f at one sample-space point.

    Evaluating every point and collecting the true ones must agree with
    incidence_of; the point index is checked against the width of every
    incidence in the environment.
    """
    if point < 0:
        raise ValueError(f"point index must be >= 0, got {point}")
    for inc in env.values():
        if point >= inc.width:
            raise ValueError(f"point index {point} out of range for width {inc.width}")
    return _holds(f, point, env)


def _holds(f: Formula, point: int, env: Environment) -> bool:
    if isinstance(f, Top):
        return True
    if isinstance(f, Bottom):
        return False
    if isinstance(f, Atom):
        inc = env.get(f.name)
        if inc is None:
            raise UnboundAtomError(f"atom {f.name!r} has no incidence")
        return point in inc
    if isinstance(f, Not):
        return not _holds(f.operand, point, env)
    if isinstance(f, And):
        return _holds(f.left, point, env) and _holds(f.right, point, env)
    if isinstance(f, Or):
        return _holds(f.left, point, env) or _holds(f.right, point, env)
    if isinstance(f, Implies):
        return not _holds(f.left, point, env) or _holds(f.right, point, env)
    raise TypeError(f"not a formula: {f!r}")
