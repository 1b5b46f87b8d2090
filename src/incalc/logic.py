"""Propositional sentences and their evaluation to incidences.

Connectives are truth functional over incidences: the incidence of a
compound sentence is a fixed set operation on the incidences of its parts,

    i(true)   = all points          i(~A)     = complement of i(A)
    i(false)  = no points           i(A & B)  = i(A) intersect i(B)
                                    i(A | B)  = i(A) union i(B)
                                    i(A -> B) = complement of i(A), union i(B)

with no independence assumption anywhere.  Formulas are interned:
building a node equal to one that already exists returns that node, so
equal formulas are the same object, hashing is O(1), and a sentence that
uses a subterm twice stores it once.  The intern table is a plain dict
from (class, *args) to a weak reference to the node, so it keeps no node
alive: a lookup is one `dict.get` and one call of the reference, taken
without a lock, since a live node found there is the one node of its
key.  Only a miss, or an entry whose node has died, takes the interning
lock and looks again under it before building a node.  A node's entry
leaves the table when the node dies, unless a new node has taken its
key by then.  The walks below visit each distinct node once and never
recurse, so cost follows the number of distinct nodes and depth is
unbounded.  Nothing here normalises or simplifies.

Concrete syntax: identifiers are atoms ([A-Za-z][A-Za-z0-9_]*), `true` and
`false` are constants (so they name no atom, incidence, formula, column
or target; see `is_name`), `~` binds tighter than `&`, which binds tighter
than `|`, which binds tighter than `->`; `&` and `|` associate left, `->`
associates right, and parentheses group.  Each connective class is the
single definition of its syntax (`symbol`, `prec`, `contexts`), which
the parser and the formatter both read.
"""

from __future__ import annotations

import itertools
import re
import threading
import weakref
from _weakref import _remove_dead_weakref
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping
from operator import attrgetter

from .errors import (
    FormulaSyntaxError,
    InstanceTooLargeError,
    UnboundAtomError,
    WidthMismatchError,
)
from .rational import exact_str
from .space import Incidence, SampleSpace

_serials = itertools.count()
_by_serial = attrgetter("serial")
_interning = threading.Lock()  # one node per key, even under threads

# Characters that one call of `format_formulas` may render, in total.  A
# chain of definitions that each use the previous name twice doubles its
# text per line, so 40 lines would print terabytes.
MAX_TEXT = 1 << 26


class _Entry(weakref.ref):
    """The intern table's reference to a node, holding the node's key
    for the one callback that all entries share."""

    __slots__ = ("key",)


def _forget(entry: _Entry) -> None:
    """Drop a dead node's entry.  It runs wherever the node dies, even
    inside `Formula.__new__`, so it takes no lock: `_remove_dead_weakref`
    drops the entry in one atomic step, and only while it is still dead,
    never a live entry made since for the same key."""
    _remove_dead_weakref(_nodes, entry.key)


_nodes: dict[tuple, _Entry] = {}  # (class, *args) -> its node's entry


class Formula:
    """An interned sentence node.

    `args` holds the child nodes and `serial` counts node creations;
    children exist before their parents, so sorting nodes by serial puts
    every child before its parents.  `apply(full, *child_masks)` is the
    connective as a set operation on bitmasks, `full` being every point.
    For rendering, `prec` is the binding strength and `contexts` holds
    the strength each child position demands, one entry per child.
    """

    __slots__ = ("args", "serial", "__weakref__")
    prec, contexts = 5, ()

    def __new__(cls, *args):
        key = (cls, *args)
        ref = _nodes.get(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        with _interning:  # a miss, or a dead entry: look again under the lock
            ref = _nodes.get(key)
            node = ref and ref()
            if node is None:
                node = object.__new__(cls)
                node._init(*args)
                node.serial = next(_serials)
                ref = _nodes[key] = _Entry(node, _forget)
                ref.key = key
        return node

    def _init(self, *args) -> None:
        operands = map(isinstance, args, itertools.repeat(Formula))
        if len(args) != len(self.contexts) or not all(operands):
            raise TypeError(f"bad operands for {type(self).__name__}: {args!r}")
        self.args = args

    def __repr__(self) -> str:
        note = _too_long(self)
        return f"<{note}>" if note else f"parse_formula({format_formula(self)!r})"


class Top(Formula):
    symbol = "true"
    apply = staticmethod(lambda full: full)


class Bottom(Formula):
    symbol = "false"
    apply = staticmethod(lambda full: 0)


class Atom(Formula):
    __slots__ = ("name",)
    symbol = property(attrgetter("name"))

    def _init(self, name: str) -> None:
        if not is_name(name):
            raise ValueError(f"bad atom name: {name!r}")
        self.name, self.args = name, ()


class Not(Formula):
    prec, symbol, contexts = 4, "~", (4,)
    apply = staticmethod(lambda full, a: full ^ a)


class And(Formula):
    prec, symbol, contexts = 3, " & ", (3, 4)
    apply = staticmethod(lambda full, a, b: a & b)


class Or(Formula):
    prec, symbol, contexts = 2, " | ", (2, 3)
    apply = staticmethod(lambda full, a, b: a | b)


class Implies(Formula):
    prec, symbol, contexts = 1, " -> ", (2, 1)
    apply = staticmethod(lambda full, a, b: (full ^ a) | b)


TRUE = Top()
FALSE = Bottom()

Environment = Mapping[str, Incidence]

IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_CONSTANTS = {c.symbol: c for c in (TRUE, FALSE)}
_BINARY = {cls.symbol.strip(): cls for cls in (And, Or, Implies)}
_SYMBOLS = "|".join(map(re.escape, [*_BINARY, Not.symbol, "(", ")"]))
# One token per match: its text in the group, or an empty group for a
# character that starts no token.  Whitespace matches nothing.
_TOKEN_RE = re.compile(rf"({IDENT_RE.pattern}|{_SYMBOLS})|\S")
# Every token but an identifier; None is the end of the text.
_SYNTAX = frozenset([*_BINARY, Not.symbol, "(", ")", None])


def is_name(text: str) -> bool:
    """True when `text` can name an atom: an identifier other than `true`
    and `false`, which always parse as the constants."""
    return IDENT_RE.fullmatch(text) is not None and text not in _CONSTANTS


def parse_formula(text: str, definitions: Mapping[str, Formula] | None = None) -> Formula:
    """Parse concrete syntax into a Formula, or raise FormulaSyntaxError.

    An identifier named in `definitions` stands for that node itself, so
    a defined sentence is shared by every formula that uses its name.

    One `findall` splits the text into token strings, and a character
    that starts no token is reported first, wherever it is.  Then one
    loop over the strings, with no recursion: operands wait on one stack
    and connectives on another.  A binary connective C arriving first
    builds every waiting connective that binds at least as tightly as C's
    left operand demands (`prec >= C.contexts[0]`), the test
    `format_formula` uses to leave out parentheses, so `&` and `|`
    associate left and `->` right.  A token's position is worked out
    only when it is reported.
    """
    tokens: list[str | None] = _TOKEN_RE.findall(text)
    if "" in tokens:
        pos = _token_start(text, tokens.index(""))
        raise FormulaSyntaxError(f"unexpected character {text[pos]!r}", pos)
    tokens.append(None)  # the end of the text
    definitions = definitions or {}
    operands: list[Formula] = []
    waiting: list[type[Formula] | None] = []  # None marks an open parenthesis
    depth = 0  # open parentheses
    want_operand = True
    for k, token in enumerate(tokens):
        if want_operand:
            if token not in _SYNTAX:  # an identifier
                operands.append(_CONSTANTS.get(token) or definitions.get(token) or Atom(token))
                want_operand = False
            elif token == Not.symbol:
                waiting.append(Not)
            elif token == "(":
                waiting.append(None)
                depth += 1
            else:
                message = "unexpected end of input" if token is None else f"unexpected {token!r}"
                raise FormulaSyntaxError(message, _token_start(text, k))
            continue
        binary = _BINARY.get(token)
        if binary is None and not (token == ")" and depth):
            if depth:
                raise FormulaSyntaxError("expected ')'", _token_start(text, k))
            if token is not None:
                raise FormulaSyntaxError(f"unexpected {token!r}", _token_start(text, k))
        floor = binary.contexts[0] if binary else 0
        while waiting and waiting[-1] is not None and waiting[-1].prec >= floor:
            connective = waiting.pop()
            if connective is Not:
                operands[-1] = Not(operands[-1])
            else:
                right = operands.pop()
                operands[-1] = connective(operands[-1], right)
        if binary:
            waiting.append(binary)
            want_operand = True
        elif token == ")":
            waiting.pop()
            depth -= 1
    return operands[0]


def _token_start(text: str, k: int) -> int:
    """Where token k of `text` starts, counting a character that starts
    no token as one; the end of the text when there are only k."""
    for m in itertools.islice(_TOKEN_RE.finditer(text), k, None):
        return m.start()
    return len(text)


def format_formulas(nodes: Iterable[Formula]) -> list[str]:
    """Render each of `nodes` with the fewest parentheses that re-parse to
    the same tree.

    Each distinct node below them is rendered once, children first, from
    its children's text, so a subterm shared by many of them costs one
    rendering.  The text of a node not asked for is dropped after its last
    use, so a deep chain holds no more than the asked-for text at any time.

    Each node's rendered length is counted first, one int per node, and
    asked-for text longer than MAX_TEXT characters in total raises
    InstanceTooLargeError before any text is built.
    """
    nodes = list(nodes)
    wanted = set(nodes)
    order = _by_serial_below(wanted)
    length = _text_lengths(order)
    total = 0
    for k, f in enumerate(nodes, 1):
        total += length[f]
        if total > MAX_TEXT:
            raise InstanceTooLargeError(
                f"sentence {k} of {len(nodes)} renders as {exact_str(length[f])} characters,"
                f" taking the text past the limit of {MAX_TEXT} characters"
            )
    # Uses left of each node nobody asked for; when every node was asked
    # for, as in a dump, nothing is counted.
    uses = {}
    if len(order) > len(wanted):
        uses = Counter(a for g in order for a in g.args if a not in wanted)
    text: dict[Formula, str] = {}
    for g in order:
        parts = []
        for a, context in zip(g.args, g.contexts):
            part = text[a]
            if a in uses:
                uses[a] -= 1
                if not uses[a]:
                    del text[a]
            parts.append(f"({part})" if a.prec < context else part)
        text[g] = g.symbol.join(parts) if len(parts) == 2 else g.symbol + "".join(parts)
    return [text[f] for f in nodes]


def _by_serial_below(wanted: set[Formula]) -> list[Formula]:
    """Every distinct node in or below `wanted`, by serial, so children
    first: one set closure that pushes only nodes not yet seen."""
    below, stack = set(wanted), list(wanted)
    while stack:
        for a in stack.pop().args:
            if a not in below:
                below.add(a)
                stack.append(a)
    return sorted(below, key=_by_serial)


def _text_lengths(order: list[Formula]) -> dict[Formula, int]:
    """Each node's rendered length, one int per node, children first:
    `order` holds every node below the ones asked for, by serial."""
    length: dict[Formula, int] = {}
    for g in order:
        n = len(g.symbol)
        for a, context in zip(g.args, g.contexts):
            n += length[a] + (2 if a.prec < context else 0)  # parentheses
        length[g] = n
    return length


def format_formula(f: Formula) -> str:
    """One formula's text, as `format_formulas` renders it."""
    return format_formulas((f,))[0]


def _too_long(f: Formula) -> str | None:
    """A note of `f`'s length when its text passes MAX_TEXT characters,
    counted without rendering it; None when the text fits."""
    n = _text_lengths(_by_serial_below({f}))[f]
    return f"a sentence of {exact_str(n)} characters, too long to render" if n > MAX_TEXT else None


def describe(f: Formula) -> str:
    """`f` for a message: its text, or the note `_too_long` makes, so
    that naming a sentence in an error never fails."""
    return _too_long(f) or format_formula(f)


def subformulas(*roots: Formula) -> Iterator[Formula]:
    """Each distinct node below `roots` once, in preorder of first
    occurrence: each root in turn, then the nodes of each child left to
    right, skipping nodes already seen."""
    seen = set()
    stack = list(reversed(roots))
    while stack:
        g = stack.pop()
        if g not in seen:
            seen.add(g)
            yield g
            stack.extend(reversed(g.args))


def evaluate(nodes: Iterable[Formula], value: dict[Formula, int], full: int) -> dict[Formula, int]:
    """Extend `value`, which maps every atom below `nodes` to a bitmask,
    to each non-atom among `nodes`, children first: one set operation
    per node, `full` being the mask of all points.  Every non-atom below
    one of `nodes` must be among them or already in `value`."""
    for g in sorted((g for g in nodes if not isinstance(g, Atom)), key=_by_serial):
        value[g] = g.apply(full, *map(value.__getitem__, g.args))
    return value


def incidence_of(f: Formula, env: Environment, space: SampleSpace) -> Incidence:
    """Evaluate f to its incidence under exact atom incidences, with one
    set operation per distinct node."""
    nodes = list(subformulas(f))
    value = {}
    for g in nodes:
        if isinstance(g, Atom):
            inc = env.get(g.name)
            if inc is None:
                raise UnboundAtomError(f"atom {g.name!r} has no incidence")
            if inc.width != space.size:
                raise WidthMismatchError(
                    f"incidence for {g.name!r} has width {inc.width}, space has {space.size}"
                )
            value[g] = inc.bits
    evaluate(nodes, value, space.full().bits)
    return Incidence(value[f], space.size)
