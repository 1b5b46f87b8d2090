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
from collections.abc import Iterator
from itertools import repeat
from operator import itemgetter

from .errors import IncalcError, KBError
from .logic import IDENT_RE, Atom, Formula, is_name, parse_formula
from .propagation import BoundAssignment
from .rational import as_ratio
from .record import Frozen, Record
from .space import Incidence, SampleSpace, parse_incidence_text

_INC_RE = re.compile(rf"inc\s+({IDENT_RE.pattern})\s*=\s*(.+)")
_BOUNDS_RE = re.compile(
    r"bounds\s+(?P<target>.+?)\s+inf\s+(?P<low>\{[^}]*\}|[01]+)\s+sup\s+(?P<high>\{[^}]*\}|[01]+)"
)
_FORMULA_RE = re.compile(rf"formula\s+({IDENT_RE.pattern})\s*=\s*(.+)")
_QUERY_RE = re.compile(r"query\s+(prob|cond|corr)\s+(.+)")


class Query(Frozen):
    __slots__ = ("kind", "f", "g")

    def __init__(self, kind: str, f: Formula, g: Formula | None = None):
        object.__setattr__(self, "kind", kind)  # "prob" | "cond" | "corr"
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "g", g)


class KnowledgeBase(Record):
    __slots__ = ("space", "incidences", "bounds", "formulas", "queries", "_defined_atoms")

    def __init__(
        self,
        space: SampleSpace,
        incidences: dict[str, Incidence] | None = None,
        bounds: list[tuple[Formula, Incidence, Incidence]] | None = None,
        formulas: dict[str, Formula] | None = None,
        queries: list[Query] | None = None,
    ):
        self.space = space
        self.incidences = {} if incidences is None else incidences
        self.bounds = [] if bounds is None else bounds
        self.formulas = {} if formulas is None else formulas
        self.queries = [] if queries is None else queries
        # The atom names below the `formula` definitions read so far.
        self._defined_atoms = set()

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
            assignment.declare(Atom(name), inc, inc)
        for sentence, low, high in self.bounds:
            assignment.declare(sentence, lower=low, upper=high)
        for sentence in self.formulas.values():
            assignment.declare(sentence)
        return assignment


def directive_lines(text: str) -> Iterator[tuple[int, str]]:
    """The lines of `text` that have content once their '#' comment is
    cut, as (1-based line number, stripped text).  Every line-oriented
    input (KB, targets, records) is read through this one scanner.  A line
    ends at '\\n', '\\r\\n' or '\\r' only: a form feed, '\\x85', U+2028 and
    the other breaks of `str.splitlines` are whitespace inside a line.
    The text is split once and each line cut, stripped, numbered and kept
    by C-level iterators, with no Python frame per line; comments are cut
    only when the text holds a '#'."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if "#" in text:
        lines = map(itemgetter(0), map(str.partition, lines, repeat("#")))
    return filter(itemgetter(1), enumerate(map(str.strip, lines), 1))


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
        except (IncalcError, ValueError) as exc:
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
        return KnowledgeBase(SampleSpace(parts[2:]))
    raise KBError("expected `space <N>` or `space weights <w1> <w2> ...`")


def _parse_inc(kb: KnowledgeBase, line: str) -> None:
    m = _INC_RE.fullmatch(line)
    if not m:
        raise KBError("expected `inc <name> = <bitstring or point set>`")
    name, value = m.group(1), m.group(2)
    if not is_name(name):
        raise KBError(f"{name!r} is a constant and cannot name an incidence")
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
    if not is_name(name):
        raise KBError(f"{name!r} is a constant and cannot name a formula")
    if name in kb.formulas:
        raise KBError(f"duplicate formula name {name!r}")
    if name in kb.incidences:
        raise KBError(f"{name!r} already names an incidence")
    text = m.group(2)
    sentence = kb.resolve(text)
    # The parse took every identifier of the text as a token, so the atoms
    # this line adds are its identifiers that name no earlier definition
    # and no constant.  Any other atom below the sentence is below an
    # earlier definition that the line names, as after `formula c = b & x`,
    # `formula b = c | x` refers to itself; only such a name needs a walk.
    atoms = {t for t in IDENT_RE.findall(text) if t not in kb.formulas and is_name(t)}
    if name in atoms or name in kb._defined_atoms and _holds_atom(sentence, Atom(name)):
        raise KBError(f"formula {name!r} refers to itself")
    kb._defined_atoms |= atoms
    kb.formulas[name] = sentence


def _holds_atom(sentence: Formula, atom: Atom) -> bool:
    """Whether `atom` is below `sentence`.  Children are built before
    their parents, so a node with a lower serial than the atom's cannot
    hold it, and the walk skips every such node: a line that reuses a
    long definition built before the atom walks none of it."""
    oldest, seen, stack = atom.serial, set(), [sentence]
    while stack:
        node = stack.pop()
        if node is atom:
            return True
        if node.serial > oldest and node not in seen:
            seen.add(node)
            stack.extend(node.args)
    return False


def _parse_query(kb: KnowledgeBase, line: str) -> None:
    m = _QUERY_RE.fullmatch(line)
    if not m:
        raise KBError("expected `query prob|cond|corr ...`")
    kind, rest = m.groups()
    if kind == "prob":
        kb.queries.append(Query("prob", kb.resolve(rest)))
    elif kind == "cond":
        m = re.search(r"\bgiven\b", rest)
        if not m:
            raise KBError("expected `query cond <formula> given <formula>`")
        kb.queries.append(
            Query("cond", kb.resolve(rest[: m.start()]), kb.resolve(rest[m.end() :]))
        )
    else:
        if "," not in rest:
            raise KBError("expected `query corr <formula> , <formula>`")
        left, right = rest.split(",", 1)
        kb.queries.append(Query("corr", kb.resolve(left), kb.resolve(right)))


def kb_fragment(space: SampleSpace, env: dict[str, Incidence]) -> str:
    """Serialise a space and exact incidences as KB directives, suitable
    for pasting into (or concatenating with) a KB file."""
    if space.is_uniform:
        lines = [f"space {space.size}"]
    else:
        lines = ["space weights " + " ".join(space.map_weights(str))]
    for name, inc in env.items():
        lines.append(f"inc {name} = {inc.to_bitstring()}")
    return "\n".join(lines)
