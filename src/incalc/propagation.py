"""Propagation of lower/upper incidence bounds across sentence structure.

When only some sentences have known (or partially known) incidences, each
sentence S carries a pair (lower, upper) with the guarantee

    lower(S)  is a subset of  i(S)  is a subset of  upper(S)

for the unknown true incidence i(S).  Throughout, w is the whole space,
\\ is set difference, and the axioms fix i(~A) = w \\ i(A),
i(A & B) = i(A) & i(B), i(A | B) = i(A) | i(B), and
i(A -> B) = (w \\ i(A)) | i(B).

Every connective is truth functional, so bounds travel between a
compound node C = op(A, B) and its operands by one update, read off op's
truth table (its `apply` at one point), which is generalised arc
consistency on C = op(A, B) (Mackworth 1977).  At each point a node may
be 0 outside its lower bound and may be 1 inside its upper bound; a
value stays possible where some row (x, y, op(x, y)) of the table
through it has all three of its values possible.  That is the update's
soundness: at a legal assignment's point, the values of A, B and C form
a row of the table, and each of them is possible since the bounds hold
there, so a value removed because no row through it has all three of
its values possible is one that no legal assignment uses.  Removing 0
raises a lower bound (by union) and removing 1 cuts an upper bound (by
intersection), so bounds only ever tighten.  Repeating the updates to a
fixed point is confluent: the final assignment does not depend on the
order of work, which the tests check by running the fixpoint on shuffled
worklists.

The update works each row on whole masks, a few int operations, and
writes back A's bounds, then B's, then C's, so a shared operand
(`a & a`, `~a`) needs no special case.  It takes the three nodes to
their local closure, as the tests check against a catalog of one-line
set inclusions for every state of the three nodes at widths 1 and 2.
The fixpoint loop works on two lists of bitmasks indexed by
registration position, with child and parent positions computed once
per call.  A compound node's plan is its operands' positions, read from
its first and last argument, and its connective's truth table.  The worklist is a FIFO queue (a `deque`, so
taking the next node costs O(1) however many are queued), each node in
it at most once; an update that changes a node's bounds wakes that node,
when compound, and its parents, all but the node that ran it, which the
update left closed.  An `Incidence` is built only where a bound is read
out.  `dump` renders all sentences from one text memo, each shared
subterm once, and reads each distinct mask's weight as an integer
numerator, so it builds one `Fraction` per distinct weight.

The fixed point is sound but not always tight: some instances admit
bounds strictly looser than the envelope of all legal assignments.
`propagate(..., mode="complete")` computes that envelope directly.
Because every connective is pointwise, the legal assignments factor point
by point, and the envelope is read off one matrix: points x 2^atoms
valuations, each cell saying whether the valuation is admitted at the
point.  Every node is evaluated once on a 2^atoms-bit truth table, and
the points are split into groups admitting equal sets of valuations,
which number at most the width.  The cost is the number of groups times
the number of distinct registered nodes, in operations on 2^atoms-bit
sets, and all the tables together take at most MAX_TABLE_BITS.  Every
atom is a registered node with its own table, so that budget alone
refuses 26 or more atoms.

Sentences are interned (see `incalc.logic`), so a subterm shared by many
sentences, or used twice in one, is one entry with one pair of bounds.
"""

from __future__ import annotations

import itertools
from collections import deque
from fractions import Fraction

from .errors import InstanceTooLargeError, UnknownSentenceError, WidthMismatchError
from .logic import (
    FALSE,
    TRUE,
    And,
    Atom,
    Formula,
    Implies,
    Not,
    Or,
    describe,
    evaluate,
    format_formulas,
)
from .rational import format_prob
from .record import Frozen
from .space import Incidence, SampleSpace, bitstring

FIXPOINT = "fixpoint"
INCONSISTENT = "inconsistent"

#: Complete mode refuses an instance as soon as its truth tables, one
#: per registered node, with one 2^atoms-bit set of admitted valuations
#: per group of points, would take more bits than this: 128 MB.
MAX_TABLE_BITS = 1 << 30


class BoundAssignment:
    """Mutable map from sentences to (lower, upper) incidence bounds.

    The bounds are two lists of int bitmasks, `_low` and `_high`, indexed
    by registration position (the dict `_position`); `_full` is the whole
    space, and reading a bound builds an `Incidence`.  Reports and dumps
    follow registration order.  Registering a sentence registers each
    distinct subformula once, in the first-occurrence preorder of
    `subformulas`, and walks no further down than the nodes already
    registered: unseen ones default to the vacuous bounds (empty,
    full), except the constants, whose incidences are forced by the
    axioms.  Declaring bounds for an already-known sentence merges them:
    lower bounds amalgamate by union, upper bounds by intersection, which
    can leave the entry inconsistent (lower not inside upper) for
    `check_consistency` or `propagate` to report.
    """

    def __init__(self, space: SampleSpace):
        self.space = space
        self._full = (1 << space.size) - 1
        self._position: dict[Formula, int] = {}
        self._low: list[int] = []
        self._high: list[int] = []

    def declare(
        self,
        sentence: Formula,
        lower: Incidence | None = None,
        upper: Incidence | None = None,
    ) -> None:
        """Register `sentence` and its subformulas, then merge `lower`
        into its lower bound and `upper` into its upper bound; passing
        one incidence as both pins the sentence to it."""
        # Every subformula of a registered node is registered, so the walk
        # descends only into new nodes: `subformulas`' preorder, less the
        # registered parts, at a cost linear in the nodes it registers.
        stack = [sentence]
        while stack:
            sub = stack.pop()
            if sub not in self._position:
                self._position[sub] = len(self._low)
                pinned = sub in (TRUE, FALSE)
                self._low.append(sub.apply(self._full) if pinned else 0)
                self._high.append(sub.apply(self._full) if pinned else self._full)
                stack.extend(reversed(sub.args))
        if lower is not None:
            self.raise_lower(sentence, lower)
        if upper is not None:
            self.cut_upper(sentence, upper)

    def sentences(self) -> tuple[Formula, ...]:
        return tuple(self._position)

    def _index(self, sentence: Formula) -> int:
        try:
            return self._position[sentence]
        except KeyError:
            raise UnknownSentenceError(f"no bounds registered for {describe(sentence)}") from None

    def _bits(self, inc: Incidence) -> int:
        if inc.width == self.space.size:
            return inc.bits
        raise WidthMismatchError(f"incidence width {inc.width} != space size {self.space.size}")

    def bounds(self, sentence: Formula) -> tuple[Incidence, Incidence]:
        i, width = self._index(sentence), self.space.size
        return Incidence(self._low[i], width), Incidence(self._high[i], width)

    def raise_lower(self, sentence: Formula, inc: Incidence) -> bool:
        """Union inc into the lower bound; True if it strictly grew."""
        bits, i = self._bits(inc), self._index(sentence)
        old, self._low[i] = self._low[i], self._low[i] | bits
        return self._low[i] != old

    def cut_upper(self, sentence: Formula, inc: Incidence) -> bool:
        """Intersect inc into the upper bound; True if it strictly shrank."""
        bits, i = self._bits(inc), self._index(sentence)
        old, self._high[i] = self._high[i], self._high[i] & bits
        return self._high[i] != old

    def copy(self) -> "BoundAssignment":
        dup = BoundAssignment(self.space)
        dup._position = dict(self._position)
        dup._low, dup._high = self._low.copy(), self._high.copy()
        return dup

    def dump(self) -> str:
        """One line per sentence in registration order:
        `<formula> inf=<bits> sup=<bits> p=[low, high]`.

        Each distinct mask is rendered once: its bit string by
        `space.bitstring`, its weight as an integer numerator over the
        space's common denominator.  Each distinct numerator becomes one
        `Fraction`, rendered once by `format_prob`."""
        space = self.space
        width, numerator, denominator = space.size, space._numerator, space._denominator
        probs: dict[int, str] = {}  # numerator -> its probability's rendering
        shown: dict[int, tuple[str, str]] = {}  # mask -> (bit string, probability)
        for mask in itertools.chain(self._low, self._high):
            if mask not in shown:
                n = numerator(mask)
                text = probs.get(n)
                if text is None:
                    text = probs[n] = format_prob(Fraction(n, denominator))
                shown[mask] = bitstring(mask, width), text
        lines = []
        for text, low, high in zip(format_formulas(self._position), self._low, self._high):
            (low_bits, low_p), (high_bits, high_p) = shown[low], shown[high]
            lines.append(f"{text} inf={low_bits} sup={high_bits} p=[{low_p}, {high_p}]")
        return "\n".join(lines)

    def __contains__(self, sentence: Formula) -> bool:
        return sentence in self._position

    def __iter__(self):
        return iter(self._position)

    def __len__(self) -> int:
        return len(self._position)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BoundAssignment):
            return NotImplemented
        mine = dict(zip(self._position, zip(self._low, self._high)))
        theirs = dict(zip(other._position, zip(other._low, other._high)))
        return self.space == other.space and mine == theirs


def check_consistency(assignment: BoundAssignment) -> Formula | None:
    """First sentence (in registration order) whose lower bound is not
    inside its upper bound, or None when every entry is consistent."""
    for sentence, low, high in zip(assignment, assignment._low, assignment._high):
        if low & ~high:
            return sentence
    return None


class PropagationOutcome(Frozen):
    """Result of `propagate`: final bounds, status, the culprit of an
    inconsistency, and the number of strict bound changes the updates
    made (each one either adds points to a lower bound or removes points
    from an upper bound, so the count is at most
    2 * width * number_of_sentences).  Complete mode runs no updates, so
    its `steps` is 0; when it finds no legal assignment, `final` is the
    declared bounds."""

    __slots__ = ("status", "culprit", "final", "steps")

    def __init__(self, status: str, culprit: Formula | None, final: BoundAssignment, steps: int):
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "culprit", culprit)
        object.__setattr__(self, "final", final)
        object.__setattr__(self, "steps", steps)

    @property
    def ok(self) -> bool:
        return self.status == FIXPOINT


# Each connective's truth table, read off `apply` at one point: the rows
# (x, y, op(x, y)), y = x when unary, as indexes into a node's six masks
# (where A may be 0, where A may be 1, then the same for B and for C).
_ROWS = {
    kind: tuple((p[0], 2 + p[-1], 4 + kind.apply(1, *p))
                for p in itertools.product((0, 1), repeat=len(kind.contexts)))
    for kind in (Not, And, Or, Implies)
}


def _run_fixpoint(assignment: BoundAssignment) -> PropagationOutcome:
    position, low, high = assignment._position, assignment._low, assignment._high
    full, sentences = assignment._full, list(position)
    # Per compound node: its operands' positions (B = A when unary) and
    # its connective's truth table.  A change to a node's bounds wakes
    # its parents in registration order, then the node itself when it is
    # compound.
    plans: list[tuple[int, int, tuple] | None] = []
    wakes: list[list[int]] = [[] for _ in sentences]
    for i, sentence in enumerate(sentences):
        args = sentence.args
        if args:
            a, b = position[args[0]], position[args[-1]]
            wakes[a].append(i)
            if b != a:
                wakes[b].append(i)
            plans.append((a, b, _ROWS[type(sentence)]))
        else:
            plans.append(None)
    queued = bytearray(plan is not None for plan in plans)
    pending = deque(itertools.compress(range(len(plans)), queued))
    for i in pending:
        wakes[i].append(i)
    steps = 0
    while pending:
        i = pending.popleft()
        queued[i] = 0
        a, b, rows = plans[i]
        # A value stays possible where some row through it does.
        may = (full ^ low[a], high[a], full ^ low[b], high[b], full ^ low[i], high[i])
        kept = [0] * 6
        for x, y, v in rows:
            t = may[x] & may[y] & may[v]
            kept[x] |= t
            kept[y] |= t
            kept[v] |= t
        # Operands first, so that a point the update empties surfaces on
        # A.  The three nodes are left closed here, so i is not woken.
        for t, k in ((a, 0), (b, 2), (i, 4)):
            lo, hi = low[t] | full ^ kept[k], high[t] & kept[k + 1]
            changed = (lo != low[t]) + (hi != high[t])
            if changed:
                steps += changed
                low[t], high[t] = lo, hi
                if lo & ~hi:
                    return PropagationOutcome(INCONSISTENT, sentences[t], assignment, steps)
                for p in wakes[t]:
                    if not queued[p] and p != i:
                        queued[p] = 1
                        pending.append(p)
    return PropagationOutcome(FIXPOINT, None, assignment, steps)


def _run_envelope(assignment: BoundAssignment) -> PropagationOutcome:
    """Exact envelope of the legal assignments, read off the matrix of
    points x 2^atoms valuations one group of equal rows at a time.

    Every connective acts point by point, so an assignment is legal
    exactly when its valuation at each point is admitted there, and the
    legal assignments are all ways of picking one admitted valuation per
    point.  Bit v of a node's truth table is its value under valuation
    v: atom k's table repeats 2^k zeros then 2^k ones, and every other
    node is evaluated once on its children's tables.

    The points start as one group admitting every valuation.  Each
    sentence whose bounds constrain some point splits every group into
    its part inside the lower bound, whose admitted valuations A keep
    only the sentence's table, its part outside the upper bound, where A
    keeps only the table's complement, and the rest; parts left with
    equal A merge, so the groups never outnumber the points or the
    distinct admitted sets.  A part left with no admitted valuation
    makes the instance inconsistent.  Sentences are read in registration
    order, so the culprit, the sentence that emptied A at the lowest such
    point, ends the shortest prefix admitting nothing there.  Otherwise a
    sentence's lower bound gets a group iff A lies inside its table, and
    its upper bound iff A meets it.
    """
    sentences = assignment.sentences()
    atoms = [f for f in sentences if isinstance(f, Atom)]
    _check_table_bits(len(sentences), len(atoms))
    valuations = 1 << len(atoms)
    every = (1 << valuations) - 1
    tables = {}
    for k, atom in enumerate(atoms):
        half = 1 << k
        table, span = ((1 << half) - 1) << half, 2 * half  # one period
        while span < valuations:
            table, span = table | table << span, 2 * span
        tables[atom] = table
    evaluate(sentences, tables, every)
    truths = [tables[f] for f in sentences]
    full = assignment._full
    groups = {every: full}  # admitted valuations -> the points admitting exactly those
    first = culprit = None  # lowest point (as a one-bit mask) left with none, and why
    for i, (low, high) in enumerate(zip(assignment._low, assignment._high)):
        out = full & ~high
        if not low | out:
            continue
        sides = (truths[i], ~truths[i])
        split = {}
        for valid, points in groups.items():
            inside, outside = points & low, points & out
            if inside or outside:
                for part, table in zip((inside, outside), sides):
                    if not part:
                        continue
                    kept = valid & table
                    if kept:
                        split[kept] = split.get(kept, 0) | part
                    elif first is None or part & -part < first:
                        first, culprit = part & -part, sentences[i]
                points ^= inside | outside
                if not points:
                    continue
            split[valid] = split.get(valid, 0) | points
        groups = split
        _check_table_bits(len(sentences) + len(groups), len(atoms))
    if culprit is not None:
        return PropagationOutcome(INCONSISTENT, culprit, assignment, 0)
    lower = [0] * len(sentences)
    upper = [0] * len(sentences)
    for valid, points in groups.items():
        for j, truth in enumerate(truths):
            hit = valid & truth
            if hit:
                upper[j] |= points
                if hit == valid:
                    lower[j] |= points
    assignment._low, assignment._high = lower, upper
    return PropagationOutcome(FIXPOINT, None, assignment, 0)


def _check_table_bits(tables: int, atoms: int) -> None:
    """Refuse an envelope that would hold more than MAX_TABLE_BITS bits
    in `tables` sets of 2^atoms valuations."""
    if tables << atoms > MAX_TABLE_BITS:
        raise InstanceTooLargeError(
            f"the exact envelope over {atoms} atoms needs {tables} tables of 2^{atoms} bits"
            f" (truth tables and admitted sets), over its limit of {MAX_TABLE_BITS >> 23} MB"
        )


def propagate(initial: BoundAssignment, mode: str = "fixpoint") -> PropagationOutcome:
    """Tighten bounds to the fixed point of the local updates, or compute
    the exact envelope.

    The input assignment is not touched; the outcome holds a private
    copy.  With mode="fixpoint" the updates run to their fixed point,
    taking the queued nodes first in, first out; the fixed point does not
    depend on that order, only the step count does.  With mode="complete" the
    bounds become exactly the envelope of the legal assignments, computed
    over the groups of points that admit equal sets of valuations, at a
    cost of the groups times the registered nodes in operations on
    2^atoms-bit truth tables.  Instances whose truth tables, one per
    registered node (so one per atom at least), and admitted sets, one
    per group, would take more than MAX_TABLE_BITS (128 MB) raise
    InstanceTooLargeError.  The truth tables are counted before any is
    built, so 26 or more atoms are refused at once, whatever the width.
    The budget counts bits, and memory runs higher: an int keeps 30 bits
    per 32-bit digit, and the splits build transient sets (22 atoms, 64
    nodes: 65 tables counted, a tracemalloc peak of 73.6 tables).

    A lower bound escaping its upper bound is reported eagerly via the
    outcome's culprit, and propagation stops there.  Before the updates
    the culprit is the first such sentence in registration order; during
    them it is the first operand of the node whose update first empties
    a point, leaving no value possible there for it.  When complete mode
    finds that no valuation is admitted at some point, the instance has
    no legal assignment: the outcome keeps the declared bounds, `steps`
    is 0, and the culprit is found at the lowest such point, as the
    sentence that ends the shortest registration-order prefix of
    sentences whose bounds already admit no valuation there.
    """
    if mode not in (FIXPOINT, "complete"):
        raise ValueError(f"unknown mode {mode!r}")
    work = initial.copy()
    bad = check_consistency(work)
    if bad is not None:
        return PropagationOutcome(INCONSISTENT, bad, work, 0)
    if mode == "complete":
        return _run_envelope(work)
    return _run_fixpoint(work)
