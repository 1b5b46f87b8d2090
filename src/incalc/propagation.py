"""Propagation of lower/upper incidence bounds across sentence structure.

When only some sentences have known (or partially known) incidences, each
sentence S carries a pair (lower, upper) with the guarantee

    lower(S)  is a subset of  i(S)  is a subset of  upper(S)

for the unknown true incidence i(S).  Local rules transfer information
between a compound sentence and its direct parts: each rule either raises
a lower bound (by union) or cuts an upper bound (by intersection), so
bounds only ever tighten.  Repeating the rules to a fixed point is
confluent: the final assignment does not depend on the order in which
rules fire, which `propagate` exploits by allowing a shuffled worklist.

Soundness of every rule is a one-line set inclusion; see the `note` field
on each catalog entry.  Throughout, w is the whole space, \\ is set
difference, and the axioms fix i(~A) = w \\ i(A), i(A & B) = i(A) & i(B),
i(A | B) = i(A) | i(B), and i(A -> B) = (w \\ i(A)) | i(B).

Every connective is a set operation, so a rule is one or two int mask
operations.  The fixpoint loop works on two lists of bitmasks indexed by
registration position, with child and parent positions computed once per
call; an `Incidence` is built only where a bound is read out.  `dump`
renders all sentences from one text memo, each shared subterm once.

The fixed point is sound but not always tight: some instances admit
bounds strictly looser than the envelope of all legal assignments.
`propagate(..., mode="complete")` computes that envelope directly.
Because every connective is pointwise, the legal assignments factor point
by point: one pass over the 2^atoms valuations, each evaluated at all
points at once, finds the valuations admitted at every point.  Each
valuation costs one set operation per distinct registered node, so the
cost is 2^atoms times that node count, and never grows with the width.

Sentences are interned (see `incalc.logic`), so a subterm shared by many
sentences, or used twice in one, is one entry with one pair of bounds.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

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
    evaluate,
    evaluation_order,
    format_formulas,
    subformulas,
)
from .rational import format_prob
from .space import Incidence, SampleSpace

FIXPOINT = "fixpoint"
INCONSISTENT = "inconsistent"

#: Complete mode refuses instances with more atoms than this: its one
#: pass visits all 2^atoms valuations.
MAX_ATOMS = 16


class BoundAssignment:
    """Mutable map from sentences to (lower, upper) incidence bounds.

    The bounds are two lists of int bitmasks, `_low` and `_high`, indexed
    by registration position (the dict `_position`); `_full` is the whole
    space, and reading a bound builds an `Incidence`.  Reports and dumps
    follow registration order.  Registering a sentence registers each
    distinct subformula once, in the first-occurrence preorder of
    `subformulas`: unseen ones default to the vacuous bounds (empty,
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
        exact: Incidence | None = None,
    ) -> None:
        if exact is not None:
            if lower is not None or upper is not None:
                raise ValueError("pass either exact or lower/upper, not both")
            lower = upper = exact
        for sub in subformulas(sentence):
            if sub not in self._position:
                self._position[sub] = len(self._low)
                pinned = sub in (TRUE, FALSE)
                self._low.append(sub.apply(self._full) if pinned else 0)
                self._high.append(sub.apply(self._full) if pinned else self._full)
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
            raise UnknownSentenceError(f"no bounds registered for {sentence}") from None

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
        `<formula> inf=<bits> sup=<bits> p=[low, high]`."""
        width, weight_of = self.space.size, self.space.weight_of
        probs: dict[Fraction, str] = {}  # weight -> its rendering
        shown: dict[int, tuple[str, str]] = {}  # mask -> (bit string, probability)
        for mask in itertools.chain(self._low, self._high):
            if mask not in shown:
                inc = Incidence(mask, width)
                p = weight_of(inc)
                text = probs.get(p)
                if text is None:
                    text = probs[p] = format_prob(p)
                shown[mask] = inc.to_bitstring(), text
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


# --- the rule catalog ----------------------------------------------------
#
# One Rule per direction of information flow at a connective.  `compute`
# receives the whole-space mask and the bounds of the compound C and of
# its operands A and B as int bitmasks, `(full, c_lo, c_hi, a_lo, a_hi,
# b_lo, b_hi)` (for a unary C, B's bounds are A's and go unused), and
# returns the mask to merge into the target's bound.  A complement is
# `full ^ x`, which stays inside the space.  Rules that target an operand
# come before rules that target the compound, so that when a
# contradiction is detectable both ways, it surfaces on the part that was
# registered first.


@dataclass(frozen=True)
class Rule:
    connective: type
    target: str  # "left" | "right" | "self"
    action: str  # "raise" | "cut"
    note: str
    compute: Callable[[int, int, int, int, int, int, int], int]


RULES: tuple[Rule, ...] = (
    # C = ~A
    Rule(Not, "left", "raise", "i(C) <= sup(C), so w \\ sup(C) <= w \\ i(C) = i(A)",
         lambda full, c_lo, c_hi, a_lo, a_hi, b_lo, b_hi: full ^ c_hi),
    Rule(Not, "left", "cut", "inf(C) <= i(C) = w \\ i(A), so i(A) <= w \\ inf(C)",
         lambda full, c_lo, c_hi, a_lo, a_hi, b_lo, b_hi: full ^ c_lo),
    Rule(Not, "self", "raise", "i(A) <= sup(A), so w \\ sup(A) <= w \\ i(A) = i(C)",
         lambda full, c_lo, c_hi, a_lo, a_hi, b_lo, b_hi: full ^ a_hi),
    Rule(Not, "self", "cut", "inf(A) <= i(A), so i(C) = w \\ i(A) <= w \\ inf(A)",
         lambda full, c_lo, c_hi, a_lo, a_hi, b_lo, b_hi: full ^ a_lo),
    # C = A & B
    Rule(And, "left", "raise", "inf(C) <= i(C) = i(A) & i(B) <= i(A)",
         lambda full, c_lo, c_hi, a_lo, a_hi, b_lo, b_hi: c_lo),
    Rule(And, "left", "cut",
         "a point of i(A) lies in i(A & B) or outside i(B): "
         "i(A) <= i(C) | (w \\ i(B)) <= sup(C) | (w \\ inf(B))",
         lambda full, c_lo, c_hi, a_lo, a_hi, b_lo, b_hi: c_hi | (full ^ b_lo)),
    Rule(And, "right", "raise", "inf(C) <= i(C) = i(A) & i(B) <= i(B)",
         lambda full, c_lo, c_hi, a_lo, a_hi, b_lo, b_hi: c_lo),
    Rule(And, "right", "cut",
         "mirror image: i(B) <= i(C) | (w \\ i(A)) <= sup(C) | (w \\ inf(A))",
         lambda full, c_lo, c_hi, a_lo, a_hi, b_lo, b_hi: c_hi | (full ^ a_lo)),
    Rule(And, "self", "raise", "inf(A) & inf(B) <= i(A) & i(B) = i(C)",
         lambda full, c_lo, c_hi, a_lo, a_hi, b_lo, b_hi: a_lo & b_lo),
    Rule(And, "self", "cut", "i(C) = i(A) & i(B) <= sup(A) & sup(B)",
         lambda full, c_lo, c_hi, a_lo, a_hi, b_lo, b_hi: a_hi & b_hi),
    # C = A | B
    Rule(Or, "left", "raise",
         "a point of i(C) outside i(B) must lie in i(A): "
         "inf(C) & (w \\ sup(B)) <= i(C) \\ i(B) <= i(A)",
         lambda full, c_lo, c_hi, a_lo, a_hi, b_lo, b_hi: c_lo & (full ^ b_hi)),
    Rule(Or, "left", "cut", "i(A) <= i(A) | i(B) = i(C) <= sup(C)",
         lambda full, c_lo, c_hi, a_lo, a_hi, b_lo, b_hi: c_hi),
    Rule(Or, "right", "raise",
         "mirror image: inf(C) & (w \\ sup(A)) <= i(C) \\ i(A) <= i(B)",
         lambda full, c_lo, c_hi, a_lo, a_hi, b_lo, b_hi: c_lo & (full ^ a_hi)),
    Rule(Or, "right", "cut", "i(B) <= i(A) | i(B) = i(C) <= sup(C)",
         lambda full, c_lo, c_hi, a_lo, a_hi, b_lo, b_hi: c_hi),
    Rule(Or, "self", "raise", "inf(A) | inf(B) <= i(A) | i(B) = i(C)",
         lambda full, c_lo, c_hi, a_lo, a_hi, b_lo, b_hi: a_lo | b_lo),
    Rule(Or, "self", "cut", "i(C) = i(A) | i(B) <= sup(A) | sup(B)",
         lambda full, c_lo, c_hi, a_lo, a_hi, b_lo, b_hi: a_hi | b_hi),
    # C = A -> B, i.e. i(C) = (w \ i(A)) | i(B)
    Rule(Implies, "left", "raise", "w \\ i(C) = i(A) \\ i(B) <= i(A), and w \\ sup(C) <= w \\ i(C)",
         lambda full, c_lo, c_hi, a_lo, a_hi, b_lo, b_hi: full ^ c_hi),
    Rule(Implies, "left", "cut",
         "a point of i(A) inside i(C) lies in i(B), one outside i(C) is outside inf(C): "
         "i(A) <= (w \\ inf(C)) | sup(B)",
         lambda full, c_lo, c_hi, a_lo, a_hi, b_lo, b_hi: (full ^ c_lo) | b_hi),
    Rule(Implies, "right", "raise",
         "detachment: a point in both i(C) and i(A) lies in i(B), so inf(C) & inf(A) <= i(B)",
         lambda full, c_lo, c_hi, a_lo, a_hi, b_lo, b_hi: c_lo & a_lo),
    Rule(Implies, "right", "cut", "i(B) <= (w \\ i(A)) | i(B) = i(C) <= sup(C)",
         lambda full, c_lo, c_hi, a_lo, a_hi, b_lo, b_hi: c_hi),
    Rule(Implies, "self", "raise", "(w \\ sup(A)) | inf(B) <= (w \\ i(A)) | i(B) = i(C)",
         lambda full, c_lo, c_hi, a_lo, a_hi, b_lo, b_hi: (full ^ a_hi) | b_lo),
    Rule(Implies, "self", "cut", "i(C) = (w \\ i(A)) | i(B) <= (w \\ inf(A)) | sup(B)",
         lambda full, c_lo, c_hi, a_lo, a_hi, b_lo, b_hi: (full ^ a_lo) | b_hi),
)

RULES_BY_CONNECTIVE: dict[type, tuple[Rule, ...]] = {
    kind: tuple(r for r in RULES if r.connective is kind)
    for kind in (Not, And, Or, Implies)
}

# Each connective's rules as (target: 0 self, 1 left, 2 right; raises?; compute).
_ACTIONS = {
    kind: [(("self", "left", "right").index(r.target), r.action == "raise", r.compute)
           for r in rules]
    for kind, rules in RULES_BY_CONNECTIVE.items()
}


@dataclass(frozen=True)
class PropagationOutcome:
    """Result of `propagate`: final bounds, status, the culprit of an
    inconsistency, and the number of strict bound changes the rules
    performed (each one either adds points to a lower bound or removes
    points from an upper bound, so the count is at most
    2 * width * number_of_sentences).  Complete mode fires no rules, so
    its `steps` is 0; when it finds no legal assignment, `final` is the
    declared bounds."""

    status: str
    culprit: Formula | None
    final: BoundAssignment
    steps: int

    @property
    def ok(self) -> bool:
        return self.status == FIXPOINT


def _run_fixpoint(assignment: BoundAssignment, rng: random.Random | None) -> PropagationOutcome:
    position, low, high = assignment._position, assignment._low, assignment._high
    full, sentences = assignment._full, list(position)
    # Per compound node: its operands' positions (B = A when unary) and
    # its rules as (target position, raises?, compute).  A change to a
    # node's bounds wakes its parents in registration order, then the
    # node itself when it is compound.
    plans: list[tuple[int, int, list] | None] = []
    wakes: list[list[int]] = [[] for _ in sentences]
    for i, sentence in enumerate(sentences):
        kids = [position[a] for a in sentence.args]
        for k in dict.fromkeys(kids):
            wakes[k].append(i)
        if not kids:
            plans.append(None)
            continue
        slots = (i, kids[0], kids[-1])
        actions = [(slots[t], raises, f) for t, raises, f in _ACTIONS[type(sentence)]]
        plans.append((kids[0], kids[-1], actions))
    queued = bytearray(plan is not None for plan in plans)
    pending = [i for i, q in enumerate(queued) if q]
    for i in pending:
        wakes[i].append(i)
    steps = 0
    while pending:
        i = pending.pop(rng.randrange(len(pending)) if rng is not None else 0)
        queued[i] = 0
        a, b, rules = plans[i]
        for t, raises, compute in rules:
            candidate = compute(full, low[i], high[i], low[a], high[a], low[b], high[b])
            if raises:
                merged = low[t] | candidate
                if merged == low[t]:
                    continue
                low[t] = merged
            else:
                merged = high[t] & candidate
                if merged == high[t]:
                    continue
                high[t] = merged
            steps += 1
            if low[t] & ~high[t]:
                return PropagationOutcome(INCONSISTENT, sentences[t], assignment, steps)
            for p in wakes[t]:
                if not queued[p]:
                    queued[p] = 1
                    pending.append(p)
    return PropagationOutcome(FIXPOINT, None, assignment, steps)


def _run_envelope(assignment: BoundAssignment) -> PropagationOutcome:
    """Exact envelope of the legal assignments in one pass over valuations.

    Every connective acts point by point, so an assignment is legal
    exactly when its valuation at each point is admitted there, and the
    legal assignments are all ways of picking one admitted valuation per
    point.  A valuation has the same truth value at every point, so it is
    evaluated once, on one-bit masks, with one set operation per
    registered node; the points it is admitted at are those where every
    sentence's value lies within its bounds.  The cost is 2^atoms times
    the number of registered nodes.
    """
    sentences = assignment.sentences()
    atoms = [f for f in sentences if isinstance(f, Atom)]
    if len(atoms) > MAX_ATOMS:
        raise InstanceTooLargeError(
            f"{len(atoms)} atoms exceed the limit of {MAX_ATOMS} for the exact envelope"
        )
    bounds = list(zip(assignment._low, assignment._high))
    full = assignment._full
    lower = [full] * len(sentences)
    upper = [0] * len(sentences)
    # first_rejected[i]: points where some valuation is admitted by the
    # bounds of sentences[:i] but not by those of sentences[i].
    first_rejected = [0] * len(sentences)
    covered = 0
    order = evaluation_order(sentences)
    for values in itertools.product((0, 1), repeat=len(atoms)):
        value = evaluate(order, dict(zip(atoms, values)), 1)
        truths = [value[f] for f in sentences]
        admitted = full
        for i, (truth, (low, high)) in enumerate(zip(truths, bounds)):
            kept = admitted & (high if truth else ~low)
            first_rejected[i] |= admitted & ~kept
            admitted = kept
            if not admitted:
                break
        else:
            covered |= admitted
            for i, truth in enumerate(truths):
                if truth:
                    upper[i] |= admitted
                else:
                    lower[i] &= ~admitted
    uncovered = full & ~covered
    if uncovered:
        point = (uncovered & -uncovered).bit_length() - 1
        last = max(i for i, bits in enumerate(first_rejected) if bits >> point & 1)
        return PropagationOutcome(INCONSISTENT, sentences[last], assignment, 0)
    assignment._low, assignment._high = lower, upper
    return PropagationOutcome(FIXPOINT, None, assignment, 0)


def propagate(
    initial: BoundAssignment,
    mode: str = "fixpoint",
    *,
    worklist_rng: random.Random | None = None,
) -> PropagationOutcome:
    """Tighten bounds with the rules, or compute the exact envelope.

    The input assignment is not touched; the outcome holds a private
    copy.  With mode="fixpoint" the rules run to their (order-independent)
    fixed point; `worklist_rng` only varies the order in which that fixed
    point is reached.  With mode="complete" the bounds become exactly the
    envelope of the legal assignments, computed in one pass over the
    2^atoms valuations at a cost of 2^atoms times the registered nodes;
    instances with more than MAX_ATOMS atoms raise InstanceTooLargeError,
    whatever their width.

    A lower bound escaping its upper bound, before or during the rules,
    is reported eagerly via the outcome's culprit, and propagation stops
    there.  When complete mode finds that no valuation is admitted at
    some point, the instance has no legal assignment: the outcome keeps
    the declared bounds, `steps` is 0, and the culprit is found at the
    lowest such point, as the sentence that ends the shortest
    registration-order prefix of sentences whose bounds already admit no
    valuation there.
    """
    if mode not in (FIXPOINT, "complete"):
        raise ValueError(f"unknown mode {mode!r}")
    work = initial.copy()
    bad = check_consistency(work)
    if bad is not None:
        return PropagationOutcome(INCONSISTENT, bad, work, 0)
    if mode == "complete":
        return _run_envelope(work)
    return _run_fixpoint(work, worklist_rng)
