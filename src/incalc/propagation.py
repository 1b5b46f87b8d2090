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
from typing import Callable

from .errors import (
    InstanceTooLargeError,
    UnknownSentenceError,
    WidthMismatchError,
)
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
    format_formula,
    incidence_of,
    subformulas,
)
from .rational import format_prob
from .space import Incidence, SampleSpace

FIXPOINT = "fixpoint"
INCONSISTENT = "inconsistent"

#: Complete mode refuses instances with more atoms than this: its one
#: pass visits all 2^atoms valuations.
MAX_ATOMS = 16

_Bounds = tuple[Incidence, Incidence]


class BoundAssignment:
    """Mutable map from sentences to (lower, upper) incidence bounds.

    Sentences are registered in a stable order (used for reporting and
    for dump output).  Registering a sentence registers each distinct
    subformula once, in the first-occurrence preorder of `subformulas`:
    unseen ones default to the vacuous bounds (empty, full), except the
    constants, whose incidences are forced by the axioms.
    Declaring bounds for an already-known sentence merges them: lower
    bounds amalgamate by union, upper bounds by intersection, which can
    leave the entry inconsistent (lower not inside upper) for
    `check_consistency` or `propagate` to report.
    """

    def __init__(self, space: SampleSpace):
        self.space = space
        self._entries: dict[Formula, _Bounds] = {}

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
            if sub not in self._entries:
                low, high = self.space.empty(), self.space.full()
                if sub in (TRUE, FALSE):
                    low = high = incidence_of(sub, {}, self.space)
                self._entries[sub] = (low, high)
        if lower is not None:
            self.raise_lower(sentence, lower)
        if upper is not None:
            self.cut_upper(sentence, upper)

    def sentences(self) -> tuple[Formula, ...]:
        return tuple(self._entries)

    def bounds(self, sentence: Formula) -> _Bounds:
        try:
            return self._entries[sentence]
        except KeyError:
            raise UnknownSentenceError(f"no bounds registered for {sentence}") from None

    def lower(self, sentence: Formula) -> Incidence:
        return self.bounds(sentence)[0]

    def upper(self, sentence: Formula) -> Incidence:
        return self.bounds(sentence)[1]

    def raise_lower(self, sentence: Formula, inc: Incidence) -> bool:
        """Union inc into the lower bound; True if it strictly grew."""
        self._check_width(inc)
        low, high = self.bounds(sentence)
        merged = low | inc
        if merged == low:
            return False
        self._entries[sentence] = (merged, high)
        return True

    def cut_upper(self, sentence: Formula, inc: Incidence) -> bool:
        """Intersect inc into the upper bound; True if it strictly shrank."""
        self._check_width(inc)
        low, high = self.bounds(sentence)
        merged = high & inc
        if merged == high:
            return False
        self._entries[sentence] = (low, merged)
        return True

    def set_bounds(self, sentence: Formula, lower: Incidence, upper: Incidence) -> None:
        """Overwrite an entry outright (no merging)."""
        self.bounds(sentence)
        self._check_width(lower)
        self._check_width(upper)
        self._entries[sentence] = (lower, upper)

    def _check_width(self, inc: Incidence) -> None:
        if inc.width != self.space.size:
            raise WidthMismatchError(
                f"incidence width {inc.width} != space size {self.space.size}"
            )

    def consistent_at(self, sentence: Formula) -> bool:
        low, high = self.bounds(sentence)
        return low.is_subset(high)

    def is_exact(self, sentence: Formula) -> bool:
        low, high = self.bounds(sentence)
        return low == high

    def copy(self) -> "BoundAssignment":
        dup = BoundAssignment(self.space)
        dup._entries = dict(self._entries)
        return dup

    def dump(self) -> str:
        """One line per sentence in registration order:
        `<formula> inf=<bits> sup=<bits> p=[low, high]`."""
        lines = []
        for sentence, (low, high) in self._entries.items():
            p_low = format_prob(self.space.weight_of(low))
            p_high = format_prob(self.space.weight_of(high))
            lines.append(
                f"{format_formula(sentence)} inf={low.to_bitstring()}"
                f" sup={high.to_bitstring()} p=[{p_low}, {p_high}]"
            )
        return "\n".join(lines)

    def __contains__(self, sentence: Formula) -> bool:
        return sentence in self._entries

    def __iter__(self):
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BoundAssignment):
            return NotImplemented
        return self.space == other.space and self._entries == other._entries


def check_consistency(assignment: BoundAssignment) -> Formula | None:
    """First sentence (in registration order) whose lower bound is not
    inside its upper bound, or None when every entry is consistent."""
    for sentence in assignment:
        if not assignment.consistent_at(sentence):
            return sentence
    return None


# --- the rule catalog ----------------------------------------------------
#
# One Rule per direction of information flow at a connective.  `compute`
# receives the bounds of the compound C and of its operands A (and B) and
# returns the set to merge into the target's bound.  Rules that target an
# operand come before rules that target the compound, so that when a
# contradiction is detectable both ways, it surfaces on the part that was
# registered first.


@dataclass(frozen=True)
class Rule:
    connective: type
    target: str  # "left" | "right" | "self"
    action: str  # "raise" | "cut"
    note: str
    compute: Callable[[_Bounds, _Bounds, _Bounds | None], Incidence]


def _lo(b: _Bounds) -> Incidence:
    return b[0]


def _hi(b: _Bounds) -> Incidence:
    return b[1]


RULES: tuple[Rule, ...] = (
    # C = ~A
    Rule(Not, "left", "raise", "i(C) <= sup(C), so w \\ sup(C) <= w \\ i(C) = i(A)",
         lambda c, a, b: _hi(c).complement()),
    Rule(Not, "left", "cut", "inf(C) <= i(C) = w \\ i(A), so i(A) <= w \\ inf(C)",
         lambda c, a, b: _lo(c).complement()),
    Rule(Not, "self", "raise", "i(A) <= sup(A), so w \\ sup(A) <= w \\ i(A) = i(C)",
         lambda c, a, b: _hi(a).complement()),
    Rule(Not, "self", "cut", "inf(A) <= i(A), so i(C) = w \\ i(A) <= w \\ inf(A)",
         lambda c, a, b: _lo(a).complement()),
    # C = A & B
    Rule(And, "left", "raise", "inf(C) <= i(C) = i(A) & i(B) <= i(A)",
         lambda c, a, b: _lo(c)),
    Rule(And, "left", "cut",
         "a point of i(A) lies in i(A & B) or outside i(B): "
         "i(A) <= i(C) | (w \\ i(B)) <= sup(C) | (w \\ inf(B))",
         lambda c, a, b: _hi(c) | _lo(b).complement()),
    Rule(And, "right", "raise", "inf(C) <= i(C) = i(A) & i(B) <= i(B)",
         lambda c, a, b: _lo(c)),
    Rule(And, "right", "cut",
         "mirror image: i(B) <= i(C) | (w \\ i(A)) <= sup(C) | (w \\ inf(A))",
         lambda c, a, b: _hi(c) | _lo(a).complement()),
    Rule(And, "self", "raise", "inf(A) & inf(B) <= i(A) & i(B) = i(C)",
         lambda c, a, b: _lo(a) & _lo(b)),
    Rule(And, "self", "cut", "i(C) = i(A) & i(B) <= sup(A) & sup(B)",
         lambda c, a, b: _hi(a) & _hi(b)),
    # C = A | B
    Rule(Or, "left", "raise",
         "a point of i(C) outside i(B) must lie in i(A): "
         "inf(C) & (w \\ sup(B)) <= i(C) \\ i(B) <= i(A)",
         lambda c, a, b: _lo(c) & _hi(b).complement()),
    Rule(Or, "left", "cut", "i(A) <= i(A) | i(B) = i(C) <= sup(C)",
         lambda c, a, b: _hi(c)),
    Rule(Or, "right", "raise",
         "mirror image: inf(C) & (w \\ sup(A)) <= i(C) \\ i(A) <= i(B)",
         lambda c, a, b: _lo(c) & _hi(a).complement()),
    Rule(Or, "right", "cut", "i(B) <= i(A) | i(B) = i(C) <= sup(C)",
         lambda c, a, b: _hi(c)),
    Rule(Or, "self", "raise", "inf(A) | inf(B) <= i(A) | i(B) = i(C)",
         lambda c, a, b: _lo(a) | _lo(b)),
    Rule(Or, "self", "cut", "i(C) = i(A) | i(B) <= sup(A) | sup(B)",
         lambda c, a, b: _hi(a) | _hi(b)),
    # C = A -> B, i.e. i(C) = (w \ i(A)) | i(B)
    Rule(Implies, "left", "raise", "w \\ i(C) = i(A) \\ i(B) <= i(A), and w \\ sup(C) <= w \\ i(C)",
         lambda c, a, b: _hi(c).complement()),
    Rule(Implies, "left", "cut",
         "a point of i(A) inside i(C) lies in i(B), one outside i(C) is outside inf(C): "
         "i(A) <= (w \\ inf(C)) | sup(B)",
         lambda c, a, b: _lo(c).complement() | _hi(b)),
    Rule(Implies, "right", "raise",
         "detachment: a point in both i(C) and i(A) lies in i(B), so inf(C) & inf(A) <= i(B)",
         lambda c, a, b: _lo(c) & _lo(a)),
    Rule(Implies, "right", "cut", "i(B) <= (w \\ i(A)) | i(B) = i(C) <= sup(C)",
         lambda c, a, b: _hi(c)),
    Rule(Implies, "self", "raise", "(w \\ sup(A)) | inf(B) <= (w \\ i(A)) | i(B) = i(C)",
         lambda c, a, b: _hi(a).complement() | _lo(b)),
    Rule(Implies, "self", "cut", "i(C) = (w \\ i(A)) | i(B) <= (w \\ inf(A)) | sup(B)",
         lambda c, a, b: _lo(a).complement() | _hi(b)),
)

RULES_BY_CONNECTIVE: dict[type, tuple[Rule, ...]] = {
    kind: tuple(r for r in RULES if r.connective is kind)
    for kind in (Not, And, Or, Implies)
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


def _parent_map(assignment: BoundAssignment) -> dict[Formula, list[Formula]]:
    parents: dict[Formula, list[Formula]] = {f: [] for f in assignment}
    for sentence in assignment:
        for child in dict.fromkeys(sentence.args):
            parents[child].append(sentence)
    return parents


def _rule_target(sentence: Formula, rule: Rule) -> Formula:
    if rule.target == "self":
        return sentence
    return sentence.args[0 if rule.target == "left" else 1]


def _run_fixpoint(
    assignment: BoundAssignment, rng: random.Random | None
) -> PropagationOutcome:
    parents = _parent_map(assignment)
    pending = [f for f in assignment if f.args]
    queued = set(pending)
    steps = 0
    while pending:
        index = rng.randrange(len(pending)) if rng is not None else 0
        sentence = pending.pop(index)
        queued.discard(sentence)
        kids = sentence.args
        for rule in RULES_BY_CONNECTIVE[type(sentence)]:
            c = assignment.bounds(sentence)
            a = assignment.bounds(kids[0])
            b = assignment.bounds(kids[1]) if len(kids) == 2 else None
            candidate = rule.compute(c, a, b)
            target = _rule_target(sentence, rule)
            if rule.action == "raise":
                changed = assignment.raise_lower(target, candidate)
            else:
                changed = assignment.cut_upper(target, candidate)
            if not changed:
                continue
            steps += 1
            if not assignment.consistent_at(target):
                return PropagationOutcome(INCONSISTENT, target, assignment, steps)
            wake = list(parents[target])
            if target.args and target not in wake:
                wake.append(target)
            for f in wake:
                if f not in queued:
                    pending.append(f)
                    queued.add(f)
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
    space = assignment.space
    sentences = assignment.sentences()
    atoms = [f for f in sentences if isinstance(f, Atom)]
    if len(atoms) > MAX_ATOMS:
        raise InstanceTooLargeError(
            f"{len(atoms)} atoms exceed the limit of {MAX_ATOMS} for the exact envelope"
        )
    bounds = [(low.bits, high.bits) for low, high in map(assignment.bounds, sentences)]
    full = space.full().bits
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
    width = space.size
    for sentence, low, high in zip(sentences, lower, upper):
        assignment.set_bounds(sentence, Incidence(low, width), Incidence(high, width))
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
