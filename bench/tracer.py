"""Per-layer tracing of incalc from outside the package.

`Tracer.install` replaces the public names below with timing or counting
wrappers, everywhere inside incalc that a caller looks them up (so
`probability.incidence_of` is patched as well as `logic.incidence_of`),
and `uninstall` puts the originals back.  Each timed call becomes a span
(id, parent id, command id, name, start, end) kept in memory; self time is
a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter_ns

# Timed names: "module:attribute" or "module:Class.method" -> span name.
SPANS = {
    "cli:main": "cli.main",
    "kb:parse_kb": "kb.parse_kb",
    "kb:KnowledgeBase.initial_assignment": "kb.initial_assignment",
    "kb:kb_fragment": "kb.kb_fragment",
    "space:parse_incidence_text": "space.parse_incidence_text",
    "space:SampleSpace.__init__": "space.SampleSpace",
    "space:SampleSpace.weight_of": "space.weight_of",
    "space:Incidence.to_bitstring": "space.to_bitstring",
    "rational:format_prob": "rational.format_prob",
    "logic:parse_formula": "logic.parse_formula",
    "logic:format_formula": "logic.format_formula",
    "logic:incidence_of": "logic.incidence_of",
    "probability:prob": "probability.prob",
    "probability:cond_prob": "probability.cond_prob",
    "probability:correlation": "probability.correlation",
    "propagation:propagate": "propagation.propagate",
    "propagation:BoundAssignment.declare": "propagation.declare",
    "propagation:BoundAssignment.dump": "propagation.dump",
    "construct:parse_targets": "construct.parse_targets",
    "construct:incidences_from_probabilities": "construct.incidences_from_probabilities",
    "construct:RecordTable.from_text": "construct.RecordTable.from_text",
    "construct:incidences_from_records": "construct.incidences_from_records",
}

_SPAN_NAMES = set(SPANS.values())

# Per-layer metrics, in report order: (name, unit, better).
METRICS = (
    ("space.weight_of.ms", "ms", "lower"),
    ("space.weight_of.calls", "count", "lower"),
    ("space.weight_of.points", "count", "lower"),
    ("space.parse_incidence_text.ms", "ms", "lower"),
    ("space.parse_incidence_text.calls", "count", "lower"),
    ("space.to_bitstring.ms", "ms", "lower"),
    ("space.to_bitstring.calls", "count", "lower"),
    ("space.SampleSpace.ms", "ms", "lower"),
    ("space.SampleSpace.calls", "count", "lower"),
    ("rational.format_prob.ms", "ms", "lower"),
    ("rational.format_prob.calls", "count", "lower"),
    ("logic.parse_formula.ms", "ms", "lower"),
    ("logic.parse_formula.calls", "count", "lower"),
    ("logic.format_formula.ms", "ms", "lower"),
    ("logic.format_formula.calls", "count", "lower"),
    ("logic.incidence_of.ms", "ms", "lower"),
    ("logic.incidence_of.calls", "count", "lower"),
    ("logic.subformulas.nodes", "count", "lower"),
    ("propagation.declare.ms", "ms", "lower"),
    ("propagation.declare.calls", "count", "lower"),
    ("kb.initial_assignment.ms", "ms", "lower"),
    ("probability.prob.ms", "ms", "lower"),
    ("probability.cond_prob.ms", "ms", "lower"),
    ("probability.correlation.ms", "ms", "lower"),
    ("propagation.propagate.ms", "ms", "lower"),
    ("propagation.bounds.calls", "count", "lower"),
    ("propagation.bound_updates", "count", "lower"),
    ("propagation.strict_changes", "count", "lower"),
    ("propagation.useful_ratio", "ratio", "higher"),
    ("propagation.steps", "count", "lower"),
    ("propagation.step_bound_ratio", "ratio", "lower"),
    ("propagation.copies", "count", "lower"),
    ("propagation.dump.ms", "ms", "lower"),
    ("construct.incidences_from_probabilities.ms", "ms", "lower"),
    ("construct.parse_targets.ms", "ms", "lower"),
    ("construct.RecordTable.from_text.ms", "ms", "lower"),
    ("construct.incidences_from_records.ms", "ms", "lower"),
    ("kb.kb_fragment.ms", "ms", "lower"),
    ("kb.parse_kb.ms", "ms", "lower"),
    ("cli.main.ms", "ms", "lower"),
    ("trace.overhead_ms", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def _module(name: str):
    return sys.modules[f"incalc.{name}"]


def _package_modules():
    return [m for name, m in sys.modules.items() if name == "incalc" or name.startswith("incalc.")]


class Tracer:
    """Collects spans and counters for the commands run while installed."""

    def __init__(self):
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.counts: Counter = Counter()
        self.commands = 0
        self._stack: list[int] = []
        self._next_id = 0
        self._propagating = 0
        self._patches: list[tuple[object, str, object]] = []

    # --- wrappers -----------------------------------------------------------

    def _timed(self, name: str, fn, before=None, after=None):
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._next_id += 1
            span_id = self._next_id
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            if before is not None:
                before(args)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                if after is not None:
                    after(args)
                spans.append((span_id, parent, stack[0] if stack else span_id, name, start, end))
            return result

        return wrapper

    def _counted(self, fn, on_result):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            on_result(args, result)
            return result

        return wrapper

    def _counted_nodes(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for node in fn(*args, **kwargs):
                counts["logic.subformulas.nodes"] += 1
                yield node

        return wrapper

    # --- hooks ----------------------------------------------------------------

    def _weight_of_points(self, args):
        self.counts["space.weight_of.points"] += args[1].count()

    def _enter_propagate(self, args):
        self._propagating += 1

    def _leave_propagate(self, args):
        self._propagating -= 1

    def _propagated(self, args, outcome):
        final = outcome.final
        self.counts["propagation.steps"] += outcome.steps
        self.counts["propagation.step_bound"] += 2 * final.space.size * len(final)

    def _bound_update(self, args, changed):
        if self._propagating:
            self.counts["propagation.bound_updates"] += 1
            self.counts["propagation.strict_changes"] += bool(changed)

    def _count(self, key):
        def hook(args, result):
            self.counts[key] += 1

        return hook

    # --- installation -------------------------------------------------------------

    def _replace_everywhere(self, original, replacement, skip=()):
        for module in _package_modules():
            if module in skip:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, replacement)

    def _replace_attribute(self, owner, attr, make):
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            replacement = classmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Patch incalc in place; call `uninstall` before the next install."""
        hooks = {
            "space.weight_of": {"before": self._weight_of_points},
            "propagation.propagate": {
                "before": self._enter_propagate,
                "after": self._leave_propagate,
            },
        }
        for target, name in SPANS.items():
            module_name, _, path = target.partition(":")
            owner = _module(module_name)
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            make = functools.partial(self._timed, name, **hooks.get(name, {}))
            if classes:
                self._replace_attribute(owner, attr, make)
            else:
                original = getattr(owner, attr)
                wrapped = make(original)
                if name == "propagation.propagate":
                    wrapped = self._counted(wrapped, self._propagated)
                self._replace_everywhere(original, wrapped)
        assignment = _module("propagation").BoundAssignment
        counted = {
            "bounds": self._count("propagation.bounds.calls"),
            "copy": self._count("propagation.copies"),
            "raise_lower": self._bound_update,
            "cut_upper": self._bound_update,
        }
        for attr, hook in counted.items():
            self._replace_attribute(assignment, attr, lambda fn, h=hook: self._counted(fn, h))
        # logic.subformulas recurses through its own global name, so counting
        # there would count each node once per level; count what it yields to
        # callers in the other modules instead.
        logic = _module("logic")
        self._replace_everywhere(
            logic.subformulas, self._counted_nodes(logic.subformulas), skip=(logic,)
        )

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # --- results -----------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-command self time (ms) and counts over the traced commands."""
        child_ns: dict[int, int] = defaultdict(int)
        for _, parent, _, _, start, end in self.spans:
            if parent:
                child_ns[parent] += end - start
        self_ns: dict[str, int] = defaultdict(int)
        calls: Counter = Counter()
        for span_id, _, _, name, start, end in self.spans:
            self_ns[name] += end - start - child_ns[span_id]
            calls[name] += 1
        n = max(self.commands, 1)
        values = {}
        for name, _, _ in METRICS:
            base, _, kind = name.rpartition(".")
            if kind == "ms":
                values[name] = self_ns[base] / 1e6 / n
            elif kind == "calls" and base in _SPAN_NAMES:
                values[name] = calls[base] / n
            else:
                values[name] = self.counts[name] / n
        updates = self.counts["propagation.bound_updates"]
        bound = self.counts["propagation.step_bound"]
        values["propagation.useful_ratio"] = (
            self.counts["propagation.strict_changes"] / updates if updates else 0.0
        )
        values["propagation.step_bound_ratio"] = (
            self.counts["propagation.steps"] / bound if bound else 0.0
        )
        return values

    def write_spans(self, path: Path) -> None:
        """Write every span as one JSON line:
        [id, parent id (0 = none), command id, name, start ns, end ns]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
