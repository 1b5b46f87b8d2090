"""Seeded input generation for the benchmark workloads.

Every input is drawn from `random.Random` seeded with the workload family,
the benchmark seed and the input's role, so one seed always yields the
same files byte for byte.  The generator keeps the model behind each file
(atom incidences, weights, hidden ground truth) and hands it to the oracle;
incalc itself only ever sees the files.  Nothing here imports incalc.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, partial
from pathlib import Path
from typing import Callable

import oracle

WORKLOADS = (
    "wide-eval",
    "wide-query",
    "wide-sample",
    "wide-ingest",
    "fixpoint",
    "exact-solve",
    "exact-complete",
)


@dataclass(frozen=True)
class Spec:
    """Input sizes.  FULL is what the benchmark runs; tests shrink it."""

    wide_width: int = 10_000
    wide_atoms: int = 10
    eval_formulas: int = 8  # per KB
    query_kbs: int = 4  # per space kind
    queries: int = 8  # per KB
    record_columns: int = 14
    record_rows: int = 16_000
    record_tables: int = 2
    target_files: int = 4
    fixpoint_width: int = 32
    fixpoint_atoms: int = 16
    fixpoint_pinned: int = 4
    fixpoint_sentences: int = 1000
    fixpoint_kbs: int = 4
    chains: int = 2
    chain_depth: int = 7
    exact_width: int = 4
    exact_instances: int = 800


FULL = Spec()


@dataclass
class Case:
    """One command to time: its argv after `incalc`, and its oracle."""

    command: str  # metric family: eval, query, sample, ingest, solve, solve_complete
    argv: list[str]
    check: Callable[[int, str], str | None]
    nonuniform: bool = False
    unsat: bool = False


@dataclass
class Inputs:
    cases: list[Case]  # in run order; one pass runs each once
    files: dict[str, str]  # file name -> text, all written to one directory
    properties: dict[str, float] = field(default_factory=dict)


@dataclass
class Instance:
    """A KB for `solve`: its registered sentences (rendering -> formula),
    uniform width, and either a hidden ground truth or the exact envelope
    (None for both fields of an unsatisfiable instance)."""

    width: int
    sentences: dict[str, tuple]
    truth: dict[str, frozenset] | None = None
    envelope: dict[str, tuple[frozenset, frozenset]] | None = None


def _rng(family: str, seed: int, role: str) -> random.Random:
    return random.Random(f"{family}:{seed}:{role}")


def random_formula(rng: random.Random, atoms: list[str], depth: int):
    if depth == 0 or rng.random() < 0.3:
        return ("atom", rng.choice(atoms))
    kind = rng.choice(("not", "and", "or", "imp"))
    if kind == "not":
        return ("not", random_formula(rng, atoms, depth - 1))
    return (kind, random_formula(rng, atoms, depth - 1), random_formula(rng, atoms, depth - 1))


def _random_points(rng: random.Random, width: int, density: float) -> frozenset:
    return frozenset(k for k in range(width) if rng.random() < density)


def _expect(render, *args) -> Callable[[int, str], str | None]:
    """A check against text the oracle renders on first use, so that
    rendering is not part of input generation."""
    return partial(oracle.check_text, cache(partial(render, *args)))


def _target_text(f) -> str:
    text = oracle.render(f)
    return text if f[0] == "atom" else f"({text})"


# --- wide: width 10^4, a uniform and a non-uniform space ---------------------


def _uniform_kb(seed: int, spec: Spec) -> tuple[oracle.Space, str]:
    """Atom densities step evenly from 0.2 to 0.8; decoding a bit string
    costs more the more points it has, so they do not vary with the seed."""
    rng = _rng("wide", seed, "uniform")
    width, n = spec.wide_width, spec.wide_atoms
    env = {f"a{i}": _random_points(rng, width, 0.2 + 0.6 * i / max(n - 1, 1)) for i in range(n)}
    text = f"space {width}\n" + "".join(
        f"inc {name} = {oracle.bit_text(points, width)}\n" for name, points in env.items()
    )
    return oracle.Space(width, env, None), text


def _records(seed: int, spec: Spec, table: int) -> tuple[list[str], list[tuple[bool, ...]], str]:
    """About 10^4 distinct rows: 16k rows drawn uniformly from 2^14 patterns."""
    rng = _rng("wide", seed, f"records{table}")
    columns = [f"c{i}" for i in range(spec.record_columns)]
    rows = []
    for _ in range(spec.record_rows):
        bits = rng.getrandbits(len(columns))
        rows.append(tuple(bool(bits >> c & 1) for c in range(len(columns))))
    text = " ".join(columns) + "\n" + "".join(
        " ".join("1" if v else "0" for v in row) + "\n" for row in rows
    )
    return columns, rows, text


def _nonuniform_kb(seed: int, spec: Spec) -> tuple[oracle.Space, str]:
    """Exactly what `ingest` writes for the first records table."""
    columns, rows, _ = _records(seed, spec, 0)
    counts: dict[tuple[bool, ...], int] = {}
    for row in rows:
        counts[row] = counts.get(row, 0) + 1
    distinct = list(counts)
    env = {
        name: frozenset(k for k, row in enumerate(distinct) if row[c])
        for c, name in enumerate(columns)
    }
    space = oracle.Space(len(distinct), env, [counts[row] for row in distinct])
    return space, oracle.ingest_text(columns, rows)


def _wide_kbs(seed: int, spec: Spec):
    """The two spaces the read commands alternate between."""
    return [("u", False, *_uniform_kb(seed, spec)), ("n", True, *_nonuniform_kb(seed, spec))]


def _defined_queries(rng: random.Random, space: oracle.Space, count: int):
    """Every formula holds at 25-75% of the points, as in `_wide_eval`, so
    the cost of a query is kept from varying much with the seed."""
    atoms = sorted(space.env)
    queries = []
    while len(queries) < count:
        kind = ("prob", "cond", "corr")[len(queries) % 3]
        f = random_formula(rng, atoms, 3)
        g = None if kind == "prob" else random_formula(rng, atoms, 2)
        shares = [len(space.incidence(h)) / space.width for h in (f, g) if h is not None]
        if all(0.25 <= share <= 0.75 for share in shares) and space.defined(kind, f, g):
            queries.append((kind, f, g))
    return queries


def _query_line(kind: str, f, g) -> str:
    if kind == "prob":
        return f"query prob {oracle.render(f)}\n"
    if kind == "cond":
        return f"query cond {oracle.render(f)} given {oracle.render(g)}\n"
    return f"query corr {oracle.render(f)} , {oracle.render(g)}\n"


def _wide_eval(seed: int, spec: Spec, directory: Path) -> Inputs:
    """Formulas hold at 25-75% of the points: rendering the point set and
    summing weights cost in proportion to that share, so it is kept from
    varying much with the seed."""
    files, per_kb = {}, []
    for tag, nonuniform, space, text in _wide_kbs(seed, spec):
        files[f"{tag}.kb"] = text
        rng = _rng("wide", seed, f"eval-{tag}")
        formulas = []
        while len(formulas) < spec.eval_formulas:
            f = random_formula(rng, sorted(space.env), 3)
            if 0.25 <= len(space.incidence(f)) / space.width <= 0.75:
                formulas.append(f)
        per_kb.append(
            [
                Case(
                    "eval",
                    ["eval", str(directory / f"{tag}.kb"), "-f", oracle.render(f)],
                    _expect(oracle.eval_text, space, f),
                    nonuniform=nonuniform,
                )
                for f in formulas
            ]
        )
    return Inputs(_interleave(per_kb), files)


def _wide_query(seed: int, spec: Spec, directory: Path) -> Inputs:
    files, per_kb = {}, []
    for tag, nonuniform, space, text in _wide_kbs(seed, spec):
        cases = []
        for j in range(spec.query_kbs):
            rng = _rng("wide", seed, f"query-{tag}{j}")
            queries = _defined_queries(rng, space, spec.queries)
            name = f"{tag}{j}.kb"
            files[name] = text + "".join(_query_line(*q) for q in queries)
            cases.append(
                Case(
                    "query",
                    ["query", str(directory / name)],
                    _expect(oracle.query_text, space, queries),
                    nonuniform=nonuniform,
                )
            )
        per_kb.append(cases)
    return Inputs(_interleave(per_kb), files)


def _wide_sample(seed: int, spec: Spec, directory: Path) -> Inputs:
    """Targets with 8, 10 or 12 atoms (by file index, so the total does not
    vary with the seed) and three disjoint correlation pairs.  A pair is
    kept only when the overlap it implies is comfortably feasible, so
    synthesis never refuses."""
    files, cases = {}, []
    size = spec.wide_width
    for j in range(spec.target_files):
        rng = _rng("wide", seed, f"targets{j}")
        names = [f"s{i}" for i in range(8 + 2 * (j % 3))]
        # One marginal in each of len(names) equal slices of [0.2, 0.8], in
        # random order: synthesis costs in proportion to the marginals, so
        # their sum is kept from varying with the seed.
        slices = [0.2 + 0.6 * (k + rng.random()) / len(names) for k in range(len(names))]
        rng.shuffle(slices)
        marginals = {n: Fraction(f"{p:.5f}") for n, p in zip(names, slices)}
        pairs = {}
        order = names[:]
        rng.shuffle(order)
        for x, y in zip(order[0:6:2], order[1:6:2]):
            x, y = sorted((x, y))
            kx = oracle.round_half_up(marginals[x] * size)
            ky = oracle.round_half_up(marginals[y] * size)
            while True:
                c = Fraction(f"{rng.uniform(-0.5, 0.7):.4f}")
                root = (kx * (size - kx) * ky * (size - ky)) ** 0.5
                implied = kx * ky / size + float(c) * root / size
                if max(0, kx + ky - size) + 2 <= implied <= min(kx, ky) - 2:
                    break
            pairs[(x, y)] = c
        name = f"t{j}.targets"
        files[name] = "".join(f"prob {n} = {marginals[n]}\n" for n in names) + "".join(
            f"corr {x} {y} = {float(c):.4f}\n" for (x, y), c in pairs.items()
        )
        cases.append(
            Case(
                "sample",
                ["sample", str(directory / name), "--size", str(size)]
                + ["--seed", str(rng.randrange(10**6))],
                partial(oracle.check_sample, marginals, pairs, size),
            )
        )
    return Inputs(cases, files)


def _wide_ingest(seed: int, spec: Spec, directory: Path) -> Inputs:
    files, cases = {}, []
    for j in range(spec.record_tables):
        columns, rows, text = _records(seed, spec, j)
        files[f"r{j}.records"] = text
        cases.append(
            Case(
                "ingest",
                ["ingest", str(directory / f"r{j}.records")],
                _expect(oracle.ingest_text, columns, rows),
                nonuniform=True,
            )
        )
    return Inputs(cases, files)


# --- fixpoint: width 32, 1000 registered sentences, shared chains -----------


def _loosen(rng: random.Random, truth: frozenset, width: int) -> tuple[frozenset, frozenset]:
    low = frozenset(k for k in truth if rng.random() < 0.5)
    high = truth | _random_points(rng, width, 0.3)
    return low, high


def _fixpoint_kb(seed: int, spec: Spec, index: int) -> tuple[Instance, str]:
    """Bounds loosened from a hidden model, so every KB is consistent, plus
    `formula` chains whose every level uses the previous name twice: the
    expanded tree doubles per level while the distinct subterms grow by a
    constant.  The chains have one fixed shape, so their cost does not
    vary with the seed."""
    rng = _rng("fixpoint", seed, f"kb{index}")
    width = spec.fixpoint_width
    atoms = [f"x{i}" for i in range(spec.fixpoint_atoms)]
    truth = {a: _random_points(rng, width, 0.5) for a in atoms}
    lines = [f"space {width}"]
    roots = []
    for a in atoms[: spec.fixpoint_pinned]:
        lines.append(f"inc {a} = {oracle.bit_text(truth[a], width)}")
        roots.append(("atom", a))
    for c in range(spec.chains):
        expanded = ("or", ("atom", rng.choice(atoms)), ("atom", rng.choice(atoms)))
        lines.append(f"formula d{c}_0 = {oracle.render(expanded)}")
        for level in range(1, spec.chain_depth + 1):
            prev = ("atom", f"d{c}_{level - 1}")
            atom = ("atom", rng.choice(atoms))
            op1, op2 = ("and", "or", "imp")[level % 3], ("or", "imp", "and")[level % 3]
            named = (op2, (op1, prev, atom), ("not", prev))
            expanded = (op2, (op1, expanded, atom), ("not", expanded))
            lines.append(f"formula d{c}_{level} = {oracle.render(named)}")
            roots.append(expanded)
    registered = oracle.distinct_subformulas(roots)
    while len(registered) < spec.fixpoint_sentences:
        f = random_formula(rng, atoms, 3)
        low, high = _loosen(rng, oracle.evaluate(f, truth, width), width)
        lines.append(
            f"bounds {_target_text(f)} inf {oracle.bit_text(low, width)}"
            f" sup {oracle.bit_text(high, width)}"
        )
        for text, g in oracle.distinct_subformulas([f]).items():
            registered.setdefault(text, g)
    return Instance(width, registered, truth=truth), "\n".join(lines) + "\n"


def _fixpoint(seed: int, spec: Spec, directory: Path) -> Inputs:
    files, cases, registered = {}, [], 0
    for j in range(spec.fixpoint_kbs):
        instance, text = _fixpoint_kb(seed, spec, j)
        files[f"f{j}.kb"] = text
        registered += len(instance.sentences)
        check = partial(oracle.check_solve, instance, False)
        cases.append(Case("solve", ["solve", str(directory / f"f{j}.kb")], check))
    properties = {
        "registered_sentences": registered / spec.fixpoint_kbs,
        "chain_depth": spec.chain_depth,
    }
    return Inputs(cases, files, properties)


# --- exact: width 4, 3-4 atoms, half unsatisfiable --------------------------

# Satisfiable instances are stratified by their size for case splitting:
# the number of legal assignments times the number of distinct sentences
# (a log-log correlation of 0.89 with the time of `solve --complete`,
# against 0.80 for the count alone), so that every seed gets the same mix
# of cheap and expensive instances.  Per 100 satisfiable instances,
# EXACT_QUOTA[i] have a size in EXACT_BUCKETS[i]; the first nine buckets
# are the deciles of the sizes the generator draws, and the last decile is
# halved so that the p95 tail falls on a bucket edge.  Counts stop at 31:
# with instances of up to 127, a few of them set the mean latency, and it
# varied by 45% from seed to seed.
EXACT_MAX_COUNT = 31
EXACT_BUCKETS = (
    (1, 12), (13, 22), (23, 36), (37, 52), (53, 72), (73, 96),
    (97, 128), (129, 168), (169, 224), (225, 288), (289, 10**6),
)  # fmt: skip
EXACT_QUOTA = (10, 10, 10, 10, 10, 10, 10, 10, 10, 5, 5)


def _exact_candidate(rng: random.Random, width: int, grounded: bool):
    """4-6 bounded sentences over 3-4 atoms.  Grounded bounds are loosened
    from a hidden model by a random amount; the others are arbitrary
    (lower inside upper)."""
    atoms = ["a", "b", "c", "d"][: rng.choice((3, 4))]
    truth = {a: _random_points(rng, width, 0.5) for a in atoms} if grounded else None
    keep, add = rng.uniform(0.3, 1.0), rng.uniform(0.0, 0.5)
    bounded, lines = [], [f"space {width}"]
    for _ in range(rng.randint(4, 6)):
        f = random_formula(rng, atoms, 2)
        if truth is not None:
            value = oracle.evaluate(f, truth, width)
            low = frozenset(k for k in value if rng.random() < keep)
            high = value | _random_points(rng, width, add)
        else:
            low = _random_points(rng, width, 0.3)
            high = low | _random_points(rng, width, 0.5)
        bounded.append((f, low, high))
        lines.append(
            f"bounds {_target_text(f)} inf {oracle.bit_text(low, width)}"
            f" sup {oracle.bit_text(high, width)}"
        )
    sentences = oracle.distinct_subformulas([f for f, _, _ in bounded])
    used = sorted(f[1] for f in sentences.values() if f[0] == "atom")
    bounds, count = oracle.envelope(width, used, bounded, sentences)
    return Instance(width, sentences, truth, bounds), count, "\n".join(lines) + "\n"


def _exact_instances(seed: int, spec: Spec) -> list[tuple[Instance, str]]:
    """Half grounded and satisfiable, stratified by EXACT_QUOTA; half
    arbitrary and unsatisfiable; the two kinds alternate."""
    rng = _rng("exact", seed, "instances")
    n_sat = spec.exact_instances // 2
    need = [q * n_sat // 100 for q in EXACT_QUOTA]
    need[0] += n_sat - sum(need)
    sat = []
    while len(sat) < n_sat:
        instance, count, text = _exact_candidate(rng, spec.exact_width, True)
        if count > EXACT_MAX_COUNT:
            continue
        size = count * len(instance.sentences)
        for b, (lo, hi) in enumerate(EXACT_BUCKETS):
            if lo <= size <= hi and need[b]:
                need[b] -= 1
                sat.append((instance, text))
    unsat = []
    while len(unsat) < spec.exact_instances - n_sat:
        instance, count, text = _exact_candidate(rng, spec.exact_width, False)
        if count == 0:
            unsat.append((instance, text))
    return _interleave([sat, unsat])


def _exact(complete: bool, seed: int, spec: Spec, directory: Path) -> Inputs:
    files, cases = {}, []
    for j, (instance, text) in enumerate(_exact_instances(seed, spec)):
        name = f"e{j}.kb"
        files[name] = text
        argv = ["solve", str(directory / name)] + (["--complete"] if complete else [])
        cases.append(
            Case(
                "solve_complete" if complete else "solve",
                argv,
                partial(oracle.check_solve, instance, complete),
                unsat=instance.envelope is None,
            )
        )
    return Inputs(cases, files)


def _interleave(groups: list[list]) -> list:
    return [item for row in zip(*groups) for item in row]


_BUILDERS = {
    "wide-eval": _wide_eval,
    "wide-query": _wide_query,
    "wide-sample": _wide_sample,
    "wide-ingest": _wide_ingest,
    "fixpoint": _fixpoint,
    "exact-solve": partial(_exact, False),
    "exact-complete": partial(_exact, True),
}


def build(workload: str, seed: int, directory: Path, spec: Spec | None = None) -> Inputs:
    """Generate a workload's inputs (sizes from `spec`, default FULL),
    write them into `directory`, and return the cases to run with their
    oracles."""
    inputs = _BUILDERS[workload](seed, spec or FULL, directory)
    for name, text in inputs.files.items():
        (directory / name).write_text(text)
    n = len(inputs.cases)
    inputs.properties.setdefault("nonuniform_share", sum(c.nonuniform for c in inputs.cases) / n)
    inputs.properties.setdefault("unsat_share", sum(c.unsat for c in inputs.cases) / n)
    return inputs
