"""Command-line front end.

Subcommands:
    eval    evaluate a formula against a KB's exact incidences
    query   run the query directives recorded in a KB
    solve   propagate incidence bounds and dump the result
    sample  synthesise incidences from a targets file
    ingest  convert an observation table into KB directives

Exit codes: 0 on success (and on a consistent solve), 1 when solve finds
an inconsistency, 2 for usage, parse, or data errors, 3 for an internal
error (a fault in incalc itself, reported as one `internal error:` line).

`_COMMANDS` describes each subcommand once, and a call builds the parser
of its own subcommand only; `incalc`, `-h`, an unknown word or a leading
option builds all five, so help and usage text read the same either way.
Building all five was about 70% of a small `solve`: argparse's gettext
lookups and terminal-size probes grow with every subparser built.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .construct import (
    RecordTable,
    TargetSpec,
    incidences_from_probabilities,
    incidences_from_records,
    parse_targets,
)
from .errors import IncalcError
from .kb import KnowledgeBase, kb_fragment, parse_kb
from .logic import format_formula, incidence_of
from .probability import cond_prob, correlation, prob
from .propagation import propagate
from .rational import format_prob


def _load_kb(path: str) -> KnowledgeBase:
    return parse_kb(Path(path).read_text())


def _cmd_eval(args) -> int:
    kb = _load_kb(args.kb)
    sentence = kb.resolve(args.formula)
    inc = incidence_of(sentence, kb.environment(), kb.space)
    print(inc.to_bitstring())
    print(inc.to_point_set())
    print(f"p = {format_prob(kb.space.weight_of(inc))}")
    return 0


def _cmd_query(args) -> int:
    kb = _load_kb(args.kb)
    env = kb.environment()
    for q in kb.queries:
        if q.kind == "prob":
            value = format_prob(prob(q.f, env, kb.space))
            print(f"prob {format_formula(q.f)} = {value}")
        elif q.kind == "cond":
            value = format_prob(cond_prob(q.f, q.g, env, kb.space))
            print(f"cond {format_formula(q.f)} given {format_formula(q.g)} = {value}")
        else:
            c = correlation(q.f, q.g, env, kb.space)
            print(f"corr {format_formula(q.f)} , {format_formula(q.g)} = {c}")
    return 0


def _cmd_solve(args) -> int:
    kb = _load_kb(args.kb)
    mode = "complete" if args.complete else "fixpoint"
    outcome = propagate(kb.initial_assignment(), mode)
    print(outcome.final.dump())
    if outcome.ok:
        print("CONSISTENT")
        return 0
    print(f"INCONSISTENT: {format_formula(outcome.culprit)}")
    return 1


def _cmd_sample(args) -> int:
    marginals, correlations = parse_targets(Path(args.targets).read_text())
    spec = TargetSpec(
        marginals=marginals, size=args.size, correlations=correlations, seed=args.seed
    )
    space, env = incidences_from_probabilities(spec)
    print(kb_fragment(space, env))
    return 0


def _cmd_ingest(args) -> int:
    table = RecordTable.from_text(Path(args.records).read_text())
    space, env = incidences_from_records(table)
    print(kb_fragment(space, env))
    return 0


# Each command once: its help, the name of its handler (looked up when
# `main` runs it) and its arguments as (flags, keyword arguments) pairs.
_COMMANDS = {
    "eval": (
        "evaluate a formula against exact incidences",
        "_cmd_eval",
        [
            (["kb"], {"help": "knowledge-base file"}),
            (["-f", "--formula"], {"required": True, "help": "formula text to evaluate"}),
        ],
    ),
    "query": (
        "run the query directives in a KB",
        "_cmd_query",
        [(["kb"], {"help": "knowledge-base file"})],
    ),
    "solve": (
        "propagate incidence bounds",
        "_cmd_solve",
        [
            (["kb"], {"help": "knowledge-base file"}),
            (
                ["--complete"],
                {
                    "action": "store_true",
                    "help": "exact bounds from all 2^atoms valuations (any width; limited atoms)",
                },
            ),
        ],
    ),
    "sample": (
        "synthesise incidences from targets",
        "_cmd_sample",
        [
            (["targets"], {"help": "targets file (prob/corr directives)"}),
            (["--size"], {"type": int, "required": True, "help": "number of points"}),
            (["--seed"], {"type": int, "default": 0, "help": "placement seed (default 0)"}),
        ],
    ),
    "ingest": (
        "convert an observation table to KB directives",
        "_cmd_ingest",
        [(["records"], {"help": "records file (header line, then boolean rows)"})],
    ),
}


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser for `command` alone, or for every command when it is
    None.  A lone subparser is listed under every command's name, so
    usage and error text read as the full parser's."""
    parser = argparse.ArgumentParser(
        prog="incalc",
        description="Set-valued probabilistic reasoning over weighted sample spaces.",
    )
    if command is None:
        names, listed = _COMMANDS, {}
    else:
        names, listed = [command], {"metavar": "{" + ",".join(_COMMANDS) + "}"}
    sub = parser.add_subparsers(dest="command", required=True, **listed)
    for name in names:
        help_text, handler, arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for flags, options in arguments:
            p.add_argument(*flags, **options)
        p.set_defaults(run=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = _build_parser(command).parse_args(argv)
    try:
        return globals()[args.run](args)
    except (IncalcError, ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
