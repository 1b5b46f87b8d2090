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

`_COMMANDS` describes each subcommand once.  `main` reads a well-formed
command line from it directly (`_read_argv`): the command's exact name,
then flags spelled exactly as in the table, each at most once and with
its value if it takes one, and the positionals, no value or positional
starting with `-`.  Anything else, help included, goes to the argparse
parser of all five commands, which is the only code that writes help,
usage and error text.  Building that
parser was about half of a small `solve`: argparse's gettext lookups and
terminal-size probes grow with every subparser built.
"""

from __future__ import annotations

import argparse
import sys

from .construct import (
    RecordTable,
    TargetSpec,
    incidences_from_probabilities,
    incidences_from_records,
    parse_targets,
)
from .errors import IncalcError
from .kb import kb_fragment, parse_kb
from .logic import format_formula, incidence_of
from .probability import cond_prob, correlation, prob
from .propagation import propagate
from .rational import format_prob


def _read(path: str) -> str:
    """An input file's text, read as UTF-8 less a leading byte-order mark.
    A byte that is not UTF-8 is reported with its line, counted as
    `kb.directive_lines` counts lines: each ends at '\n', '\r\n' or '\r'."""
    try:
        with open(path, "rb") as file:
            return file.read().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        before = exc.object[: exc.start]  # past the byte-order mark, if any
        line = 1 + before.count(b"\n") + before.count(b"\r") - before.count(b"\r\n")
        byte = exc.object[exc.start]
        raise ValueError(f"line {line}: byte 0x{byte:02x} is not UTF-8 ({exc.reason})") from None


def _cmd_eval(args) -> int:
    kb = parse_kb(_read(args.kb))
    sentence = kb.resolve(args.formula)
    inc = incidence_of(sentence, kb.environment(), kb.space)
    print(inc.to_bitstring())
    print(inc.to_point_set())
    print(f"p = {format_prob(kb.space.weight_of(inc))}")
    return 0


def _cmd_query(args) -> int:
    kb = parse_kb(_read(args.kb))
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
    kb = parse_kb(_read(args.kb))
    mode = "complete" if args.complete else "fixpoint"
    outcome = propagate(kb.initial_assignment(), mode)
    dump = outcome.final.dump()
    if dump:
        print(dump)
    if outcome.ok:
        print("CONSISTENT")
        return 0
    print(f"INCONSISTENT: {format_formula(outcome.culprit)}")
    return 1


def _cmd_sample(args) -> int:
    marginals, correlations = parse_targets(_read(args.targets))
    spec = TargetSpec(
        marginals=marginals, size=args.size, correlations=correlations, seed=args.seed
    )
    space, env = incidences_from_probabilities(spec)
    print(kb_fragment(space, env))
    return 0


def _cmd_ingest(args) -> int:
    table = RecordTable.from_text(_read(args.records))
    space, env = incidences_from_records(table)
    print(kb_fragment(space, env))
    return 0


# Each command once: its help, the name of its handler (looked up when
# `main` runs it) and its arguments as (flags, keyword arguments) pairs.
# `_read_argv` knows positionals, `store_true` flags and flags that take
# one value with `type`, `default` and `required`, and nothing else.
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
                    "help": "exact bounds from all 2^atoms valuations"
                    " (any width; at most 128 MB of truth tables)",
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="incalc",
        description="Set-valued probabilistic reasoning over weighted sample spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flags, options in arguments:
            p.add_argument(*flags, **options)
        p.set_defaults(run=handler)
    return parser


def _reader_entry(handler: str, arguments: list) -> tuple:
    """One command's arguments as `_read_argv` reads them: its positional
    dests, each flag string mapped to (dest, convert), where convert None
    marks a `store_true` flag, its defaults and its required dests.
    Dests follow argparse: the first long flag, else the first flag,
    without its dashes and with `-` as `_`."""
    positionals, flags, defaults, required = [], {}, {}, set()
    for names, options in arguments:
        if not names[0].startswith("-"):
            positionals.append(names[0])
            defaults[names[0]] = None
            continue
        dest = ([n for n in names if n.startswith("--")] or names)[0]
        dest = dest.lstrip("-").replace("-", "_")
        switch = options.get("action") == "store_true"
        flags.update(dict.fromkeys(names, (dest, None if switch else options.get("type", str))))
        defaults[dest] = False if switch else options.get("default")
        if options.get("required"):
            required.add(dest)
    defaults["run"] = handler
    return positionals, flags, defaults, required


_READER = {name: _reader_entry(*entry[1:]) for name, entry in _COMMANDS.items()}


def _read_argv(argv: list[str]) -> argparse.Namespace | None:
    """The Namespace that `_build_parser().parse_args(argv)` returns, when
    `argv` is a command's exact name followed by flags spelled exactly as
    in `_COMMANDS`, each at most once and followed by its value if it
    takes one, and as many positionals as the command takes, no
    positional or value starting with `-`.  None for anything else,
    which argparse then reads: help, abbreviations, `--flag=value`, `--`,
    repeats and every error."""
    entry = _READER.get(argv[0]) if argv else None
    if entry is None:
        return None
    positionals, flags, defaults, required = entry
    values, given = {}, []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            given.append(token)
            continue
        dest, convert = flags.get(token, (None, None))
        if dest is None or dest in values:
            return None
        if convert is None:
            values[dest] = True
            continue
        value = next(tokens, "-")  # a flag at the end has no value
        if value.startswith("-"):
            return None
        try:
            values[dest] = convert(value)
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            return None
    if len(given) != len(positionals) or not required <= values.keys():
        return None
    values.update(zip(positionals, given))
    return argparse.Namespace(**{"command": argv[0], **defaults, **values})


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_argv(argv) or _build_parser().parse_args(argv)
    try:
        return globals()[args.run](args)
    except (IncalcError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
