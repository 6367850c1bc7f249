"""Command line interface: fixed-locus reports over JSON documents.

Each subcommand has one row in COMMANDS: the report module that builds
its report and the options it cannot run without.  A report module
(`_cli_covers`, `_cli_equivariant`, `_cli_locus`, `_cli_stability`)
imports the layers its builders run, and main imports only the one of
the chosen subcommand, so a child compiles no other command's code.  A
builder, `cmd_<subcommand>` with - read as _, returns the report as
(payload, lines), the JSON document and the text or dot lines, or
raises _PropertyFailure with a counterexample document; it writes
nothing.  main alone writes stdout and picks the exit code.

The command line is read by parse_args from COMMANDS and OPTIONS, the
table of each option's converter, default and help.  It reads the plain
form itself, the subcommand among exact options and their values, so a
child that runs one imports neither argparse nor the gettext and locale
that argparse loads.  Any other command line goes to an argparse parser
built from the same tables, and -h or --help prints a help text built
from them; both, and the usage line, are in `_cli_help`, which a child
that runs a plain command line never imports.  No module imports this
one: under `python -m fixloc.cli` it is `__main__` (see `errors`).  The
process entry, for `-m` and the `fixloc` script alike, is run: main, then
gc.freeze, then the exit with main's code.

Exit codes: 0 success, 1 property-check failure (with a counterexample
dump) or violated internal invariant, 2 malformed input (schema or
usage, or an input file that cannot be read as JSON) or a stdout that is
closed or fails while the report is written (a closed pipe, a full disk,
an I/O fault: "output error: ..." on stderr), 3 domain rejection
(mathematically inadmissible input, or a JSON report holding an int past
Python's digit limit).  All output is deterministic for a fixed seed:
reports are byte-identical across runs.
"""

from __future__ import annotations

import gc
import json
import os
import sys
from importlib import import_module
from types import SimpleNamespace

from ._ser import int_digit_limit
from .errors import DomainError, InternalError, SchemaError, _PropertyFailure, _Usage

DEFAULT_SEED = 1729

# subcommand -> (the report module whose cmd_<subcommand> builds its report,
# the options it cannot run without); main reports a missing or empty option
# as a usage error that names them all
COMMANDS = {
    "kernel": ("_cli_covers", ("--file",)),
    "factor": ("_cli_covers", ("--file",)),
    "lambda": ("_cli_equivariant", ("--file",)),
    "weights": ("_cli_equivariant", ("--file",)),
    "bijection-check": ("_cli_equivariant", ()),
    "zeta2": ("_cli_equivariant", ("--file",)),
    "orbits": ("_cli_covers", ("--file",)),
    "decompose": ("_cli_locus", ("--file",)),
    "hyperelliptic": ("_cli_locus", ("--g",)),
    "census": ("_cli_locus", ("--n", "--deg-delta", "--genus-y")),
    "stability": ("_cli_stability", ("--file",)),
}


# option -> (converter, default, help), in the order the help text lists them;
# the converter is int, str or the tuple of the values the option accepts
OPTIONS = {
    "--file": (str, None, "input JSON document"),
    "--g": (int, None, "genus parameter"),
    "--n": (int, None, "cover order"),
    "--deg-delta": (int, None, "determinant degree upstairs"),
    "--genus-y": (int, None, "base genus"),
    "--format": (("json", "text", "dot"), "json", "report format"),
    "--seed": (int, DEFAULT_SEED, "seed of bijection-check's random choices"),
}


def _json_text(document: dict) -> str:
    """The document as main writes it: DomainError when it holds an int past
    the digit limit, which json.dumps raises as a ValueError."""
    try:
        return json.dumps(document, indent=2, sort_keys=True)
    except ValueError:
        digits = int_digit_limit()
        raise DomainError(f"the report holds an int of more than {digits} digits, past "
                          f"Python's limit of {digits} digits for writing an int") from None


def _dest(option: str) -> str:
    """The namespace attribute of an option: --deg-delta is deg_delta."""
    return option[2:].replace("-", "_")


def _builder(subcommand: str):
    """The function that builds subcommand's report, from its report module."""
    module = import_module(f"fixloc.{COMMANDS[subcommand][0]}")
    return getattr(module, "cmd_" + subcommand.replace("-", "_"))


def parse_args(argv) -> SimpleNamespace:
    """The command line, read from COMMANDS and OPTIONS as argparse reads it.

    Returns a namespace holding the subcommand and each option under its
    dest (_dest), or raises _Usage with argparse's message.  The plain form
    is read here: the one subcommand among exact options, each followed by
    a value that does not start with - and that its converter accepts.  Any
    other argv, a prefix, an = form, --, -h or a fault among them, is read
    by argparse itself (`_cli_help._argparse`), so a child that runs a
    plain command line never imports it.
    """
    argv = list(argv)
    values = {option: default for option, (_, default, _) in OPTIONS.items()}
    command, i = None, 0
    try:
        while i < len(argv):
            arg = argv[i]
            if command is None and arg in COMMANDS:
                command, i = arg, i + 1
                continue
            # a word that is no option, a missing value or one that convert
            # refuses raises KeyError, IndexError or ValueError
            convert, value = OPTIONS[arg][0], argv[i + 1]
            if value.startswith("-") or not callable(convert) and value not in convert:
                raise ValueError(value)
            values[arg], i = convert(value) if callable(convert) else value, i + 2
    except (KeyError, IndexError, ValueError):
        command = None
    if command is None:
        from . import _cli_help
        return _cli_help._argparse(argv, COMMANDS, OPTIONS)
    return SimpleNamespace(subcommand=command,
                           **{_dest(option): value for option, value in values.items()})


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if args.format == "dot" and args.subcommand != "hyperelliptic":
            raise _Usage("dot format is only available for the hyperelliptic report")
        required = COMMANDS[args.subcommand][1]
        if any(getattr(args, _dest(option)) in (None, "") for option in required):
            *rest, last = required
            raise _Usage(f"{args.subcommand} requires {', '.join(rest)}"
                         f"{' and ' if rest else ''}{last}")
        build = _builder(args.subcommand)
    except _Usage as usage:
        from . import _cli_help
        if usage.args:
            print(f"{_cli_help._usage(OPTIONS)}\nfixloc: error: {usage.args[0]}", file=sys.stderr)
            raise SystemExit(2)
        build, args = (lambda _: _cli_help._help(COMMANDS, OPTIONS)), SimpleNamespace(format="text")
    try:
        try:
            payload, lines = build(args)
            code = 0
        except _PropertyFailure as failure:
            payload, code = failure.args[0], 1
        # the JSON text is built before anything is written, so a report that
        # cannot be written leaves stdout empty
        if code or args.format == "json":
            lines = [_json_text(payload)]
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"domain error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 3
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    try:
        if sys.stdout is None:
            # the process started with stdout closed (>&-): a closed pipe
            raise BrokenPipeError
        for line in lines:
            print(line)
        sys.stdout.flush()
        return code
    except OSError as exc:
        # a closed pipe, a full disk, an I/O fault: send what is left to
        # devnull, so that the flush at exit raises nothing (Python docs,
        # "Note on SIGPIPE")
        if sys.stdout is not None:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        reason = ("stdout was closed before the report was written"
                  if isinstance(exc, BrokenPipeError)
                  else f"the report could not be written to stdout: {exc.strerror or exc}")
        try:
            print(f"output error: {reason}", file=sys.stderr)
        except OSError:
            pass
        return 2


def run():
    """The process entry of `python -m fixloc.cli` and the `fixloc` script.

    Exits with main's code.  On every way out, the usage error's
    SystemExit(2) included, it first moves every object the process holds
    into the permanent generation (gc.freeze), which the collections at
    interpreter exit never visit, so the exit does not walk the heap that
    start-up and the report left; the process ending frees it.  The exit
    still runs atexit, flushes stdout and stderr and clears the modules.
    main itself freezes nothing, since a caller in the same process goes
    on collecting.
    """
    try:
        code = main()
    finally:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
