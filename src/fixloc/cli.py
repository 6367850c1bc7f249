"""Command line interface: fixed-locus reports over JSON documents.

Each subcommand has one row in COMMANDS: the report module that builds
its report and the options it cannot run without.  A report module
(`_cli_covers`, `_cli_equivariant`, `_cli_locus`, `_cli_stability`)
imports the layers its builders run, and main imports only the one of
the chosen subcommand, so a child compiles no other command's code.  A
builder, `cmd_<subcommand>` with - read as _, returns the report as
(payload, lines), the JSON document and the text or dot lines, or
raises _PropertyFailure with a counterexample document; it writes
nothing.  main writes the report on stdout, or one message on stderr,
each through _write, the one function that touches a standard stream,
and returns every exit code; it raises no SystemExit.

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
Python's digit limit).  Exits 1, 2 and 3 hold whatever state stderr is
in: a message that cannot be written to a closed or failing stderr is
dropped, with no traceback, and the code stays.  All output is
deterministic for a fixed seed: reports are byte-identical across runs.
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


def _write(lines, stderr: bool = False) -> OSError | None:
    """Writes lines to stdout, or to stderr, and flushes it: the one place
    cli touches a standard stream.

    Returns None, or the OSError of a stream that is closed or fails: a
    closed pipe, a full disk, an I/O fault, or a BrokenPipeError for a
    stream the process started with closed (>&-), which Python leaves as
    None.  A stream that fails is pointed at devnull, so that what is left
    in its buffer goes nowhere and the flush at exit raises nothing (Python
    docs, "Note on SIGPIPE").
    """
    stream = sys.stderr if stderr else sys.stdout
    if stream is None:
        return BrokenPipeError()
    try:
        for line in lines:
            print(line, file=stream)
        stream.flush()
    except OSError as exc:
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
        return exc


def _report(argv) -> tuple[list[str], int]:
    """The lines of argv's report and its exit code: 0, or 1 when a checked
    property failed and the lines are the counterexample.  Raises _Usage
    with the message of a command line that is refused, and the errors the
    builder raises."""
    try:
        args = parse_args(argv)
    except _Usage as usage:
        if usage.args:
            raise
        # -h or --help: the help text, written as a text report
        from . import _cli_help
        return _cli_help._help(COMMANDS, OPTIONS)[1], 0
    if args.format == "dot" and args.subcommand != "hyperelliptic":
        raise _Usage("dot format is only available for the hyperelliptic report")
    required = COMMANDS[args.subcommand][1]
    if any(getattr(args, _dest(option)) in (None, "") for option in required):
        *rest, last = required
        raise _Usage(f"{args.subcommand} requires {', '.join(rest)}"
                     f"{' and ' if rest else ''}{last}")
    if args.file == "":
        # bijection-check, whose --file is optional, given an empty one
        raise _Usage(f"{args.subcommand} --file is empty")
    # the JSON text is built before anything is written, so a report that
    # cannot be written leaves stdout empty
    try:
        payload, lines = _builder(args.subcommand)(args)
    except _PropertyFailure as failure:
        return [_json_text(failure.args[0])], 1
    return ([_json_text(payload)] if args.format == "json" else lines), 0


def main(argv=None) -> int:
    """Runs the command line argv, sys.argv[1:] by default: writes the
    report on stdout or one message on stderr, and returns the exit code.
    A stdout that is closed or fails is an output error, exit 2; a stderr
    that is closed or fails drops the message and keeps the code."""
    try:
        lines, code = _report(sys.argv[1:] if argv is None else argv)
    except _Usage as usage:
        from . import _cli_help
        message, code = f"{_cli_help._usage(OPTIONS)}\nfixloc: error: {usage.args[0]}", 2
    except SchemaError as exc:
        message, code = f"schema error: {exc}", 2
    except DomainError as exc:
        message, code = f"domain error: {exc.__class__.__name__}: {exc}", 3
    except InternalError as exc:
        message, code = f"internal error: {exc}", 1
    else:
        if not (fault := _write(lines)):
            return code
        reason = ("stdout was closed before the report was written"
                  if isinstance(fault, BrokenPipeError)
                  else f"the report could not be written to stdout: {fault.strerror or fault}")
        message, code = f"output error: {reason}", 2
    _write([message], stderr=True)
    return code


def run():
    """The process entry of `python -m fixloc.cli` and the `fixloc` script.

    Exits with main's code.  First it moves every object the process holds
    into the permanent generation (gc.freeze), which the collections at
    interpreter exit never visit, so the exit does not walk the heap that
    start-up and the report left; the process ending frees it.  The exit
    still runs atexit, flushes stdout and stderr and clears the modules.
    main itself freezes nothing, since a caller in the same process goes
    on collecting.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
