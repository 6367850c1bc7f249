"""The CLI's usage line, help text and argparse reader, off the plain path.

`cli.main` imports this module only for a usage error or for -h, and
`cli.parse_args` only for a command line that it does not read itself,
so a child that runs a plain command line compiles none of it.  Each
function takes `cli.COMMANDS` and `cli.OPTIONS` as arguments, since no
module may import `cli` (see `errors`).
"""

from __future__ import annotations

from types import SimpleNamespace

from .errors import _Usage


def _metavar(option: str, convert) -> str:
    # argparse's: the option's dest (cli._dest) in capitals, or its choices
    if callable(convert):
        return option[2:].replace("-", "_").upper()
    return "{" + ",".join(convert) + "}"


def _usage(options: dict) -> str:
    described = " ".join(f"[{option} {_metavar(option, row[0])}]" for option, row in options.items())
    return f"usage: fixloc [-h] COMMAND {described}"


def _help(commands: dict, options: dict) -> tuple[None, list[str]]:
    """The help text as a text report, from COMMANDS and OPTIONS."""
    rows = [(name, " ".join(required)) for name, (_, required) in sorted(commands.items())]
    rows += [("-h, --help", "show this help text and exit")] + [
        (f"{option} {_metavar(option, convert)}",
         text if default is None else f"{text} (default: {default})")
        for option, (convert, default, text) in options.items()]
    lines = [f"  {name:26}{text}".rstrip() for name, text in rows]
    return None, [
        _usage(options), "", "discrete classification data of fixed loci on rank-2 moduli", "",
        "commands, with the options each requires:", *lines[:len(commands)], "",
        "options:", *lines[len(commands):], "",
        "An option may be shortened to a unique prefix, and its value given as",
        "--option VALUE or --option=VALUE; the last of a repeated option counts.",
        "Everything after -- is read as the command or as unrecognized."]


def _argparse(argv: list[str], commands: dict, options: dict) -> SimpleNamespace:
    """argv read by an argparse parser built from COMMANDS and OPTIONS, with
    its grammar and its messages, raised as _Usage."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            raise _Usage(message)

    class Help(argparse.Action):
        def __call__(self, *args):
            raise _Usage()

    parser = Parser(prog="fixloc", add_help=False)
    parser.add_argument("-h", "--help", action=Help, nargs=0, default=argparse.SUPPRESS)
    parser.add_argument("subcommand", choices=sorted(commands))
    for option, (convert, default, _) in options.items():
        kind = "type" if callable(convert) else "choices"
        parser.add_argument(option, default=default, **{kind: convert})
    return SimpleNamespace(**vars(parser.parse_args(argv)))
