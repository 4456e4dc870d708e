"""The argparse parser of the command line, which runs only for ``--help``,
usage errors and the other lines ``cli._plain_args`` declines."""

import argparse

from . import cli


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or, given ``argv``, one on which every
    subcommand has its name and help but only the one ``argv`` names (its
    first argument not starting with ``-``) has its arguments: the only
    subparser that parsing ``argv`` can reach."""
    named = None if argv is None else next((a for a in argv if not a.startswith("-")), "")
    parser = argparse.ArgumentParser(
        prog="treeseries",
        description="size-weighted tree automata, their series, and compilers",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, module, arguments in cli._COMMANDS:
        p = sub.add_parser(name, help=help_text)
        if named in (None, name):
            for flag, options in arguments:
                p.add_argument(flag, **options)
            p.set_defaults(module=module)
    return parser
