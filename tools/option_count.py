"""Count the settings that blockrange offers its users.

Lists the parameter count of every exported function, class constructor
and public method (exceptions excluded; ``self`` and ``cls`` not counted)
and the option strings of every CLI subcommand (``--help`` not counted),
then prints the two totals.  Run from the repository root:

    PYTHONPATH=src python tools/option_count.py
"""

from __future__ import annotations

import argparse
import inspect
import sys

import blockrange
from blockrange import cli


def _arity(func, bound: bool) -> int:
    return len(inspect.signature(func).parameters) - bound


def api_parameters() -> dict[str, int]:
    """Parameter count of each public callable, by dotted name."""
    out = {}
    for name in blockrange.__all__:
        obj = getattr(blockrange, name)
        if inspect.isclass(obj):
            if issubclass(obj, BaseException):
                continue
            out[name] = _arity(obj, False)
            for attr, member in vars(obj).items():
                func = getattr(member, "__func__", member)  # class- and staticmethods
                if not attr.startswith("_") and inspect.isfunction(func):
                    out[f"{name}.{attr}"] = _arity(func, not isinstance(member, staticmethod))
        elif callable(obj):
            out[name] = _arity(obj, False)
    return out


def cli_flags() -> dict[str, list[str]]:
    """Option strings of each subcommand."""
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        command: [s for a in p._actions for s in a.option_strings if s not in ("-h", "--help")]
        for command, p in sub.choices.items()
    }


def main() -> int:
    params, flags = api_parameters(), cli_flags()
    for name, count in params.items():
        print(f"{count:3d}  {name}")
    for command, options in flags.items():
        print(f"{len(options):3d}  blockrange {command}: {' '.join(options)}")
    print(f"public parameters: {sum(params.values())}")
    print(f"CLI flag slots: {sum(map(len, flags.values()))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
