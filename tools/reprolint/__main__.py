"""Command-line entry point: ``python -m tools.reprolint [paths...]``.

Exit status 0 when clean, 1 when violations were found, 2 on usage
errors — the same convention as the repo's other gates, so CI and
``make check`` can chain them.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from .engine import DEFAULT_TARGETS, iter_python_files, lint_paths
from .rules import ALL_RULES


def _list_rules() -> str:
    blocks: List[str] = []
    for rule in ALL_RULES:
        doc = inspect.getdoc(rule) or "(undocumented)"
        blocks.append(f"{rule.id}: {rule.title}\n\n{doc}")
    return "\n\n" + ("\n\n" + "-" * 72 + "\n\n").join(blocks)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the linter; returns the process exit status."""
    parser = argparse.ArgumentParser(
        prog="reprolint",
        description="repo-specific invariant linter (rules R001-R010)",
    )
    parser.add_argument(
        "paths", nargs="*", type=Path,
        help=f"files/directories to lint (default: {' '.join(DEFAULT_TARGETS)})",
    )
    parser.add_argument(
        "--src-root", type=Path, default=Path("src"),
        help="root for dotted module names (default: src)",
    )
    parser.add_argument(
        "--rule", action="append", default=None, metavar="RXXX",
        help="check only the given rule id(s); repeatable",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog (ids, titles, rationale) and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return 0

    rules = ALL_RULES
    if args.rule:
        wanted = set(args.rule)
        known = {rule.id for rule in ALL_RULES}
        unknown = sorted(wanted - known)
        if unknown:
            parser.error(f"unknown rule id(s): {', '.join(unknown)}")
        rules = [rule for rule in ALL_RULES if rule.id in wanted]

    paths = args.paths or [Path(p) for p in DEFAULT_TARGETS]
    missing = [p for p in paths if not p.exists()]
    if missing:
        parser.error(f"no such path(s): {', '.join(map(str, missing))}")

    files = iter_python_files(paths)
    violations = lint_paths(paths, src_root=args.src_root, rules=rules)
    for violation in violations:
        print(violation.format())
    if violations:
        print(
            f"\nreprolint: {len(violations)} violation(s) in "
            f"{len({v.path for v in violations})} of {len(files)} file(s)",
            file=sys.stderr,
        )
        return 1
    print(f"reprolint: {len(files)} file(s) clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
