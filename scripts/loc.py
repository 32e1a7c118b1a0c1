#!/usr/bin/env python3
"""Line counts per package, one table: the figure CHANGES.md quotes.

    python scripts/loc.py             # this checkout
    python scripts/loc.py ../parent   # another one (before/after a PR)
    python scripts/loc.py --markdown  # as a Markdown table (CI job summary)

Plain ``wc -l`` of ``*.py`` files: comments, docstrings and blank lines
count, so a PR cannot move the number by reformatting without the diff
showing it.
"""

from __future__ import annotations

import argparse
from pathlib import Path


def count(files) -> tuple[int, int]:
    """``(files, lines)`` of some python files."""
    files = list(files)
    return len(files), sum(
        len(path.read_text(encoding="utf-8").splitlines()) for path in files
    )


def rows(root: Path) -> list[tuple[str, int, int]]:
    src = root / "src" / "repro"
    table = [
        (f"src/repro/{package.name}", *count(package.rglob("*.py")))
        for package in sorted(src.iterdir())
        if package.is_dir() and package.name != "__pycache__"
    ]
    table.append(("src/repro/*.py", *count(src.glob("*.py"))))
    for name in ("src", "benchmarks", "scripts", "tests", "perfbench"):
        table.append((name, *count((root / name).rglob("*.py"))))
    return table


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "root", nargs="?", type=Path,
        default=Path(__file__).resolve().parent.parent,
        help="checkout to count (default: the one this script is in)",
    )
    parser.add_argument("--markdown", action="store_true")
    args = parser.parse_args()
    table = rows(args.root)
    if args.markdown:
        print("| package | files | lines |\n|---|---:|---:|")
        for name, files, lines in table:
            print(f"| `{name}` | {files} | {lines} |")
    else:
        width = max(len(name) for name, _, _ in table)
        for name, files, lines in table:
            print(f"{name:<{width}}  {files:>4} files  {lines:>7} lines")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
