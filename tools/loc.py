#!/usr/bin/env python3
"""Prints the C++ line counts of src/, tests/ and perfbench/.

A line counts when it is neither blank nor a `//` comment line, the
measure ROADMAP.md quotes for code size. Files are the .h and .cpp files
under each tree, tests/lint_fixtures included.

Usage: python3 tools/loc.py
"""

import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
TREES = ("src", "tests", "perfbench")
SUFFIXES = (".h", ".cpp")


def count_lines(path):
    n = 0
    with open(path, encoding="utf-8", errors="replace") as f:
        for line in f:
            s = line.strip()
            if s and not s.startswith("//"):
                n += 1
    return n


def main():
    for tree in TREES:
        files = sorted(p for p in (ROOT / tree).rglob("*")
                       if p.suffix in SUFFIXES and p.is_file())
        total = sum(count_lines(p) for p in files)
        print(f"{tree + '/':<11} {total:>7} lines in {len(files)} files")


if __name__ == "__main__":
    main()
