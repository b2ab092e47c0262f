#!/usr/bin/env python3
"""CI guard against dead library modules.

Every .h/.cpp under src/ should be something a shipped program compiles.
This walks the quoted includes (#include "...") outward from every .cpp
and .h under bench/, examples/ and servebench/ (the paper's figures, the
examples and the serving benchmark).  A quoted include resolves against
the including file's directory first and then against src/, as the
compiler's search path does.  Reaching a src/ header also reaches its
.cpp sibling, which is where the declared code is defined.

Prints each src/ file the walk never reaches, one per line, and exits 1
if there is any; exits 0 with no output when every file is reached.
Unit tests are not roots: a module only its own tests call is dead.

    python3 scripts/unreached_src.py

Dependency-free (stdlib only).
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ROOT_DIRS = ("bench", "examples", "servebench")
SOURCE_SUFFIXES = (".h", ".cpp")
INCLUDE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.MULTILINE)


def sources_under(directory):
    return sorted(p for p in directory.rglob("*")
                  if p.suffix in SOURCE_SUFFIXES and p.is_file())


def resolve(include, including_file):
    for base in (including_file.parent, SRC):
        candidate = (base / include).resolve()
        if candidate.is_file():
            return candidate
    return None


def reached_files():
    pending = [p.resolve() for d in ROOT_DIRS for p in sources_under(ROOT / d)]
    reached = set()
    while pending:
        path = pending.pop()
        if path in reached:
            continue
        reached.add(path)
        for include in INCLUDE.findall(path.read_text(encoding="utf-8")):
            target = resolve(include, path)
            if target is None:
                continue
            pending.append(target)
            sibling = target.with_suffix(".cpp")
            if target.suffix == ".h" and sibling.is_file():
                pending.append(sibling)
    return reached


def main():
    reached = reached_files()
    unreached = [p for p in sources_under(SRC) if p.resolve() not in reached]
    for path in unreached:
        print(path.relative_to(ROOT))
    return 1 if unreached else 0


if __name__ == "__main__":
    sys.exit(main())
