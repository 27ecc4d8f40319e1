#!/usr/bin/env python
"""Docstring lint for the documented core of the reproduction.

Checks that every module under ``src/repro/opencl/``,
``src/repro/kir/``, ``src/repro/actors/`` and ``src/repro/runtime/``
(plus ``src/repro/config.py``, ``src/repro/kcache.py``,
``src/repro/lexing.py``, ``src/repro/openacc/runtime.py`` and
``src/repro/harness/chaos.py``)
carries a module docstring, and that each top-level *public* class and
function in those modules states a one-line contract.  CI runs this so the scheduling/dispatch/
reliability layers the architecture and reliability documents describe
cannot silently lose their contracts.

Exit status: 0 when clean, 1 with a listing of offenders otherwise.
"""

from __future__ import annotations

import ast
import os
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Files and directories whose public surface must be documented.
TARGETS = [
    os.path.join("src", "repro", "opencl"),
    os.path.join("src", "repro", "kir"),
    os.path.join("src", "repro", "actors"),
    os.path.join("src", "repro", "config.py"),
    os.path.join("src", "repro", "kcache.py"),
    os.path.join("src", "repro", "lexing.py"),
    os.path.join("src", "repro", "runtime"),
    os.path.join("src", "repro", "openacc", "runtime.py"),
    os.path.join("src", "repro", "harness", "chaos.py"),
]

#: Modules the directory sweep must pick up — a rename or move that
#: drops one of these from coverage fails the lint instead of silently
#: shrinking it.
REQUIRED = [
    os.path.join("src", "repro", "config.py"),
    os.path.join("src", "repro", "actors", "kernel_actor.py"),
    os.path.join("src", "repro", "opencl", "fusion.py"),
    os.path.join("src", "repro", "opencl", "queue.py"),
    os.path.join("src", "repro", "opencl", "faults.py"),
    os.path.join("src", "repro", "opencl", "memory.py"),
    os.path.join("src", "repro", "kir", "fuse.py"),
    os.path.join("src", "repro", "kir", "npcodegen.py"),
    os.path.join("src", "repro", "kir", "semantics.py"),
    os.path.join("src", "repro", "lexing.py"),
    os.path.join("src", "repro", "runtime", "vm.py"),
    os.path.join("src", "repro", "runtime", "residency.py"),
    os.path.join("src", "repro", "openacc", "runtime.py"),
    os.path.join("src", "repro", "harness", "chaos.py"),
]


def target_files() -> list[str]:
    out = []
    for target in TARGETS:
        path = os.path.join(REPO, target)
        if os.path.isdir(path):
            for name in sorted(os.listdir(path)):
                if name.endswith(".py"):
                    out.append(os.path.join(path, name))
        else:
            out.append(path)
    return out


def missing_docstrings(path: str) -> list[str]:
    """Human-readable offences (``file:line: what``) in one module."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    rel = os.path.relpath(path, REPO)
    offences = []
    if ast.get_docstring(tree) is None:
        offences.append(f"{rel}:1: module docstring missing")
    for node in tree.body:
        if not isinstance(
            node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        if node.name.startswith("_"):
            continue
        if ast.get_docstring(node) is None:
            kind = "class" if isinstance(node, ast.ClassDef) else "function"
            offences.append(
                f"{rel}:{node.lineno}: public {kind} "
                f"{node.name!r} has no docstring"
            )
    return offences


def main() -> int:
    offences = []
    files = target_files()
    for required in REQUIRED:
        if os.path.join(REPO, required) not in files:
            offences.append(f"{required}:1: required module not covered")
    for path in files:
        offences.extend(missing_docstrings(path))
    if offences:
        print("docstring lint failed:", file=sys.stderr)
        for line in offences:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(f"docstring lint: {len(files)} files clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
