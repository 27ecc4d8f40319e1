"""Kernel-C: the OpenCL-C-subset language of the repro stack.

Public entry points:

* :func:`compile_source` — parse + typecheck + validate kernel-C text
  into a kir module.
* :func:`build` — compile to an executable :class:`~repro.kir.CompiledModule`.
* :func:`run_host` — compile and call a host function (used by the
  single-threaded "C" application variants).
"""

from __future__ import annotations

from typing import Any, Sequence

from .. import kir
from .lexer import scan, tokenize  # noqa: F401
from .parser import Parser, parse  # noqa: F401
from .typecheck import typecheck  # noqa: F401


def compile_source(source: str) -> kir.Module:
    """Compile kernel-C *source* to a validated, type-annotated kir module."""
    module = parse(source)
    typecheck(module)
    kir.validate(module)
    return module


def build(source: str) -> kir.CompiledModule:
    """Compile kernel-C *source* all the way to executable form."""
    return kir.compile_module(compile_source(source))


def run_host(
    source: str, function: str, args: Sequence[Any]
) -> tuple[Any, int]:
    """Compile *source* and call host *function*; returns (value, ops).

    Array arguments are passed as mutable Python lists, so callers see
    in-place writes — matching C pointer semantics.
    """
    return build(source).call(function, args)
