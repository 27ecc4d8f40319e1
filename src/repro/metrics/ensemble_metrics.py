"""Complexity metrics for Ensemble source."""

from __future__ import annotations

from ..ensemble import ast
from ..ensemble.parser import parse
from .base import Metrics, text_loc


def _walk_stmts(stmts: list[ast.Stmt]):
    for st in stmts:
        yield st
        if isinstance(st, ast.If):
            yield from _walk_stmts(st.then)
            yield from _walk_stmts(st.orelse)
        elif isinstance(st, (ast.For, ast.While)):
            yield from _walk_stmts(st.body)


def _walk_exprs(node):
    if isinstance(node, ast.Expr):
        yield node
        for attr in ("left", "right", "operand", "obj", "index", "cond",
                     "fill"):
            child = getattr(node, attr, None)
            if isinstance(child, ast.Expr):
                yield from _walk_exprs(child)
        for attr in ("args", "dims"):
            for child in getattr(node, attr, []) or []:
                yield from _walk_exprs(child)
        return
    for attr in ("value", "channel", "source", "target", "cond", "start",
                 "stop", "expr", "init"):
        child = getattr(node, attr, None)
        if isinstance(child, ast.Expr):
            yield from _walk_exprs(child)


class _Tally:
    def __init__(self) -> None:
        self.cyclomatic = 0
        self.a = 0
        self.b = 0
        self.c = 0

    def block(self, stmts: list[ast.Stmt]) -> None:
        """One behaviour / constructor / function / boot body."""
        self.cyclomatic += 1
        for st in _walk_stmts(stmts):
            if isinstance(st, (ast.If, ast.For, ast.While)):
                self.cyclomatic += 1
                self.c += 1
            if isinstance(st, (ast.Bind, ast.Assign, ast.Receive)):
                self.a += 1
            if isinstance(st, (ast.Send, ast.Connect)):
                self.b += 1
            for e in _walk_exprs(st):
                if isinstance(e, ast.CallE):
                    self.b += 1
                elif isinstance(
                    e, (ast.NewStruct, ast.NewChannel, ast.NewArray)
                ):
                    self.b += 1
                elif isinstance(e, ast.BinOpE):
                    if e.op in ("and", "or"):
                        self.cyclomatic += 1
                        self.c += 1
                    elif e.op in ("==", "!=", "<", "<=", ">", ">="):
                        self.c += 1
                elif isinstance(e, ast.UnOpE) and e.op == "not":
                    self.c += 1


def analyze_ensemble(source: str) -> Metrics:
    """Full metric vector for one Ensemble artifact."""
    program = parse(source)
    tally = _Tally()
    for actor in program.stage.actors:
        for state in actor.state:
            tally.a += 1
        tally.block(actor.constructor_body)
        tally.block(actor.behaviour)
    for fn in program.stage.functions:
        tally.block(fn.body)
    tally.block(program.stage.boot)
    return Metrics(
        loc=text_loc(source),
        cyclomatic=tally.cyclomatic,
        assignments=tally.a,
        branches=tally.b,
        conditions=tally.c,
    )
