"""Recursive-descent parser for kernel-C, building kernel IR directly.

The grammar is a C subset rich enough for OpenCL-style kernels and for
the single-threaded "C" application variants used by the complexity
metrics: functions, ``__kernel`` functions, scalar and array variables
with OpenCL address-space qualifiers, the usual statements and a full
C expression grammar (including the ternary operator, compound
assignment and ``++``/``--``).

Canonical ``for`` loops (``for (int i = a; i < b; i++)``) lower to
:class:`~repro.kir.ir.For`; non-canonical ones lower to an init
statement plus :class:`~repro.kir.ir.While`.
"""

from __future__ import annotations

from typing import Optional

from ..errors import ParseError
from .. import kir
from ..lexing import Token, TokenCursor
from .lexer import scan

_TYPE_KWS = ("int", "float", "bool", "void")
_SPACE_KWS = {
    "__global": kir.GLOBAL,
    "__local": kir.LOCAL,
    "__constant": kir.CONSTANT,
    "__private": kir.PRIVATE,
}
_ASSIGN_OPS = {"+=": "+", "-=": "-", "*=": "*", "/=": "/", "%=": "%"}


class Parser(TokenCursor):
    def __init__(self, source: str) -> None:
        tokens, self.directives = scan(source)
        super().__init__(tokens)

    # -- module ------------------------------------------------------------

    def parse_module(self) -> kir.Module:
        module = kir.Module()
        while not self.at("eof"):
            module.add(self.parse_function())
        return module

    def parse_function(self) -> kir.Function:
        is_kernel = bool(self.accept("kw", "__kernel"))
        ret_tok = self.peek()
        if not (ret_tok.kind == "kw" and ret_tok.text in _TYPE_KWS):
            raise self.error("expected a return type")
        self.next()
        ret_type: object = (
            kir.VOID if ret_tok.text == "void" else kir.scalar(ret_tok.text)
        )
        if is_kernel and ret_type != kir.VOID:
            raise ParseError(
                "kernels must return void", ret_tok.line, ret_tok.column
            )
        name = self.expect("id").text
        self.expect("op", "(")
        params: list[kir.Param] = []
        if not self.at("op", ")"):
            params.append(self.parse_param())
            while self.accept("op", ","):
                params.append(self.parse_param())
        self.expect("op", ")")
        body = self.parse_block()
        return kir.Function(name, params, ret_type, body, is_kernel=is_kernel)

    def parse_param(self) -> kir.Param:
        space = None
        tok = self.peek()
        if tok.kind == "kw" and tok.text in _SPACE_KWS:
            space = _SPACE_KWS[tok.text]
            self.next()
        type_tok = self.peek()
        if not (type_tok.kind == "kw" and type_tok.text in _TYPE_KWS[:3]):
            raise self.error("expected a parameter type")
        self.next()
        elem = kir.scalar(type_tok.text)
        is_array = bool(self.accept("op", "*"))
        name = self.expect("id").text
        if self.accept("op", "["):
            self.expect("op", "]")
            is_array = True
        if is_array:
            return kir.Param(name, kir.ArrayType(elem, space or kir.GLOBAL))
        if space is not None:
            raise self.error("address-space qualifier on a scalar parameter")
        return kir.Param(name, elem)

    # -- statements --------------------------------------------------------

    def parse_block(self) -> list[kir.Stmt]:
        self.expect("op", "{")
        stmts: list[kir.Stmt] = []
        while not self.at("op", "}"):
            stmts.extend(self.parse_stmt())
        self.expect("op", "}")
        return stmts

    def parse_stmt_or_block(self) -> list[kir.Stmt]:
        if self.at("op", "{"):
            return self.parse_block()
        return self.parse_stmt()

    def parse_stmt(self) -> list[kir.Stmt]:
        tok = self.peek()
        stmts = self._parse_stmt_inner(tok)
        for st in stmts:
            if not hasattr(st, "line"):
                st.line = tok.line  # type: ignore[attr-defined]
        return stmts

    def _parse_stmt_inner(self, tok: Token) -> list[kir.Stmt]:
        if tok.kind == "kw":
            if tok.text in _SPACE_KWS or tok.text in _TYPE_KWS[:3]:
                return [self.parse_decl()]
            if tok.text == "if":
                return [self.parse_if()]
            if tok.text == "for":
                return self.parse_for()
            if tok.text == "while":
                return [self.parse_while()]
            if tok.text == "break":
                self.next()
                self.expect("op", ";")
                return [kir.Break()]
            if tok.text == "continue":
                self.next()
                self.expect("op", ";")
                return [kir.Continue()]
            if tok.text == "return":
                self.next()
                value = None if self.at("op", ";") else self.parse_expr()
                self.expect("op", ";")
                return [kir.Return(value)]
            if tok.text == "barrier":
                self.next()
                self.expect("op", "(")
                # Accept any fence-flag identifier expression.
                while not self.at("op", ")"):
                    self.next()
                self.expect("op", ")")
                self.expect("op", ";")
                return [kir.Barrier()]
        stmt = self.parse_simple()
        self.expect("op", ";")
        return [stmt]

    def parse_decl(self) -> kir.Decl:
        space = None
        tok = self.peek()
        if tok.kind == "kw" and tok.text in _SPACE_KWS:
            space = _SPACE_KWS[tok.text]
            self.next()
        type_tok = self.peek()
        if not (type_tok.kind == "kw" and type_tok.text in _TYPE_KWS[:3]):
            raise self.error("expected a type in declaration")
        self.next()
        elem = kir.scalar(type_tok.text)
        name = self.expect("id").text
        if self.accept("op", "["):
            size = self.parse_expr()
            self.expect("op", "]")
            self.expect("op", ";")
            return kir.Decl(
                name, kir.ArrayType(elem, space or kir.PRIVATE), size=size
            )
        if space is not None and space != kir.PRIVATE:
            raise self.error("scalar declarations must be private")
        init = None
        if self.accept("op", "="):
            init = self.parse_expr()
        self.expect("op", ";")
        return kir.Decl(name, elem, init=init)

    def parse_if(self) -> kir.If:
        self.expect("kw", "if")
        self.expect("op", "(")
        cond = self.parse_expr()
        self.expect("op", ")")
        then = self.parse_stmt_or_block()
        orelse: list[kir.Stmt] = []
        if self.accept("kw", "else"):
            orelse = self.parse_stmt_or_block()
        return kir.If(cond, then, orelse)

    def parse_while(self) -> kir.While:
        self.expect("kw", "while")
        self.expect("op", "(")
        cond = self.parse_expr()
        self.expect("op", ")")
        body = self.parse_stmt_or_block()
        return kir.While(cond, body)

    def parse_for(self) -> list[kir.Stmt]:
        self.expect("kw", "for")
        self.expect("op", "(")
        # init: declaration or simple statement (no trailing ';' consumed)
        init: Optional[kir.Stmt]
        declared_var: Optional[str] = None
        if self.at("kw", "int"):
            self.next()
            var = self.expect("id").text
            self.expect("op", "=")
            start = self.parse_expr()
            init = kir.Decl(var, kir.INT_T, init=start)
            declared_var = var
        elif self.at("op", ";"):
            init = None
        else:
            init = self.parse_simple()
        self.expect("op", ";")
        cond = None if self.at("op", ";") else self.parse_expr()
        self.expect("op", ";")
        update = None if self.at("op", ")") else self.parse_simple()
        self.expect("op", ")")
        body = self.parse_stmt_or_block()

        lowered = self._lower_canonical_for(
            init, declared_var, cond, update, body
        )
        if lowered is not None:
            return [lowered]
        # Fall back to init + while(cond) { body; update; }
        stmts: list[kir.Stmt] = []
        if init is not None:
            stmts.append(init)
        loop_body = list(body)
        if update is not None:
            loop_body.append(update)
        stmts.append(kir.While(cond if cond is not None else kir.Const(True),
                               loop_body))
        return stmts

    def _lower_canonical_for(
        self,
        init: Optional[kir.Stmt],
        declared_var: Optional[str],
        cond: Optional[kir.Expr],
        update: Optional[kir.Stmt],
        body: list[kir.Stmt],
    ) -> Optional[kir.For]:
        """Recognise ``for (int i = a; i <op> b; i += c)`` and build ir.For."""
        if cond is None or update is None:
            return None
        if declared_var is not None:
            var = declared_var
            assert isinstance(init, kir.Decl) and init.init is not None
            start = init.init
        elif isinstance(init, kir.Assign):
            var = init.name
            start = init.value
        else:
            return None
        if not (
            isinstance(cond, kir.BinOp)
            and cond.op in ("<", "<=", ">", ">=")
            and isinstance(cond.left, kir.Var)
            and cond.left.name == var
        ):
            return None
        if not (isinstance(update, kir.Assign) and update.name == var):
            return None
        step = _step_of(update.value, var)
        if step is None:
            return None
        if step.value > 0 and cond.op not in ("<", "<="):
            return None
        if step.value < 0 and cond.op not in (">", ">="):
            return None
        stop = cond.right
        if cond.op == "<=":
            stop = kir.BinOp("+", stop, kir.Const(1))
        elif cond.op == ">=":
            stop = kir.BinOp("-", stop, kir.Const(1))
        return kir.For(var, start, stop, step, body)

    def parse_simple(self) -> kir.Stmt:
        """An expression-statement: assignment, ++/--, or a bare call."""
        checkpoint = self.pos
        if self.at("id"):
            name = self.next().text
            if self.accept("op", "++"):
                return kir.Assign(
                    name, kir.BinOp("+", kir.Var(name), kir.Const(1))
                )
            if self.accept("op", "--"):
                return kir.Assign(
                    name, kir.BinOp("-", kir.Var(name), kir.Const(1))
                )
            if self.at("op", "=") and not self.at("op", "=="):
                self.next()
                return kir.Assign(name, self.parse_expr())
            op_tok = self.peek()
            if op_tok.kind == "op" and op_tok.text in _ASSIGN_OPS:
                self.next()
                rhs = self.parse_expr()
                return kir.Assign(
                    name, kir.BinOp(_ASSIGN_OPS[op_tok.text], kir.Var(name), rhs)
                )
            if self.at("op", "["):
                self.next()
                index = self.parse_expr()
                self.expect("op", "]")
                if self.accept("op", "="):
                    return kir.Store(kir.Var(name), index, self.parse_expr())
                op_tok = self.peek()
                if op_tok.kind == "op" and op_tok.text in _ASSIGN_OPS:
                    self.next()
                    rhs = self.parse_expr()
                    load = kir.Index(kir.Var(name), index)
                    return kir.Store(
                        kir.Var(name),
                        index,
                        kir.BinOp(_ASSIGN_OPS[op_tok.text], load, rhs),
                    )
                if self.accept("op", "++"):
                    load = kir.Index(kir.Var(name), index)
                    return kir.Store(
                        kir.Var(name), index,
                        kir.BinOp("+", load, kir.Const(1)),
                    )
            # Not an assignment after all: rewind and parse an expression.
            self.pos = checkpoint
        expr = self.parse_expr()
        return kir.ExprStmt(expr)

    # -- expressions (precedence climbing) -----------------------------

    def parse_expr(self) -> kir.Expr:
        return self.parse_ternary()

    def parse_ternary(self) -> kir.Expr:
        cond = self.parse_or()
        if self.accept("op", "?"):
            if_true = self.parse_expr()
            self.expect("op", ":")
            if_false = self.parse_ternary()
            return kir.Select(cond, if_true, if_false)
        return cond

    def _binop_level(self, ops: tuple[str, ...], next_level) -> kir.Expr:
        left = next_level()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in ops:
                self.next()
                right = next_level()
                left = kir.BinOp(tok.text, left, right)
            else:
                return left

    def parse_or(self) -> kir.Expr:
        return self._binop_level(("||",), self.parse_and)

    def parse_and(self) -> kir.Expr:
        return self._binop_level(("&&",), self.parse_bitor)

    def parse_bitor(self) -> kir.Expr:
        return self._binop_level(("|",), self.parse_bitxor)

    def parse_bitxor(self) -> kir.Expr:
        return self._binop_level(("^",), self.parse_bitand)

    def parse_bitand(self) -> kir.Expr:
        return self._binop_level(("&",), self.parse_equality)

    def parse_equality(self) -> kir.Expr:
        return self._binop_level(("==", "!="), self.parse_relational)

    def parse_relational(self) -> kir.Expr:
        return self._binop_level(("<", "<=", ">", ">="), self.parse_shift)

    def parse_shift(self) -> kir.Expr:
        return self._binop_level(("<<", ">>"), self.parse_add)

    def parse_add(self) -> kir.Expr:
        return self._binop_level(("+", "-"), self.parse_mul)

    def parse_mul(self) -> kir.Expr:
        return self._binop_level(("*", "/", "%"), self.parse_unary)

    def parse_unary(self) -> kir.Expr:
        tok = self.peek()
        if tok.kind == "op" and tok.text in ("-", "!", "~"):
            self.next()
            return kir.UnOp(tok.text, self.parse_unary())
        if tok.kind == "op" and tok.text == "+":
            self.next()
            return self.parse_unary()
        return self.parse_cast()

    def parse_cast(self) -> kir.Expr:
        if (
            self.at("op", "(")
            and self.peek(1).kind == "kw"
            and self.peek(1).text in _TYPE_KWS[:3]
            and self.peek(2).kind == "op"
            and self.peek(2).text == ")"
        ):
            self.next()
            type_tok = self.next()
            self.next()
            operand = self.parse_unary()
            return kir.Cast(kir.scalar(type_tok.text), operand)
        return self.parse_postfix()

    def parse_postfix(self) -> kir.Expr:
        expr = self.parse_primary()
        while self.accept("op", "["):
            index = self.parse_expr()
            self.expect("op", "]")
            expr = kir.Index(expr, index)
        return expr

    def parse_primary(self) -> kir.Expr:
        tok = self.peek()
        if tok.kind == "int":
            self.next()
            return kir.Const(int(tok.text))
        if tok.kind == "float":
            self.next()
            return kir.Const(float(tok.text))
        if tok.kind == "kw" and tok.text in ("true", "false"):
            self.next()
            return kir.Const(tok.text == "true")
        if tok.kind == "id":
            self.next()
            if self.accept("op", "("):
                args: list[kir.Expr] = []
                if not self.at("op", ")"):
                    args.append(self.parse_expr())
                    while self.accept("op", ","):
                        args.append(self.parse_expr())
                self.expect("op", ")")
                return kir.Call(tok.text, args)
            return kir.Var(tok.text)
        if self.accept("op", "("):
            expr = self.parse_expr()
            self.expect("op", ")")
            return expr
        raise self.error(f"unexpected token {tok.text or tok.kind!r}")


def _step_of(value: kir.Expr, var: str) -> Optional[kir.Const]:
    """If *value* is ``var + c`` / ``var - c``, return the step constant."""
    if not isinstance(value, kir.BinOp):
        return None
    if not (isinstance(value.left, kir.Var) and value.left.name == var):
        return None
    if not isinstance(value.right, kir.Const):
        return None
    if value.op == "+":
        return kir.Const(value.right.value)
    if value.op == "-":
        return kir.Const(-value.right.value)
    return None


def parse(source: str) -> kir.Module:
    """Parse kernel-C *source* into an (untyped) kir module."""
    return Parser(source).parse_module()
