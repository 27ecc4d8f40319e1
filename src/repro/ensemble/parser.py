"""Recursive-descent parser for Ensemble.

Produces the AST of :mod:`repro.ensemble.ast`.  Syntax notes relative
to the paper's listings:

* ``=`` binds a new name (type inferred); ``:=`` assigns an existing
  lvalue — exactly as in Listings 2 and 3;
* ``for i = a .. b do { ... }`` iterates inclusively;
* OpenCL actor settings use the paper's angle-bracket form:
  ``opencl <device_index=0, device_type=CPU> actor ...``;
* both ``and``/``or``/``not`` and ``&&``/``||``/``!`` are accepted.
"""

from __future__ import annotations

from typing import Optional

from ..errors import ParseError
from ..lexing import TokenCursor
from . import ast
from .lexer import tokenize

_BASE_TYPES = ("integer", "real", "boolean", "string")


class Parser(TokenCursor):
    def __init__(self, source: str) -> None:
        super().__init__(tokenize(source))

    def at_kw(self, *words: str) -> bool:
        tok = self.peek()
        return tok.kind == "kw" and tok.text in words

    # -- program ------------------------------------------------------------

    def parse_program(self) -> ast.Program:
        structs: list[ast.StructDecl] = []
        interfaces: list[ast.InterfaceDecl] = []
        stage: Optional[ast.StageDecl] = None
        while not self.at("eof"):
            if self.at_kw("type"):
                decl = self.parse_type_decl()
                if isinstance(decl, ast.StructDecl):
                    structs.append(decl)
                else:
                    interfaces.append(decl)
            elif self.at_kw("stage"):
                if stage is not None:
                    raise self.error("only one stage per program")
                stage = self.parse_stage()
            else:
                raise self.error("expected a type declaration or a stage")
        if stage is None:
            raise ParseError("program has no stage")
        return ast.Program(structs, interfaces, stage)

    # -- type declarations ---------------------------------------------

    def parse_type_decl(self):
        line = self.expect("kw", "type").line
        name = self.expect("id").text
        self.expect("kw", "is")
        if self.at_kw("opencl"):
            self.next()
            self.expect("kw", "struct")
            fields = self._paren_fields(chan_ok=True)
            return ast.StructDecl(name, fields, is_opencl=True, line=line)
        if self.at_kw("struct"):
            self.next()
            fields = self._paren_fields(chan_ok=False)
            return ast.StructDecl(name, fields, line=line)
        if self.at_kw("interface"):
            self.next()
            fields = self._paren_fields(chan_ok=True, chan_required=True)
            return ast.InterfaceDecl(name, fields, line=line)
        raise self.error("expected struct, opencl struct or interface")

    def _paren_fields(
        self, chan_ok: bool, chan_required: bool = False
    ) -> list[ast.FieldDecl]:
        self.expect("op", "(")
        fields: list[ast.FieldDecl] = []
        while not self.at("op", ")"):
            fields.append(self._field(chan_ok, chan_required))
            if not self.accept("op", ";"):
                break
        self.expect("op", ")")
        return fields

    def _field(self, chan_ok: bool, chan_required: bool) -> ast.FieldDecl:
        tok = self.peek()
        if self.at_kw("in", "out"):
            if not chan_ok:
                raise self.error("channel fields are not allowed here")
            direction = self.next().text
            movable = bool(self.accept("kw", "mov"))
            elem = self.parse_type_expr()
            name = self.expect("id").text
            buffer = 0
            if self.at("op", "[") and self.peek(1).kind == "int":
                # optional buffer: `in integer input[4]` (paper Section
                # 4: "each channel may have an optional buffer")
                self.next()
                buffer = int(self.expect("int").text)
                self.expect("op", "]")
                if direction != "in":
                    raise self.error(
                        "buffers are declared on the receiving end"
                    )
            chan = ast.ChanTypeExpr(
                direction, elem, movable, buffer, line=tok.line
            )
            return ast.FieldDecl(chan, name, line=tok.line)
        if chan_required:
            raise self.error("interface fields must be 'in' or 'out' channels")
        typ = self.parse_type_expr()
        name = self.expect("id").text
        return ast.FieldDecl(typ, name, line=tok.line)

    def parse_type_expr(self) -> ast.TypeExpr:
        tok = self.peek()
        movable = bool(self.accept("kw", "mov"))
        if self.at_kw(*_BASE_TYPES):
            base: ast.TypeExpr = ast.NamedType(self.next().text, line=tok.line)
        elif self.at("id"):
            base = ast.NamedType(self.next().text, line=tok.line)
        else:
            raise self.error("expected a type")
        dims = 0
        while self.at("op", "[") and self.peek(1).text == "]":
            self.next()
            self.next()
            dims += 1
        if dims:
            base = ast.ArrayTypeExpr(base, dims, line=tok.line)
        if movable:
            base = ast.MovType(base, line=tok.line)
        return base

    # -- stage ---------------------------------------------------------------

    def parse_stage(self) -> ast.StageDecl:
        line = self.expect("kw", "stage").line
        name = self.expect("id").text
        self.expect("op", "{")
        actors: list[ast.ActorDecl] = []
        functions: list[ast.FunctionDecl] = []
        boot: Optional[list[ast.Stmt]] = None
        while not self.at("op", "}"):
            if self.at_kw("actor", "opencl"):
                actors.append(self.parse_actor())
            elif self.at_kw("function"):
                functions.append(self.parse_function())
            elif self.at_kw("boot"):
                if boot is not None:
                    raise self.error("duplicate boot block")
                self.next()
                boot = self.parse_block()
            else:
                raise self.error("expected actor, function or boot")
        self.expect("op", "}")
        if boot is None:
            raise ParseError(f"stage {name!r} has no boot block", line, 1)
        return ast.StageDecl(name, actors, functions, boot, line=line)

    def parse_actor(self) -> ast.ActorDecl:
        line = self.peek().line
        is_opencl = False
        settings: dict[str, str] = {}
        if self.accept("kw", "opencl"):
            is_opencl = True
            if self.accept("op", "<"):
                while not self.at("op", ">"):
                    key = self.expect("id").text
                    self.expect("op", "=")
                    tok = self.next()
                    settings[key] = tok.text
                    if not self.accept("op", ","):
                        break
                self.expect("op", ">")
        self.expect("kw", "actor")
        name = self.expect("id").text
        self.expect("kw", "presents")
        interface = self.expect("id").text
        self.expect("op", "{")
        state: list[ast.StateDecl] = []
        while self.at("id") and self.peek(1).text == "=":
            sline = self.peek().line
            sname = self.next().text
            self.next()  # '='
            init = self.parse_expr()
            self.expect("op", ";")
            state.append(ast.StateDecl(sname, init, line=sline))
        self.expect("kw", "constructor")
        self.expect("op", "(")
        params: list[ast.Param] = []
        if not self.at("op", ")"):
            params.append(self._param())
            while self.accept("op", ","):
                params.append(self._param())
        self.expect("op", ")")
        ctor_body = self.parse_block()
        self.expect("kw", "behaviour")
        behaviour = self.parse_block()
        self.expect("op", "}")
        return ast.ActorDecl(
            name,
            interface,
            state,
            params,
            ctor_body,
            behaviour,
            is_opencl=is_opencl,
            opencl_settings=settings,
            line=line,
        )

    def _param(self) -> ast.Param:
        line = self.peek().line
        typ = self.parse_type_expr()
        name = self.expect("id").text
        return ast.Param(typ, name, line=line)

    def parse_function(self) -> ast.FunctionDecl:
        line = self.expect("kw", "function").line
        name = self.expect("id").text
        self.expect("op", "(")
        params: list[ast.Param] = []
        if not self.at("op", ")"):
            params.append(self._param())
            while self.accept("op", ","):
                params.append(self._param())
        self.expect("op", ")")
        ret_type = None
        if self.accept("op", ":"):
            ret_type = self.parse_type_expr()
        body = self.parse_block()
        return ast.FunctionDecl(name, params, ret_type, body, line=line)

    # -- statements --------------------------------------------------------

    def parse_block(self) -> list[ast.Stmt]:
        self.expect("op", "{")
        stmts: list[ast.Stmt] = []
        while not self.at("op", "}"):
            stmts.append(self.parse_stmt())
        self.expect("op", "}")
        return stmts

    def parse_stmt(self) -> ast.Stmt:
        tok = self.peek()
        if self.at_kw("send"):
            self.next()
            value = self.parse_expr()
            self.expect("kw", "on")
            channel = self.parse_expr()
            self.expect("op", ";")
            return ast.Send(value, channel, line=tok.line)
        if self.at_kw("receive"):
            self.next()
            name = self.expect("id").text
            self.expect("kw", "from")
            channel = self.parse_expr()
            self.expect("op", ";")
            return ast.Receive(name, channel, line=tok.line)
        if self.at_kw("connect"):
            self.next()
            source = self.parse_expr()
            self.expect("kw", "to")
            target = self.parse_expr()
            self.expect("op", ";")
            return ast.Connect(source, target, line=tok.line)
        if self.at_kw("if"):
            return self.parse_if()
        if self.at_kw("for"):
            self.next()
            var = self.expect("id").text
            self.expect("op", "=")
            start = self.parse_expr()
            self.expect("op", "..")
            stop = self.parse_expr()
            self.expect("kw", "do")
            body = self.parse_block()
            return ast.For(var, start, stop, body, line=tok.line)
        if self.at_kw("while"):
            self.next()
            cond = self.parse_expr()
            self.expect("kw", "do")
            body = self.parse_block()
            return ast.While(cond, body, line=tok.line)
        if self.at_kw("stop"):
            self.next()
            self.expect("op", ";")
            return ast.StopStmt(line=tok.line)
        if self.at_kw("return"):
            self.next()
            value = None if self.at("op", ";") else self.parse_expr()
            self.expect("op", ";")
            return ast.ReturnStmt(value, line=tok.line)
        # bind / assign / expression statement
        expr = self.parse_expr()
        if self.accept("op", ":="):
            value = self.parse_expr()
            self.expect("op", ";")
            return ast.Assign(expr, value, line=tok.line)
        if self.accept("op", "="):
            if not isinstance(expr, ast.Name):
                raise ParseError(
                    "'=' binds a new name; use ':=' to assign",
                    tok.line,
                    tok.column,
                )
            value = self.parse_expr()
            self.expect("op", ";")
            return ast.Bind(expr.id, value, line=tok.line)
        self.expect("op", ";")
        return ast.ExprStmt(expr, line=tok.line)

    def parse_if(self) -> ast.If:
        tok = self.expect("kw", "if")
        cond = self.parse_expr()
        self.accept("kw", "then")
        then = self.parse_block()
        orelse: list[ast.Stmt] = []
        if self.accept("kw", "else"):
            if self.at_kw("if"):
                orelse = [self.parse_if()]
            else:
                orelse = self.parse_block()
        return ast.If(cond, then, orelse, line=tok.line)

    # -- expressions (precedence climbing) -----------------------------

    def parse_expr(self) -> ast.Expr:
        return self.parse_or()

    def parse_or(self) -> ast.Expr:
        left = self.parse_and()
        while self.at_kw("or") or self.at("op", "||"):
            line = self.next().line
            right = self.parse_and()
            left = ast.BinOpE("or", left, right, line=line)
        return left

    def parse_and(self) -> ast.Expr:
        left = self.parse_equality()
        while self.at_kw("and") or self.at("op", "&&"):
            line = self.next().line
            right = self.parse_equality()
            left = ast.BinOpE("and", left, right, line=line)
        return left

    def parse_equality(self) -> ast.Expr:
        left = self.parse_relational()
        while self.at("op", "==") or self.at("op", "!="):
            tok = self.next()
            right = self.parse_relational()
            left = ast.BinOpE(tok.text, left, right, line=tok.line)
        return left

    def parse_relational(self) -> ast.Expr:
        left = self.parse_additive()
        while (
            self.at("op", "<")
            or self.at("op", "<=")
            or self.at("op", ">")
            or self.at("op", ">=")
        ):
            tok = self.next()
            right = self.parse_additive()
            left = ast.BinOpE(tok.text, left, right, line=tok.line)
        return left

    def parse_additive(self) -> ast.Expr:
        left = self.parse_multiplicative()
        while self.at("op", "+") or self.at("op", "-"):
            tok = self.next()
            right = self.parse_multiplicative()
            left = ast.BinOpE(tok.text, left, right, line=tok.line)
        return left

    def parse_multiplicative(self) -> ast.Expr:
        left = self.parse_unary()
        while self.at("op", "*") or self.at("op", "/") or self.at("op", "%"):
            tok = self.next()
            right = self.parse_unary()
            left = ast.BinOpE(tok.text, left, right, line=tok.line)
        return left

    def parse_unary(self) -> ast.Expr:
        tok = self.peek()
        if self.at("op", "-"):
            self.next()
            return ast.UnOpE("-", self.parse_unary(), line=tok.line)
        if self.at("op", "!") or self.at_kw("not"):
            self.next()
            return ast.UnOpE("not", self.parse_unary(), line=tok.line)
        return self.parse_postfix()

    def parse_postfix(self) -> ast.Expr:
        expr = self.parse_primary()
        while True:
            if self.accept("op", "."):
                field = self.expect("id").text
                expr = ast.FieldAccess(expr, field, line=self.peek().line)
            elif self.at("op", "[") and self.peek(1).text != "]":
                self.next()
                index = self.parse_expr()
                self.expect("op", "]")
                expr = ast.IndexAccess(expr, index, line=self.peek().line)
            else:
                return expr

    def parse_primary(self) -> ast.Expr:
        tok = self.peek()
        if tok.kind == "int":
            self.next()
            return ast.IntLit(int(tok.text), line=tok.line)
        if tok.kind == "real":
            self.next()
            return ast.RealLit(float(tok.text), line=tok.line)
        if tok.kind == "string":
            self.next()
            return ast.StringLit(tok.text, line=tok.line)
        if self.at_kw("true", "false"):
            self.next()
            return ast.BoolLit(tok.text == "true", line=tok.line)
        if self.at_kw("new"):
            return self.parse_new()
        if tok.kind == "id":
            self.next()
            if self.accept("op", "("):
                args: list[ast.Expr] = []
                if not self.at("op", ")"):
                    args.append(self.parse_expr())
                    while self.accept("op", ","):
                        args.append(self.parse_expr())
                self.expect("op", ")")
                return ast.CallE(tok.text, args, line=tok.line)
            return ast.Name(tok.text, line=tok.line)
        if self.accept("op", "("):
            expr = self.parse_expr()
            self.expect("op", ")")
            return expr
        raise self.error(f"unexpected token {tok.text or tok.kind!r}")

    def parse_new(self) -> ast.Expr:
        tok = self.expect("kw", "new")
        if self.at_kw("in", "out"):
            direction = self.next().text
            movable = bool(self.accept("kw", "mov"))
            element = self.parse_type_expr()
            return ast.NewChannel(direction, element, movable, line=tok.line)
        space = ""
        if self.at_kw("local"):
            self.next()
            space = "local"
        type_tok = self.peek()
        if self.at_kw(*_BASE_TYPES):
            elem_name = self.next().text
        elif self.at("id"):
            elem_name = self.next().text
        else:
            raise self.error("expected a type after 'new'")
        element = ast.NamedType(elem_name, line=type_tok.line)
        if self.at("op", "("):
            if space:
                raise self.error("'local' applies only to arrays")
            self.next()
            args: list[ast.Expr] = []
            if not self.at("op", ")"):
                args.append(self.parse_expr())
                while self.accept("op", ","):
                    args.append(self.parse_expr())
            self.expect("op", ")")
            return ast.NewStruct(elem_name, args, line=tok.line)
        dims: list[ast.Expr] = []
        while self.at("op", "[") and self.peek(1).text != "]":
            self.next()
            dims.append(self.parse_expr())
            self.expect("op", "]")
        if not dims:
            raise self.error("expected '(' args ')' or '[size]' after 'new T'")
        fill = None
        if self.accept("kw", "of"):
            fill = self.parse_expr()
        return ast.NewArray(element, dims, fill, space, line=tok.line)


def parse(source: str) -> ast.Program:
    """Parse Ensemble *source* into an AST."""
    return Parser(source).parse_program()
