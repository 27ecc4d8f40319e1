"""Ensemble lexer and parser edge cases."""

import pytest

from repro.ensemble import ast, parse
from repro.ensemble.lexer import tokenize
from repro.errors import LexError, ParseError


class TestLexer:
    def test_range_vs_real(self):
        # `0 .. 9` must not lex 0. as a real.
        toks = [(t.kind, t.text) for t in tokenize("0 .. 9")]
        assert toks[:3] == [("int", "0"), ("op", ".."), ("int", "9")]

    def test_real_literal_forms(self):
        toks = [(t.kind, t.text) for t in tokenize("1.5 2.0e3")]
        assert toks[0] == ("real", "1.5")
        assert toks[1] == ("real", "2.0e3")

    def test_exponent_needs_a_digit(self):
        # An exponent with no digit used to reach float() as "1.5e".
        toks = [(t.kind, t.text) for t in tokenize("1.5e 2.0E+")]
        assert toks[:5] == [("real", "1.5"), ("id", "e"), ("real", "2.0"),
                            ("id", "E"), ("op", "+")]

    @pytest.mark.parametrize("source", ["x = ²;", "a² = 1;", "①", "٣"])
    def test_identifiers_and_digits_are_ascii(self, source):
        with pytest.raises(LexError, match="unexpected character"):
            tokenize(source)

    def test_assignment_operators_distinct(self):
        toks = [t.text for t in tokenize("a := b = c == d")]
        assert toks[1] == ":="
        assert toks[3] == "="
        assert toks[5] == "=="

    def test_string_escapes(self):
        toks = tokenize('"a\\nb\\t\\"q\\""')
        assert toks[0].value if hasattr(toks[0], "value") else True
        assert toks[0].text == 'a\nb\t"q"'

    def test_unterminated_string(self):
        with pytest.raises(LexError, match="unterminated"):
            tokenize('"oops')

    def test_newline_in_string_rejected(self):
        with pytest.raises(LexError):
            tokenize('"a\nb"')

    def test_comments(self):
        toks = [t.text for t in tokenize("a // x\n/* y\nz */ b")]
        assert toks[:2] == ["a", "b"]

    def test_keywords_are_not_identifiers(self):
        toks = tokenize("send sending")
        assert toks[0].kind == "kw"
        assert toks[1].kind == "id"


MINIMAL_STAGE = """
stage home {{
  actor A presents I {{
    constructor() {{}}
    behaviour {{ {body} }}
  }}
  boot {{ a = new A(); }}
}}
"""


def parse_with_body(body: str) -> ast.Program:
    return parse("type I is interface(out integer x)\n"
                 + MINIMAL_STAGE.format(body=body))


class TestParser:
    def test_program_requires_stage(self):
        with pytest.raises(ParseError, match="stage"):
            parse("type I is interface(out integer x)")

    def test_stage_requires_boot(self):
        with pytest.raises(ParseError, match="boot"):
            parse("""
stage home {
  actor A presents I {
    constructor() {}
    behaviour { stop; }
  }
}
""")

    def test_two_stages_rejected(self):
        with pytest.raises(ParseError, match="one stage"):
            parse("""
stage a { boot { } }
stage b { boot { } }
""")

    def test_opencl_settings_parsed(self):
        program = parse("""
type s_t is opencl struct (
    integer [] worksize;
    integer [] groupsize;
    in integer input;
    out integer output
)
type I is interface(in s_t requests)
stage home {
  opencl <device_index=1, device_type=CPU, platform_index=0>
  actor K presents I {
    constructor() {}
    behaviour {
      receive req from requests;
      receive d from req.input;
      send d on req.output;
    }
  }
  boot { k = new K(); }
}
""")
        actor = program.stage.actors[0]
        assert actor.is_opencl
        assert actor.opencl_settings == {
            "device_index": "1",
            "device_type": "CPU",
            "platform_index": "0",
        }

    def test_precedence(self):
        program = parse_with_body("x = 1 + 2 * 3 < 10 and true;")
        bind = program.stage.actors[0].behaviour[0]
        assert isinstance(bind, ast.Bind)
        top = bind.value
        assert isinstance(top, ast.BinOpE) and top.op == "and"
        cmp_ = top.left
        assert isinstance(cmp_, ast.BinOpE) and cmp_.op == "<"

    def test_symbolic_logic_operators(self):
        program = parse_with_body("x = true && false || !true;")
        top = program.stage.actors[0].behaviour[0].value
        assert top.op == "or"
        assert top.left.op == "and"
        assert isinstance(top.right, ast.UnOpE)

    def test_field_and_index_chains(self):
        program = parse_with_body("v = a.b[1][2].c;")
        value = program.stage.actors[0].behaviour[0].value
        assert isinstance(value, ast.FieldAccess)
        assert value.field == "c"
        assert isinstance(value.obj, ast.IndexAccess)

    def test_new_array_with_dims_and_fill(self):
        program = parse_with_body("v = new real[2][3] of 1.5;")
        value = program.stage.actors[0].behaviour[0].value
        assert isinstance(value, ast.NewArray)
        assert len(value.dims) == 2
        assert isinstance(value.fill, ast.RealLit)

    def test_new_local_array(self):
        program = parse_with_body("v = new local real[8] of 0.0;")
        value = program.stage.actors[0].behaviour[0].value
        assert value.space == "local"

    def test_new_channel_forms(self):
        program = parse_with_body(
            "i = new in real[][]; o = new out mov integer;"
        )
        stmts = program.stage.actors[0].behaviour
        assert isinstance(stmts[0].value, ast.NewChannel)
        assert stmts[0].value.direction == "in"
        assert isinstance(stmts[0].value.element, ast.ArrayTypeExpr)
        assert stmts[1].value.movable

    def test_buffered_channel_declaration(self):
        program = parse(
            "type I is interface(in integer jobs[16])\n"
            + MINIMAL_STAGE.format(body="stop;")
        )
        chan = program.interfaces[0].channels[0]
        assert chan.type.buffer == 16

    def test_buffer_on_out_channel_rejected(self):
        with pytest.raises(ParseError, match="receiving"):
            parse(
                "type I is interface(out integer jobs[16])\n"
                + MINIMAL_STAGE.format(body="stop;")
            )

    def test_else_if_chain(self):
        program = parse_with_body(
            "if true then { stop; } else if false then { stop; } "
            "else { stop; }"
        )
        if_stmt = program.stage.actors[0].behaviour[0]
        assert isinstance(if_stmt.orelse[0], ast.If)

    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse_with_body("x = 1 y = 2;")

    def test_error_positions_reported(self):
        with pytest.raises(ParseError) as info:
            parse(
                "type I is interface(out integer x)\n"
                "stage home {\n  actor ; \n}"
            )
        assert info.value.line == 3

    def test_struct_fields_semicolon_separated(self):
        program = parse(
            "type p_t is struct (real x; real y; integer tag)\n"
            "type I is interface(out integer x)\n"
            + MINIMAL_STAGE.format(body="stop;")
        )
        assert [f.name for f in program.structs[0].fields] == [
            "x", "y", "tag",
        ]
