"""Kernel-C tokeniser behaviour."""

import pytest

from repro.errors import LexError
from repro.kernelc.lexer import scan, tokenize


def kinds(source):
    return [(t.kind, t.text) for t in tokenize(source) if t.kind != "eof"]


class TestTokens:
    def test_keywords_vs_identifiers(self):
        toks = kinds("int foo; float bar2; __kernel __global")
        assert ("kw", "int") in toks
        assert ("id", "foo") in toks
        assert ("id", "bar2") in toks
        assert ("kw", "__kernel") in toks
        assert ("kw", "__global") in toks

    def test_numbers(self):
        toks = kinds("1 42 3.5 2.0e3 1e-2 7f 0.5f")
        assert ("int", "1") in toks
        assert ("int", "42") in toks
        assert ("float", "3.5") in toks
        assert ("float", "2.0e3") in toks
        assert ("float", "1e-2") in toks
        assert ("float", "7") in toks  # 7f: float with suffix stripped
        assert ("float", "0.5") in toks

    def test_greedy_operators(self):
        toks = [t for k, t in kinds("a<<=b >= == != && || ++ --")]
        assert "<<=" in toks
        assert ">=" in toks
        assert "==" in toks
        assert "&&" in toks
        assert "++" in toks

    def test_line_and_column_positions(self):
        toks = tokenize("int a;\n  float b;")
        b_tok = [t for t in toks if t.text == "b"][0]
        assert b_tok.line == 2
        assert b_tok.column == 9

    def test_unexpected_character(self):
        with pytest.raises(LexError):
            tokenize("int a = `1`;")

    @pytest.mark.parametrize(
        "source", ["o[0] = ²;", "int a² = 1;", "①", "٣"]
    )
    def test_identifiers_and_digits_are_ascii(self, source):
        # str.isdigit admits these, and int() or a generated Python name
        # would then fail with an untyped error.
        with pytest.raises(LexError, match="unexpected character"):
            tokenize(source)

    def test_exponent_needs_a_digit(self):
        assert kinds("1e 2e+ 3.5e-1") == [
            ("int", "1"), ("id", "e"), ("int", "2"), ("id", "e"),
            ("op", "+"), ("float", "3.5e-1"),
        ]


class TestComments:
    def test_line_comments_skipped(self):
        assert kinds("int a; // trailing\n// whole line\nint b;") == [
            ("kw", "int"), ("id", "a"), ("op", ";"),
            ("kw", "int"), ("id", "b"), ("op", ";"),
        ]

    def test_block_comments_skipped(self):
        toks = kinds("int /* inline */ a; /* multi\nline */ int b;")
        assert ("id", "a") in toks
        assert ("id", "b") in toks

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError, match="unterminated"):
            tokenize("int a; /* oops")

    def test_line_numbers_after_block_comment(self):
        toks = tokenize("/* one\ntwo\nthree */ int a;")
        assert toks[0].line == 3


class TestDirectives:
    def test_pragmas_collected_not_tokenised(self):
        tokens, directives = scan(
            "#pragma acc parallel loop\nfor_marker here;\n#pragma acc data"
        )
        assert len(directives) == 2
        assert directives[0].text == "#pragma acc parallel loop"
        assert directives[0].line == 1
        assert directives[1].line == 3
        texts = [t.text for t in tokens]
        assert "#pragma" not in " ".join(texts)

    def test_pragma_between_statements(self):
        tokens, directives = scan("int a;\n#pragma omp parallel for\nint b;")
        assert directives[0].line == 2
        assert [t.text for t in tokens[:3]] == ["int", "a", ";"]
