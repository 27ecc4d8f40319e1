"""Token table of the kernel-C language (an OpenCL-C subset).

:mod:`repro.lexing` compiles the table below into the kernel-C scanner.
Numbers follow C: ``.5``, ``1.`` and ``2e3`` are floats, an exponent
needs a digit, and an ``f`` suffix makes a float and is dropped from
the token text.

Preprocessor-style lines (``#pragma acc ...``) are not tokens:
:func:`scan` returns them as directives with their line numbers, so the
OpenACC front end can associate pragmas with the statement that
follows, while plain kernel-C consumers simply ignore them.
"""

from __future__ import annotations

from ..lexing import Directive, Rule, Scanner, Token

KEYWORDS = frozenset(
    {
        "int",
        "float",
        "bool",
        "void",
        "if",
        "else",
        "for",
        "while",
        "break",
        "continue",
        "return",
        "true",
        "false",
        "__kernel",
        "__global",
        "__local",
        "__constant",
        "__private",
        "barrier",
    }
)

# Longest first so the scanner is greedy.
OPERATORS = (
    "<<=",
    ">>=",
    "==",
    "!=",
    "<=",
    ">=",
    "&&",
    "||",
    "<<",
    ">>",
    "+=",
    "-=",
    "*=",
    "/=",
    "%=",
    "++",
    "--",
    "+",
    "-",
    "*",
    "/",
    "%",
    "<",
    ">",
    "=",
    "!",
    "~",
    "&",
    "|",
    "^",
    "?",
    ":",
    ";",
    ",",
    "(",
    ")",
    "[",
    "]",
    "{",
    "}",
)

RULES = (
    Rule("directive", r"#[^\n]*", text=str.strip),
    # A fraction, an exponent or an f suffix makes a float.
    Rule(
        "float",
        r"(?:[0-9]+\.[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?[fF]?"
        r"|[0-9]+(?:[eE][+-]?[0-9]+[fF]?|[fF])",
        text=lambda number: number.rstrip("fF"),
    ),
    Rule("int", r"[0-9]+"),
)

_SCANNER = Scanner(RULES, KEYWORDS, OPERATORS)


def scan(source: str) -> tuple[list[Token], list[Directive]]:
    """Tokenise *source*; returns its tokens and its directives."""
    return _SCANNER.scan(source)


def tokenize(source: str) -> list[Token]:
    """Tokenise *source*, discarding directives."""
    return _SCANNER.scan(source)[0]
