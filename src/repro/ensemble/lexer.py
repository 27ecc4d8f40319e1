"""Token table of the Ensemble language.

:mod:`repro.lexing` compiles the table below into the Ensemble scanner.
Comments are ``//`` to end of line and ``/* ... */`` blocks.  String
literals use double quotes with ``\\n``/``\\t``/``\\"``/``\\\\`` escapes
(any other escaped character stands for itself) and hold no unescaped
newline.  A number is a ``real`` only when a ``.`` and a digit follow
its integer part, so ``0 .. 9`` stays a range; an exponent, which needs
a digit, is read only after such a fraction.
"""

from __future__ import annotations

import re

from ..lexing import Rule, Scanner, Token

KEYWORDS = frozenset(
    {
        "type",
        "is",
        "struct",
        "interface",
        "opencl",
        "stage",
        "actor",
        "presents",
        "constructor",
        "behaviour",
        "boot",
        "function",
        "in",
        "out",
        "mov",
        "send",
        "on",
        "receive",
        "from",
        "connect",
        "to",
        "if",
        "then",
        "else",
        "for",
        "do",
        "while",
        "stop",
        "return",
        "new",
        "of",
        "local",
        "global",
        "private",
        "constant",
        "and",
        "or",
        "not",
        "true",
        "false",
        "integer",
        "real",
        "boolean",
        "string",
    }
)

OPERATORS = (
    ":=",
    ":",
    "..",
    "==",
    "!=",
    "<=",
    ">=",
    "&&",
    "||",
    "=",
    "<",
    ">",
    "+",
    "-",
    "*",
    "/",
    "%",
    "!",
    ";",
    ",",
    ".",
    "(",
    ")",
    "[",
    "]",
    "{",
    "}",
)

_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}
_ESCAPE = re.compile(r"\\([\s\S])")
_STRING_BODY = r'"(?:[^"\\\n]|\\[\s\S])*'


def _unquote(literal: str) -> str:
    """The text of a string literal, with its escapes resolved."""
    return _ESCAPE.sub(
        lambda m: _ESCAPES.get(m.group(1), m.group(1)), literal[1:-1]
    )


RULES = (
    # A string literal is closed, cut by a newline or left open at the end.
    Rule("string", _STRING_BODY + '"', text=_unquote),
    Rule(None, _STRING_BODY + r"\n", error="newline in string literal"),
    Rule(None, '"', error="unterminated string literal"),
    Rule("real", r"[0-9]+\.[0-9]+(?:[eE][+-]?[0-9]+)?"),
    Rule("int", r"[0-9]+"),
)

_SCANNER = Scanner(RULES, KEYWORDS, OPERATORS)


def tokenize(source: str) -> list[Token]:
    """Tokenise Ensemble *source*."""
    return _SCANNER.scan(source)[0]
