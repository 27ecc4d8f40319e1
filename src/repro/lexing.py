"""One scanner and one token cursor for the repo's two source languages.

Kernel-C (:mod:`repro.kernelc.lexer`) and Ensemble
(:mod:`repro.ensemble.lexer`) each describe their numbers, strings and
directives as an ordered table of :class:`Rule` entries.  A
:class:`Scanner` compiles such a table, together with the layout,
keyword, identifier and operator rules every language shares, into one
regular expression, once per language.  Both recursive-descent parsers
walk the resulting token list through :class:`TokenCursor`.

Identifiers and digits are ASCII: ``[A-Za-z_][A-Za-z0-9_]*`` and
``[0-9]``.  Any other character is a :class:`LexError`, so one such as
``²`` never reaches ``int()`` or a generated Python identifier.
"""

from __future__ import annotations

import re
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .errors import LexError, ParseError


class Token(NamedTuple):
    """One token with the 1-based line and column it starts at.

    *kind* is ``id``, ``kw``, ``op``, ``eof`` or a literal kind of the
    language (``int``, ``float``, ``real``, ``string``)."""

    kind: str
    text: str
    line: int
    column: int


class Directive(NamedTuple):
    """A ``#...`` line with the source line it occupies."""

    text: str
    line: int


class Rule(NamedTuple):
    """One entry of a language's ordered token table.

    *kind* names the token the pattern makes; ``None`` drops the match
    and ``"directive"`` files it as a :class:`Directive`.  *text* maps
    the matched text to the token's text.  A rule with an *error*
    raises :class:`LexError` where it matches, with the message
    formatted with the matched text."""

    kind: Optional[str]
    pattern: str
    text: Callable[[str], str] = str
    error: str = ""


class Scanner:
    """A language's token table compiled to one regular expression.

    The table is blanks and C comments, then the language's *rules* in
    order, then its *keywords*, identifiers and *operators* (tried in
    the given order, so list longer operators first), then any other
    character as an error.  At each position the first rule that
    matches wins."""

    def __init__(
        self,
        rules: Sequence[Rule],
        keywords: Iterable[str],
        operators: Sequence[str],
    ) -> None:
        words = "|".join(map(re.escape, sorted(keywords)))
        table = (
            Rule(None, r"[ \t\r\n]+"),
            Rule(None, r"//[^\n]*"),
            Rule(None, r"/\*[\s\S]*?\*/"),
            Rule(None, r"/\*", error="unterminated block comment"),
            *rules,
            Rule("kw", rf"(?:{words})(?![A-Za-z0-9_])"),
            Rule("id", r"[A-Za-z_][A-Za-z0-9_]*"),
            Rule("op", "|".join(map(re.escape, operators))),
            Rule(None, r"[\s\S]", error="unexpected character {!r}"),
        )
        self._rules = {f"r{i}": rule for i, rule in enumerate(table)}
        self._match = re.compile(
            "|".join(
                f"(?P<r{i}>{rule.pattern})" for i, rule in enumerate(table)
            )
        ).match

    def scan(self, source: str) -> tuple[list[Token], list[Directive]]:
        """Tokens of *source*, ending in one ``eof`` token, and its
        directives."""
        tokens: list[Token] = []
        directives: list[Directive] = []
        rules = self._rules
        match = self._match
        pos = 0
        line = 1
        line_start = 0
        while pos < len(source):
            m = match(source, pos)
            kind, _, to_text, error = rules[m.lastgroup]
            text = m.group()
            if error:
                raise LexError(error.format(text), line, pos - line_start + 1)
            if kind == "directive":
                directives.append(Directive(to_text(text), line))
            elif kind is not None:
                tokens.append(
                    Token(kind, to_text(text), line, pos - line_start + 1)
                )
            if "\n" in text:
                line += text.count("\n")
                line_start = pos + text.rindex("\n") + 1
            pos = m.end()
        tokens.append(Token("eof", "", line, 1))
        return tokens, directives


class TokenCursor:
    """A parser's position in a token list that ends in ``eof``.

    Reading past the end keeps returning the ``eof`` token."""

    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.pos = 0

    def peek(self, offset: int = 0) -> Token:
        """The token *offset* places ahead, without consuming it."""
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def next(self) -> Token:
        """Consume and return the current token."""
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, kind: str, text: Optional[str] = None) -> bool:
        """Whether the current token has *kind* (and *text*, if given)."""
        tok = self.peek()
        return tok.kind == kind and (text is None or tok.text == text)

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        """Consume the current token if it matches, else return None."""
        if self.at(kind, text):
            return self.next()
        return None

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        """Consume the current token, which must match."""
        tok = self.peek()
        if not self.at(kind, text):
            want = text if text is not None else kind
            raise ParseError(
                f"expected {want!r}, found {tok.text or tok.kind!r}",
                tok.line,
                tok.column,
            )
        return self.next()

    def error(self, message: str) -> ParseError:
        """A :class:`ParseError` at the current token."""
        tok = self.peek()
        return ParseError(message, tok.line, tok.column)
