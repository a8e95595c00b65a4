"""The scenario front end as it was before the columnar lexer, kept verbatim.

``_tokenize`` built one ``_Token`` per token, tracking each token's line and
column as it went, and converted every number as it lexed it; ``_Parser``
read those tokens. They are the oracle of the front end that replaced them:
the lexer and parser of ``svq.scenario`` must build equal items at equal
positions, and reject the same texts with the same error, message and
expected tokens (``tests/test_scenario_fuzz.py``, ``tests/test_syntax_table.py``).
The grammar tables, AST classes and formula nodes are shared with
``svq.scenario``; ``_PIECES`` binds the table's field pieces to this
module's parse methods.
"""

from __future__ import annotations

import math
import re
from typing import NamedTuple

from svq.errors import ScenarioSyntaxError
from svq.formulas import And, Atom, Formula, Implies, Not, Or
from svq.scenario import _KEYWORDS, MAX_FORMULA_NESTING, SYNTAX, Scenario, ScenarioItem


class _Token(NamedTuple):
    kind: str
    text: str
    value: object
    line: int
    col: int


#: One alternative per token class, tried in order at the current position.
#: In a str pattern \d is str.isdecimal and \w is isalnum() or "_", the
#: lexical rules the module docstring states.
_TOKEN_PATTERN = re.compile(
    r"(?P<skip>(?:[ \t\r\n]|#[^\n]*)+)"
    r"|(?P<punct>check-past(?![\w-])|->|[\[\](),=/+-])"
    r"|(?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)(?P<imag>i(?!\w))?"
    r"|(?P<word>\w+)"
)


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    match = _TOKEN_PATTERN.match
    pos, line, line_start, n = 0, 1, 0, len(text)
    while pos < n:
        m = match(text, pos)
        col = pos - line_start + 1
        # A word may go on with digits and the like, but must start with a
        # letter or "_": "²" and "½" are \w but start nothing.
        if m is None or (m.lastgroup == "word" and not (text[pos].isalpha() or text[pos] == "_")):
            raise ScenarioSyntaxError(f"unexpected character {text[pos]!r}", line, col)
        kind, lexeme, start, pos = m.lastgroup, m.group(), pos, m.end()
        if kind == "skip":
            newlines = lexeme.count("\n")
            if newlines:
                line += newlines
                line_start = text.rindex("\n", start, pos) + 1
        elif kind == "word":
            tokens.append(_Token("ident", lexeme, lexeme, line, col))
        elif kind == "punct":
            tokens.append(_Token(lexeme, lexeme, None, line, col))
        elif kind == "imag":
            tokens.append(_Token("imag", lexeme, float(lexeme[:-1]), line, col))
        elif lexeme.isdecimal():
            try:
                value = int(lexeme)
            except ValueError:  # beyond the interpreter's int-string digit limit
                raise ScenarioSyntaxError("integer literal too long", line, col) from None
            tokens.append(_Token("int", lexeme, value, line, col))
        else:
            tokens.append(_Token("float", lexeme, float(lexeme), line, col))
    tokens.append(_Token("eof", "", None, line, n - line_start + 1))
    return tokens


# ---------------------------------------------------------------------------
# Parser


def _unexpected(tok: _Token, *expected: str) -> ScenarioSyntaxError:
    what = "end of input" if tok.kind == "eof" else repr(tok.text)
    return ScenarioSyntaxError(f"unexpected {what}", tok.line, tok.col, expected=expected)


def _real(tok: _Token) -> float:
    """A number token's value as a float; an integer too large for one is inf."""
    return float(tok.text) if tok.kind == "int" else tok.value


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def accept(self, kind: str) -> _Token | None:
        if self.peek().kind == kind:
            return self.advance()
        return None

    def expect(self, kind: str, expected: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise _unexpected(tok, expected)
        return self.advance()

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "ident" and tok.text == word

    def expect_keyword(self, word: str) -> _Token:
        if not self.at_keyword(word):
            raise _unexpected(self.peek(), f"'{word}'")
        return self.advance()

    def parse_name(self) -> str:
        tok = self.expect("ident", "identifier")
        if tok.text in _KEYWORDS:
            raise ScenarioSyntaxError(
                f"{tok.text!r} is a reserved word", tok.line, tok.col, expected=("identifier",)
            )
        return tok.text

    # numbers and values --------------------------------------------------

    def _parse_signed_part(self) -> tuple[float, bool]:
        negate = False
        if self.accept("-"):
            negate = True
        else:
            self.accept("+")
        tok = self.peek()
        if tok.kind == "imag":
            self.advance()
            return (-tok.value if negate else tok.value, True)
        if tok.kind in ("int", "float"):
            self.advance()
            value = _real(tok)
            if tok.kind == "int" and self.peek().kind == "/":
                self.advance()
                nxt = self.peek()
                if nxt.kind == "int":
                    self.advance()
                    if nxt.value == 0:
                        raise ScenarioSyntaxError("zero denominator", nxt.line, nxt.col)
                    value /= _real(nxt)
                elif nxt.kind == "ident" and nxt.text == "sqrt":
                    self.advance()
                    self.expect("(", "'('")
                    arg = self.expect("int", "integer")
                    self.expect(")", "')'")
                    if arg.value == 0:
                        raise ScenarioSyntaxError("zero under sqrt", arg.line, arg.col)
                    value /= math.sqrt(_real(arg))
                else:
                    raise _unexpected(nxt, "integer denominator", "'sqrt('")
                if math.isnan(value):  # both integers too large for a float
                    raise ScenarioSyntaxError("fraction too large to evaluate", tok.line, tok.col)
            return (-value if negate else value, False)
        raise _unexpected(tok, "number")

    def parse_number(self) -> complex:
        value, is_imag = self._parse_signed_part()
        if is_imag:
            return complex(0.0, value)
        if self.peek().kind in ("+", "-") and self.peek(1).kind == "imag":
            sign = self.advance()
            tail = self.advance()
            imag = float(tail.value)
            return complex(value, imag if sign.kind == "+" else -imag)
        return complex(value, 0.0)

    def _parse_list(self, parse_element, open_: str, close: str) -> tuple:
        self.expect(open_, f"'{open_}'")
        elements = [parse_element()]
        while self.accept(","):
            elements.append(parse_element())
        self.expect(close, f"'{close}' or ','")
        return tuple(elements)

    def parse_vector(self) -> tuple[complex, ...]:
        return self._parse_list(self.parse_number, "[", "]")

    def parse_matrix(self) -> tuple[tuple[complex, ...], ...]:
        return self._parse_list(self.parse_vector, "[", "]")

    def parse_span(self) -> tuple[tuple[complex, ...], ...]:
        self.expect_keyword("span")
        return self._parse_list(self.parse_vector, "(", ")")

    def parse_tick(self) -> int:
        return int(self.expect("int", "integer tick").value)

    def parse_p(self) -> float | None:
        if not self.at_keyword("p"):
            return None
        self.advance()
        tok = self.peek()
        if tok.kind not in ("int", "float"):
            raise _unexpected(tok, "probability")
        self.advance()
        return _real(tok)

    # formulas ------------------------------------------------------------

    def _nest(self) -> None:
        self.depth += 1
        if self.depth > MAX_FORMULA_NESTING:
            tok = self.peek()
            raise ScenarioSyntaxError(
                f"formula nested deeper than {MAX_FORMULA_NESTING} levels", tok.line, tok.col
            )

    def parse_boolexpr(self) -> Formula:
        self._nest()
        node = self._parse_or()
        if self.accept("->"):
            node = Implies(node, self.parse_boolexpr())
        self.depth -= 1
        return node

    def _parse_or(self) -> Formula:
        node = self._parse_and()
        while self.at_keyword("or"):
            self.advance()
            node = Or(node, self._parse_and())
        return node

    def _parse_and(self) -> Formula:
        node = self._parse_unary()
        while self.at_keyword("and"):
            self.advance()
            node = And(node, self._parse_unary())
        return node

    def _parse_unary(self) -> Formula:
        if self.at_keyword("not"):
            self._nest()
            self.advance()
            node = Not(self._parse_unary())
            self.depth -= 1
            return node
        if self.accept("("):
            node = self.parse_boolexpr()
            self.expect(")", "')'")
            return node
        return Atom(self.parse_name())

    # items ---------------------------------------------------------------

    def parse_item(self) -> ScenarioItem:
        kw = self.peek()
        # Only an ident or the check-past token can carry a keyword's text.
        if kw.text not in SYNTAX:
            raise _unexpected(kw, "declaration", "step", "query")
        self.advance()
        cls, pieces = SYNTAX[kw.text]
        values = []
        for piece in pieces:
            if piece in _PIECES:
                values.append(_PIECES[piece][0](self))
            elif self.peek().text == piece:  # a literal: only its own token has its text
                self.advance()
            else:
                raise _unexpected(self.peek(), f"'{piece}'")
        return cls(*values, line=kw.line, col=kw.col)


#: The parse half of svq.scenario._PIECES, over this module's _Parser.
_PIECES = {
    "name": (_Parser.parse_name,),
    "state": (_Parser.parse_name,),
    "proposition": (_Parser.parse_name,),
    "formula": (_Parser.parse_name,),
    "vector": (_Parser.parse_vector,),
    "matrix": (_Parser.parse_matrix,),
    "span": (_Parser.parse_span,),
    "boolexpr": (_Parser.parse_boolexpr,),
    "tick": (_Parser.parse_tick,),
    "p": (_Parser.parse_p,),
}


def parse_scenario(text: str) -> Scenario:
    parser = _Parser(_tokenize(text))
    items: list[ScenarioItem] = []
    while parser.peek().kind != "eof":
        items.append(parser.parse_item())
    return Scenario(tuple(items))
