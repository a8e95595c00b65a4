"""Scenario DSL: parsing, compiling and pretty-printing.

A scenario is a flat sequence of declarations, steps and queries, executed
in source order by the runner. The table SYNTAX states each item's grammar,
its keyword and the pieces after it, and it alone: one loop parses every
item from it, one prints every item, and the compiler reads from it which
fields name a declared state, proposition or formula. The pieces:

    name      := NAME     (also state, proposition and formula)
    tick      := INT
    p         := ("p" NUMBER)?
    span      := "span" "(" vector ("," vector)* ")"
    vector    := "[" num ("," num)* "]"
    matrix    := "[" vector ("," vector)* "]"
    boolexpr  := or ("->" boolexpr)?          right associative
    or        := and ("or" and)*
    and       := unary ("and" unary)*
    unary     := "not" unary | "(" boolexpr ")" | NAME

A formula may nest "not", parentheses and "->" at most MAX_FORMULA_NESTING
levels deep; deeper nesting is a ScenarioSyntaxError.

Lexical rules: an identifier is a Unicode letter or "_", followed by
letters, digits or "_"; numbers use Unicode decimal digits; whitespace is
only space, tab, CR and LF; '#' starts a comment running to end of line.
Numbers are reals (decimals, integer fractions "a/b", or the "a/sqrt(b)"
sugar) optionally combined with an imaginary literal: "0.5+0.5i", "1i",
"1/sqrt(2)-0.5i". An integer too large for a float reads as infinity.

parse_scenario is syntax only. compile_scenario, one pass in source order,
checks names (declared above their use, unique, of the right kind), that
every dimension agrees and a reconstruct probability lies in [0, 1], and
builds every state, subspace and evolve operator at the run's tolerance.
All diagnostics of both carry a 1-based line and column.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields
from typing import NamedTuple

from .errors import (
    BadProbability,
    DimensionMismatch,
    DuplicateIdentifier,
    ScenarioSyntaxError,
    SvqError,
    UnknownIdentifier,
)
from .formulas import And, Atom, Formula, Implies, Not, Or, formula_atoms
# compile_scenario calls these through this module's globals, where tracers wrap them.
from .hilbert import DEFAULT_TOL, Operator, is_valid_tol, make_state
from .lattice import span_subspace

# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class ScenarioItem:
    """A declaration, step or query; line and col are its keyword's position."""

    line: int = field(default=0, compare=False, kw_only=True)
    col: int = field(default=0, compare=False, kw_only=True)


@dataclass(frozen=True)
class StateDecl(ScenarioItem):
    name: str
    components: tuple[complex, ...]


@dataclass(frozen=True)
class PropDecl(ScenarioItem):
    name: str
    vectors: tuple[tuple[complex, ...], ...]


@dataclass(frozen=True)
class FormulaDecl(ScenarioItem):
    name: str
    body: Formula


@dataclass(frozen=True)
class RecordStep(ScenarioItem):
    at: int


@dataclass(frozen=True)
class CloneStep(ScenarioItem):
    source: str
    target: str


@dataclass(frozen=True)
class UncloneStep(ScenarioItem):
    cloned: str
    blank: str


@dataclass(frozen=True)
class BlackholeStep(ScenarioItem):
    state: str


@dataclass(frozen=True)
class EvolveStep(ScenarioItem):
    state: str
    matrix: tuple[tuple[complex, ...], ...]


@dataclass(frozen=True)
class ReconstructStep(ScenarioItem):
    p_one: float | None = None


@dataclass(frozen=True)
class EvalQuery(ScenarioItem):
    state: str
    prop: str


@dataclass(frozen=True)
class SuperQuery(ScenarioItem):
    formula: str


@dataclass(frozen=True)
class CheckPastQuery(ScenarioItem):
    pass


@dataclass(frozen=True)
class FeasibleQuery(ScenarioItem):
    first: str
    second: str


@dataclass(frozen=True)
class Scenario:
    items: tuple[ScenarioItem, ...]


#: Every item's grammar: keyword -> (AST class, the pieces after the
#: keyword). A field piece (a key of _PIECES) fills the class's next field:
#: "name" is a declared name; "state", "proposition" and "formula" name one
#: declared above; "vector", "matrix", "span", "boolexpr" and "tick" are
#: values; "p" is an optional "p NUMBER". Any other piece is a literal.
SYNTAX = {
    "state": (StateDecl, ("name", "=", "vector")),
    "prop": (PropDecl, ("name", "=", "span")),
    "formula": (FormulaDecl, ("name", "=", "boolexpr")),
    "record": (RecordStep, ("at", "tick")),
    "clone": (CloneStep, ("state", "->", "state")),
    "unclone": (UncloneStep, ("state", "blank", "state")),
    "blackhole": (BlackholeStep, ("state",)),
    "evolve": (EvolveStep, ("state", "by", "matrix")),
    "reconstruct": (ReconstructStep, ("p",)),
    "eval": (EvalQuery, ("state", "in", "proposition")),
    "super": (SuperQuery, ("formula",)),
    "check-past": (CheckPastQuery, ()),
    "feasible": (FeasibleQuery, ("state", "state")),
}

#: Item class -> its keyword, the kind a report and a StepError name it by.
KIND = {cls: keyword for keyword, (cls, _) in SYNTAX.items()}


# ---------------------------------------------------------------------------
# Lexer


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


#: Deepest nesting of "not", parentheses and "->" a formula may have. The
#: parser recurses once per level, so the limit keeps it well inside
#: Python's recursion limit.
MAX_FORMULA_NESTING = 100


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


# ---------------------------------------------------------------------------
# Compiling


#: What each declaration binds its name to.
_DECLARES = {StateDecl: "state", PropDecl: "proposition", FormulaDecl: "formula"}


def parse_scenario(text: str) -> Scenario:
    """Parse scenario text into its AST; syntax only.

    Raises ScenarioSyntaxError, with position and expected tokens, on bad
    syntax. Names, dimensions and values are checked by compile_scenario.
    """
    parser = _Parser(_tokenize(text))
    items: list[ScenarioItem] = []
    while parser.peek().kind != "eof":
        items.append(parser.parse_item())
    return Scenario(tuple(items))


def _at(item: ScenarioItem) -> str:
    """The line:column prefix of an error in item."""
    return f"{item.line}:{item.col}:"


def compile_scenario(scenario: Scenario, tol: float = DEFAULT_TOL) -> tuple[object, ...]:
    """Resolve every name of a parsed scenario and build its values at tol.

    Returns one value per item: the StateVector of a state, the Subspace of
    a prop, (body, ((atom, Subspace), ...)) of a formula, the operands of a
    step or query in _USES order (an evolve's Operator last), else None.
    Raises SvqError unless tol is a finite number in (0, 1). Otherwise the
    first error in source order is raised with the item's line:column:
    UnknownIdentifier, DuplicateIdentifier, DimensionMismatch,
    BadProbability, an SvqError from make_state or span_subspace with its
    type, or a ValueError (a non-finite entry) as a plain SvqError.
    """
    if not is_valid_tol(tol):
        raise SvqError(f"tol must be a finite number in (0, 1), got {tol!r}")
    table: dict[str, tuple[str, object]] = {}  # name -> (what it denotes, its value)
    dim: int | None = None

    def resolve(name: str, what: str, item: ScenarioItem) -> object:
        denotes, value = table.get(name, (None, None))
        if denotes != what:
            raise UnknownIdentifier(f"{_at(item)} no {what} named {name!r}")
        return value

    values: list[object] = []
    for item in scenario.items:
        kind = type(item)
        if kind in _DECLARES and item.name in table:
            raise DuplicateIdentifier(f"{_at(item)} {item.name!r} is already declared")
        uses = _USES.get(kind)
        value = tuple([resolve(getattr(item, a), what, item) for a, what in uses]) if uses else None
        lengths: tuple[int, ...] = ()
        if kind is StateDecl:
            lengths = (len(item.components),)
        elif kind is PropDecl:
            lengths = tuple(map(len, item.vectors))
        elif kind is EvolveStep:
            lengths = (len(item.matrix), *map(len, item.matrix))
        elif kind is FormulaDecl:
            atoms = formula_atoms(item.body)
            value = (item.body, tuple([(atom, resolve(atom, "proposition", item)) for atom in atoms]))
        elif kind is ReconstructStep and item.p_one is not None and not 0.0 <= item.p_one <= 1.0:
            raise BadProbability(f"{_at(item)} p must lie in [0, 1], got {item.p_one!r}")
        for length in lengths:
            if dim is None:
                dim = length
            elif length != dim:
                raise DimensionMismatch(f"{_at(item)} dimension {length} conflicts with scenario dimension {dim}")
        try:
            if kind is StateDecl:
                value = make_state(item.components, tol)
            elif kind is PropDecl:
                value = span_subspace(item.vectors, dim, tol)
            elif kind is EvolveStep:
                value = (*value, Operator(item.matrix))
        except (SvqError, ValueError) as err:
            cls = type(err) if isinstance(err, SvqError) else SvqError
            raise cls(f"{_at(item)} {err}") from err
        if kind in _DECLARES:
            table[item.name] = (_DECLARES[kind], value)
        values.append(value)
    return tuple(values)


# ---------------------------------------------------------------------------
# Pretty-printer


def _fmt_real(x: float) -> str:
    if abs(x) < 1e15 and x == int(x):
        return str(int(x))
    return repr(x).replace("inf", "1e999")  # 1e999 reads back as inf


def _fmt_num(z: complex) -> str:
    if z.imag == 0:
        return _fmt_real(z.real)
    if z.real == 0:
        return _fmt_real(z.imag) + "i"
    sign = "+" if z.imag > 0 else "-"
    return f"{_fmt_real(z.real)}{sign}{_fmt_real(abs(z.imag))}i"


def _fmt_vector(v: tuple[complex, ...]) -> str:
    return "[" + ", ".join(_fmt_num(z) for z in v) + "]"


def format_formula(f: Formula) -> str:
    """Render a formula with minimal parentheses; reparsing restores the AST.

    Iterative, so a long and/or chain (a left-deep tree) renders at any
    length."""
    parts: list[str] = []
    todo: list = [(f, 0)]  # text to emit, or (node, least precedence it may have bare)
    while todo:
        item = todo.pop()
        if type(item) is str:
            parts.append(item)
            continue
        node, min_prec = item
        if isinstance(node, Atom):
            parts.append(node.name)
            continue
        if isinstance(node, Not):
            prec, pieces = 4, ["not ", (node.operand, 4)]
        elif isinstance(node, And):
            prec, pieces = 3, [(node.left, 3), " and ", (node.right, 4)]
        elif isinstance(node, Or):
            prec, pieces = 2, [(node.left, 2), " or ", (node.right, 3)]
        elif isinstance(node, Implies):
            prec, pieces = 1, [(node.left, 2), " -> ", (node.right, 1)]
        else:
            raise TypeError(f"not a formula node: {node!r}")
        if prec < min_prec:
            pieces = ["(", *pieces, ")"]
        todo += reversed(pieces)
    return "".join(parts)


def format_item(item: ScenarioItem) -> str:
    """An item's canonical text: its keyword, then each piece SYNTAX lists."""
    keyword = KIND.get(type(item))
    if keyword is None:
        raise TypeError(f"not a scenario item: {item!r}")
    words = [keyword]
    for piece, attr in _SHAPES[type(item)]:
        words.append(piece if attr is None else _PIECES[piece][1](getattr(item, attr)))
    return " ".join(filter(None, words))


def format_scenario(scenario: Scenario) -> str:
    """Canonical text for a scenario; parse(format(s)) equals s."""
    return "\n".join(format_item(item) for item in scenario.items) + "\n"


# ---------------------------------------------------------------------------
# Field pieces and the tables derived from SYNTAX


def _fmt_p(p_one: float | None) -> str:
    return "" if p_one is None else f"p {_fmt_real(p_one)}"


def _fmt_rows(rows: tuple[tuple[complex, ...], ...]) -> str:
    return ", ".join(map(_fmt_vector, rows))


#: Field piece -> (how the parser reads it, how format_item writes it; an
#: empty text is left out).
_PIECES = {
    "name": (_Parser.parse_name, str),
    "state": (_Parser.parse_name, str),
    "proposition": (_Parser.parse_name, str),
    "formula": (_Parser.parse_name, str),
    "vector": (_Parser.parse_vector, _fmt_vector),
    "matrix": (_Parser.parse_matrix, lambda rows: f"[{_fmt_rows(rows)}]"),
    "span": (_Parser.parse_span, lambda vectors: f"span({_fmt_rows(vectors)})"),
    "boolexpr": (_Parser.parse_boolexpr, format_formula),
    "tick": (_Parser.parse_tick, str),
    "p": (_Parser.parse_p, _fmt_p),
}


def _shape(cls: type, pieces: tuple[str, ...]) -> tuple[tuple[str, str | None], ...]:
    """Each piece with the field it fills, None for a literal."""
    attrs = iter([f.name for f in fields(cls) if not f.kw_only])
    return tuple((piece, next(attrs) if piece in _PIECES else None) for piece in pieces)


_SHAPES = {cls: _shape(cls, pieces) for cls, pieces in SYNTAX.values()}

#: The names each step or query reads, in operand order: (field, what the
#: name must denote).
_USES = {
    cls: tuple((attr, piece) for piece, attr in shape if piece in ("state", "proposition", "formula"))
    for cls, shape in _SHAPES.items()
}

#: Words no name may be: the keywords and word literals of SYNTAX, and the
#: words the pieces' own grammar uses.
_KEYWORDS = frozenset(SYNTAX).union(
    [piece for _, pieces in SYNTAX.values() for piece in pieces if piece.isalpha() and piece not in _PIECES],
    ["span", "not", "and", "or", "sqrt"],
)
