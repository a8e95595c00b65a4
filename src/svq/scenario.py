"""Scenario DSL: parsing, compiling and pretty-printing.

A scenario is a flat sequence of declarations, steps and queries, executed
in source order by the runner. The concrete grammar:

    scenario  := (decl | step | query)*
    decl      := "state" NAME "=" vector
               | "prop" NAME "=" "span" "(" vector ("," vector)* ")"
               | "formula" NAME "=" boolexpr
    step      := "record" "at" INT
               | "clone" NAME "->" NAME
               | "unclone" NAME "blank" NAME
               | "blackhole" NAME
               | "evolve" NAME "by" matrix
               | "reconstruct" ["p" NUMBER]
    query     := "eval" NAME "in" NAME
               | "super" NAME
               | "check-past"
               | "feasible" NAME NAME
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
from dataclasses import dataclass, field
from typing import NamedTuple, Union

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

_KEYWORDS = frozenset(
    "state prop formula span record at clone unclone blank blackhole evolve by "
    "reconstruct eval in super feasible not and or sqrt".split()
)


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class StateDecl:
    name: str
    components: tuple[complex, ...]
    line: int = field(compare=False, default=0)
    col: int = field(compare=False, default=0)


@dataclass(frozen=True)
class PropDecl:
    name: str
    vectors: tuple[tuple[complex, ...], ...]
    line: int = field(compare=False, default=0)
    col: int = field(compare=False, default=0)


@dataclass(frozen=True)
class FormulaDecl:
    name: str
    body: Formula
    line: int = field(compare=False, default=0)
    col: int = field(compare=False, default=0)


@dataclass(frozen=True)
class RecordStep:
    at: int
    line: int = field(compare=False, default=0)
    col: int = field(compare=False, default=0)


@dataclass(frozen=True)
class CloneStep:
    source: str
    target: str
    line: int = field(compare=False, default=0)
    col: int = field(compare=False, default=0)


@dataclass(frozen=True)
class UncloneStep:
    cloned: str
    blank: str
    line: int = field(compare=False, default=0)
    col: int = field(compare=False, default=0)


@dataclass(frozen=True)
class BlackholeStep:
    state: str
    line: int = field(compare=False, default=0)
    col: int = field(compare=False, default=0)


@dataclass(frozen=True)
class EvolveStep:
    state: str
    matrix: tuple[tuple[complex, ...], ...]
    line: int = field(compare=False, default=0)
    col: int = field(compare=False, default=0)


@dataclass(frozen=True)
class ReconstructStep:
    p_one: float | None = None
    line: int = field(compare=False, default=0)
    col: int = field(compare=False, default=0)


@dataclass(frozen=True)
class EvalQuery:
    state: str
    prop: str
    line: int = field(compare=False, default=0)
    col: int = field(compare=False, default=0)


@dataclass(frozen=True)
class SuperQuery:
    formula: str
    line: int = field(compare=False, default=0)
    col: int = field(compare=False, default=0)


@dataclass(frozen=True)
class CheckPastQuery:
    line: int = field(compare=False, default=0)
    col: int = field(compare=False, default=0)


@dataclass(frozen=True)
class FeasibleQuery:
    first: str
    second: str
    line: int = field(compare=False, default=0)
    col: int = field(compare=False, default=0)


Declaration = Union[StateDecl, PropDecl, FormulaDecl]
Step = Union[RecordStep, CloneStep, UncloneStep, BlackholeStep, EvolveStep, ReconstructStep]
Query = Union[EvalQuery, SuperQuery, CheckPastQuery, FeasibleQuery]
ScenarioItem = Union[Declaration, Step, Query]


@dataclass(frozen=True)
class Scenario:
    items: tuple[ScenarioItem, ...]


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

    # numbers -------------------------------------------------------------

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

    def parse_vector(self) -> tuple[complex, ...]:
        self.expect("[", "'['")
        numbers = [self.parse_number()]
        while self.accept(","):
            numbers.append(self.parse_number())
        self.expect("]", "']' or ','")
        return tuple(numbers)

    def parse_matrix(self) -> tuple[tuple[complex, ...], ...]:
        self.expect("[", "'['")
        rows = [self.parse_vector()]
        while self.accept(","):
            rows.append(self.parse_vector())
        self.expect("]", "']' or ','")
        return tuple(rows)

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
        tok = self.peek()
        # Only an ident or the check-past token can carry a keyword's text.
        handler = self._ITEM_PARSERS.get(tok.text)
        if handler is None:
            raise _unexpected(tok, "declaration", "step", "query")
        return handler(self)

    def _parse_state(self) -> StateDecl:
        kw = self.advance()
        name = self.parse_name()
        self.expect("=", "'='")
        return StateDecl(name, self.parse_vector(), line=kw.line, col=kw.col)

    def _parse_prop(self) -> PropDecl:
        kw = self.advance()
        name = self.parse_name()
        self.expect("=", "'='")
        self.expect_keyword("span")
        self.expect("(", "'('")
        vectors = [self.parse_vector()]
        while self.accept(","):
            vectors.append(self.parse_vector())
        self.expect(")", "')' or ','")
        return PropDecl(name, tuple(vectors), line=kw.line, col=kw.col)

    def _parse_formula(self) -> FormulaDecl:
        kw = self.advance()
        name = self.parse_name()
        self.expect("=", "'='")
        return FormulaDecl(name, self.parse_boolexpr(), line=kw.line, col=kw.col)

    def _parse_record(self) -> RecordStep:
        kw = self.advance()
        self.expect_keyword("at")
        tick = self.expect("int", "integer tick")
        return RecordStep(int(tick.value), line=kw.line, col=kw.col)

    def _parse_clone(self) -> CloneStep:
        kw = self.advance()
        source = self.parse_name()
        self.expect("->", "'->'")
        target = self.parse_name()
        return CloneStep(source, target, line=kw.line, col=kw.col)

    def _parse_unclone(self) -> UncloneStep:
        kw = self.advance()
        cloned = self.parse_name()
        self.expect_keyword("blank")
        blank = self.parse_name()
        return UncloneStep(cloned, blank, line=kw.line, col=kw.col)

    def _parse_blackhole(self) -> BlackholeStep:
        kw = self.advance()
        return BlackholeStep(self.parse_name(), line=kw.line, col=kw.col)

    def _parse_evolve(self) -> EvolveStep:
        kw = self.advance()
        name = self.parse_name()
        self.expect_keyword("by")
        return EvolveStep(name, self.parse_matrix(), line=kw.line, col=kw.col)

    def _parse_reconstruct(self) -> ReconstructStep:
        kw = self.advance()
        p_one: float | None = None
        if self.at_keyword("p"):
            self.advance()
            tok = self.peek()
            if tok.kind not in ("int", "float"):
                raise _unexpected(tok, "probability")
            self.advance()
            p_one = _real(tok)
        return ReconstructStep(p_one, line=kw.line, col=kw.col)

    def _parse_eval(self) -> EvalQuery:
        kw = self.advance()
        state = self.parse_name()
        self.expect_keyword("in")
        prop = self.parse_name()
        return EvalQuery(state, prop, line=kw.line, col=kw.col)

    def _parse_super(self) -> SuperQuery:
        kw = self.advance()
        return SuperQuery(self.parse_name(), line=kw.line, col=kw.col)

    def _parse_feasible(self) -> FeasibleQuery:
        kw = self.advance()
        first = self.parse_name()
        second = self.parse_name()
        return FeasibleQuery(first, second, line=kw.line, col=kw.col)

    def _parse_check_past(self) -> CheckPastQuery:
        kw = self.advance()
        return CheckPastQuery(line=kw.line, col=kw.col)

    _ITEM_PARSERS = {
        "state": _parse_state,
        "prop": _parse_prop,
        "formula": _parse_formula,
        "record": _parse_record,
        "clone": _parse_clone,
        "unclone": _parse_unclone,
        "blackhole": _parse_blackhole,
        "evolve": _parse_evolve,
        "reconstruct": _parse_reconstruct,
        "eval": _parse_eval,
        "super": _parse_super,
        "feasible": _parse_feasible,
        "check-past": _parse_check_past,
    }


# ---------------------------------------------------------------------------
# Compiling


#: What each declaration binds its name to.
_DECLARES = {StateDecl: "state", PropDecl: "proposition", FormulaDecl: "formula"}

#: The names each step or query reads, in operand order: (field, what the
#: name must denote).
_USES = {
    CloneStep: (("source", "state"), ("target", "state")),
    UncloneStep: (("cloned", "state"), ("blank", "state")),
    BlackholeStep: (("state", "state"),),
    EvolveStep: (("state", "state"),),
    EvalQuery: (("state", "state"), ("prop", "proposition")),
    SuperQuery: (("formula", "formula"),),
    FeasibleQuery: (("first", "state"), ("second", "state")),
}


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
    if isinstance(item, StateDecl):
        return f"state {item.name} = {_fmt_vector(item.components)}"
    if isinstance(item, PropDecl):
        vectors = ", ".join(_fmt_vector(v) for v in item.vectors)
        return f"prop {item.name} = span({vectors})"
    if isinstance(item, FormulaDecl):
        return f"formula {item.name} = {format_formula(item.body)}"
    if isinstance(item, RecordStep):
        return f"record at {item.at}"
    if isinstance(item, CloneStep):
        return f"clone {item.source} -> {item.target}"
    if isinstance(item, UncloneStep):
        return f"unclone {item.cloned} blank {item.blank}"
    if isinstance(item, BlackholeStep):
        return f"blackhole {item.state}"
    if isinstance(item, EvolveStep):
        rows = ", ".join(_fmt_vector(r) for r in item.matrix)
        return f"evolve {item.state} by [{rows}]"
    if isinstance(item, ReconstructStep):
        if item.p_one is None:
            return "reconstruct"
        return f"reconstruct p {_fmt_real(item.p_one)}"
    if isinstance(item, EvalQuery):
        return f"eval {item.state} in {item.prop}"
    if isinstance(item, SuperQuery):
        return f"super {item.formula}"
    if isinstance(item, CheckPastQuery):
        return "check-past"
    if isinstance(item, FeasibleQuery):
        return f"feasible {item.first} {item.second}"
    raise TypeError(f"not a scenario item: {item!r}")


def format_scenario(scenario: Scenario) -> str:
    """Canonical text for a scenario; parse(format(s)) equals s."""
    return "\n".join(format_item(item) for item in scenario.items) + "\n"
