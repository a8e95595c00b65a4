"""Scenario DSL: parsing, compiling and pretty-printing.

A scenario is a flat sequence of declarations, steps and queries, executed
in source order by the runner. The table SYNTAX states each item's grammar,
its keyword and the pieces after it, and it alone: one loop parses every
item from it, one prints every item, and the compiler reads from it which
fields name a declared state, proposition or formula. The pieces:

    name      := NAME     (also state, proposition and formula)
    tick      := INT
    p         := ("p" (INT | FLOAT))?    unsigned: no fraction, sqrt or "i" part
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
"1/sqrt(2)-0.5i". An integer too large for a float reads as infinity. One
longer than the interpreter's int-string digit limit (4,300 digits by
default) is a lex error, "integer literal too long", wherever it stands,
and it is reported before any parse error earlier in the text.
The lexer holds tokens as three columns (kinds, lexemes, start offsets),
numbers are converted where the parser reads them, and a line and column
are derived from an offset only for an item's keyword or a diagnostic.

parse_scenario is syntax only. compile_scenario, one pass in source order,
checks names (declared above their use, unique, of the right kind), that
every dimension agrees and a reconstruct probability lies in [0, 1], and
builds every state, subspace and evolve operator at the run's tolerance.
All diagnostics of both carry a 1-based line and column.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left

from ._value import Value
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


class ScenarioItem(Value):
    """A declaration, step or query; line and col are its keyword's position."""

    _keywords = ("line", "col")
    line: int = 0
    col: int = 0


class StateDecl(ScenarioItem):
    name: str
    components: tuple[complex, ...]


class PropDecl(ScenarioItem):
    name: str
    vectors: tuple[tuple[complex, ...], ...]


class FormulaDecl(ScenarioItem):
    name: str
    body: Formula


class RecordStep(ScenarioItem):
    at: int


class CloneStep(ScenarioItem):
    source: str
    target: str


class UncloneStep(ScenarioItem):
    cloned: str
    blank: str


class BlackholeStep(ScenarioItem):
    state: str


class EvolveStep(ScenarioItem):
    state: str
    matrix: tuple[tuple[complex, ...], ...]


class ReconstructStep(ScenarioItem):
    p_one: float | None = None


class EvalQuery(ScenarioItem):
    state: str
    prop: str


class SuperQuery(ScenarioItem):
    formula: str


class CheckPastQuery(ScenarioItem):
    pass


class FeasibleQuery(ScenarioItem):
    first: str
    second: str


class Scenario(Value):
    items: tuple[ScenarioItem, ...]


#: Every item's grammar: keyword -> (AST class, the pieces after the
#: keyword). A field piece (a key of _PIECES) fills the class's next field:
#: "name" is a declared name; "state", "proposition" and "formula" name one
#: declared above; "vector", "matrix", "span", "boolexpr" and "tick" are
#: values; "p" is an optional "p" and one unsigned int or float literal.
#: Any other piece is a literal.
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


#: One alternative per token kind, tried in order, then the whitespace and
#: comments after the token. In a str pattern \d is str.isdecimal and \w is
#: isalnum() or "_", the lexical rules the module docstring states. finditer
#: searches, so "error" takes any character that starts no token. A number's
#: mantissa is scanned once, by a lookahead, which never backtracks; "imag",
#: "float" (a mantissa with a fraction or exponent, group "real") and "int"
#: then match it by backreference. Python 3.10 has no atomic groups or
#: possessive repeats, the other ways to forbid the rescan.
_SKIP = r"(?:[ \t\r\n]|#[^\n]*)*"
_TOKEN_PATTERN = re.compile(
    r"(?:(?P<punct>check-past(?![\w-])|->|[\[\](),=/+-])"
    r"|(?=(?P<mantissa>\d+(?P<real>\.\d+(?:[eE][+-]?\d+)?|[eE][+-]?\d+)?))"
    r"(?:(?P<imag>(?P=mantissa)i(?!\w))|(?(real)(?P<float>(?P=mantissa))|(?P<int>(?P=mantissa))))"
    r"|(?P<word>\w+)"
    r"|(?P<error>[\s\S]))" + _SKIP
)
_LEADING_SKIP = re.compile(_SKIP)
_NEWLINE = re.compile("\n")

#: int() rejects a decimal literal only past the interpreter's digit limit,
#: which is 0 (none) or at least this many digits.
_SAFE_INT_DIGITS = 640


def _tokenize(text: str) -> tuple[list[str], list[str], list[int]]:
    """Lex text into three parallel columns: the kinds, lexemes and start
    offsets of its tokens, ended by an "eof" entry at len(text).

    A kind is "punct" (whose lexeme says which), "word", "int", "float" or
    "imag". Raises ScenarioSyntaxError at the first character that starts
    no token or integer literal too long for int(), whichever comes first.
    """
    matches = list(_TOKEN_PATTERN.finditer(text, _LEADING_SKIP.match(text).end()))
    kinds = [m.lastgroup for m in matches]
    lexemes = [m[kind] for m, kind in zip(matches, kinds)]
    starts = [m.start() for m in matches]
    # An ASCII word starts with a letter or "_", since a digit starts a
    # number, and only a long lexeme can be too long an integer.
    if "error" in kinds or not text.isascii() or max(map(len, lexemes), default=0) > _SAFE_INT_DIGITS:
        for kind, lexeme, start in zip(kinds, lexemes, starts):
            # A word may go on with digits and the like, but must start with
            # a letter or "_": "²" and "½" are \w but start nothing.
            if kind == "error" or (kind == "word" and not (lexeme[0].isalpha() or lexeme[0] == "_")):
                message = f"unexpected character {lexeme[0]!r}"
            elif kind == "int" and len(lexeme) > _SAFE_INT_DIGITS:
                try:
                    int(lexeme)
                    continue
                except ValueError:  # beyond the interpreter's int-string digit limit
                    message = "integer literal too long"
            else:
                continue
            newlines = [m.start() for m in _NEWLINE.finditer(text, 0, start)]
            raise ScenarioSyntaxError(message, *_position(newlines, start))
    return kinds + ["eof"], lexemes + [""], starts + [len(text)]


def _position(newlines: list[int], offset: int) -> tuple[int, int]:
    """The 1-based line and column of offset, given every newline's offset."""
    line = bisect_left(newlines, offset)
    return line + 1, offset - (newlines[line - 1] if line else -1)


# ---------------------------------------------------------------------------
# Parser


#: Deepest nesting of "not", parentheses and "->" a formula may have. The
#: parser recurses once per level, so the limit keeps it well inside
#: Python's recursion limit.
MAX_FORMULA_NESTING = 100


class _Parser:
    """Reads the columns of _tokenize at pos, which never passes "eof".

    Only a word has a keyword's text and only a punct token a punctuation
    mark's, so keywords and punctuation are matched by lexeme alone.
    """

    def __init__(self, text: str):
        self.kinds, self.lexemes, self.starts = _tokenize(text)
        self.newlines = [m.start() for m in _NEWLINE.finditer(text)]
        self.pos = 0
        self.depth = 0

    def error(self, index: int, message: str, expected: tuple[str, ...] = ()) -> ScenarioSyntaxError:
        return ScenarioSyntaxError(message, *_position(self.newlines, self.starts[index]), expected=expected)

    def unexpected(self, *expected: str) -> ScenarioSyntaxError:
        pos = self.pos
        what = "end of input" if self.kinds[pos] == "eof" else repr(self.lexemes[pos])
        return self.error(pos, f"unexpected {what}", expected)

    def accept(self, lexeme: str) -> bool:
        if self.lexemes[self.pos] == lexeme:
            self.pos += 1
            return True
        return False

    def expect(self, lexeme: str, expected: str) -> None:
        if self.lexemes[self.pos] != lexeme:
            raise self.unexpected(expected)
        self.pos += 1

    def expect_kind(self, kinds: tuple[str, ...], expected: str) -> int:
        """Read a token of one of kinds; returns its index."""
        pos = self.pos
        if self.kinds[pos] not in kinds:
            raise self.unexpected(expected)
        self.pos = pos + 1
        return pos

    def parse_name(self) -> str:
        pos = self.pos
        if self.kinds[pos] != "word":
            raise self.unexpected("identifier")
        name = self.lexemes[pos]
        if name in _KEYWORDS:
            raise self.error(pos, f"{name!r} is a reserved word", ("identifier",))
        self.pos = pos + 1
        return name

    # numbers and values --------------------------------------------------

    def _parse_signed_part(self) -> tuple[float, bool]:
        kinds, lexemes, pos = self.kinds, self.lexemes, self.pos
        negate = lexemes[pos] == "-"
        if negate or lexemes[pos] == "+":
            pos += 1
        kind = kinds[pos]
        self.pos = pos + 1
        if kind == "imag":
            value = float(lexemes[pos][:-1])
            return (-value if negate else value, True)
        if kind != "int" and kind != "float":
            self.pos = pos
            raise self.unexpected("number")
        value = float(lexemes[pos])  # an integer too large for a float is inf
        if kind == "int" and self.accept("/"):
            den = self.pos
            if kinds[den] == "int":
                self.pos = den + 1
                denominator = float(lexemes[den])
                if denominator == 0:
                    raise self.error(den, "zero denominator")
                value /= denominator
            elif self.accept("sqrt"):
                self.expect("(", "'('")
                arg = self.expect_kind(("int",), "integer")
                self.expect(")", "')'")
                radicand = float(lexemes[arg])
                if radicand == 0:
                    raise self.error(arg, "zero under sqrt")
                value /= math.sqrt(radicand)
            else:
                raise self.unexpected("integer denominator", "'sqrt('")
            if math.isnan(value):  # both integers too large for a float
                raise self.error(pos, "fraction too large to evaluate")
        return (-value if negate else value, False)

    def parse_number(self) -> complex:
        value, is_imag = self._parse_signed_part()
        if is_imag:
            return complex(0.0, value)
        kinds, lexemes, pos = self.kinds, self.lexemes, self.pos
        sign = lexemes[pos]
        if (sign == "+" or sign == "-") and kinds[pos + 1] == "imag":
            self.pos = pos + 2
            imag = float(lexemes[pos + 1][:-1])
            return complex(value, imag if sign == "+" else -imag)
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
        self.expect("span", "'span'")
        return self._parse_list(self.parse_vector, "(", ")")

    def parse_tick(self) -> int:
        return int(self.lexemes[self.expect_kind(("int",), "integer tick")])

    def parse_p(self) -> float | None:
        if not self.accept("p"):
            return None
        return float(self.lexemes[self.expect_kind(("int", "float"), "probability")])

    # formulas ------------------------------------------------------------

    def _nest(self) -> None:
        self.depth += 1
        if self.depth > MAX_FORMULA_NESTING:
            raise self.error(self.pos, f"formula nested deeper than {MAX_FORMULA_NESTING} levels")

    def parse_boolexpr(self) -> Formula:
        self._nest()
        node = self._parse_or()
        if self.accept("->"):
            node = Implies(node, self.parse_boolexpr())
        self.depth -= 1
        return node

    def _parse_or(self) -> Formula:
        node = self._parse_and()
        while self.accept("or"):
            node = Or(node, self._parse_and())
        return node

    def _parse_and(self) -> Formula:
        node = self._parse_unary()
        while self.accept("and"):
            node = And(node, self._parse_unary())
        return node

    def _parse_unary(self) -> Formula:
        if self.lexemes[self.pos] == "not":
            self._nest()
            self.pos += 1
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
        kw = self.pos
        grammar = SYNTAX.get(self.lexemes[kw])
        if grammar is None:
            raise self.unexpected("declaration", "step", "query")
        self.pos = kw + 1
        cls, pieces = grammar
        values = []
        for piece in pieces:
            if piece in _PIECES:
                values.append(_PIECES[piece][0](self))
            elif not self.accept(piece):  # a literal
                raise self.unexpected(f"'{piece}'")
        line, col = _position(self.newlines, self.starts[kw])
        return cls(*values, line=line, col=col)


# ---------------------------------------------------------------------------
# Compiling


#: What each declaration binds its name to.
_DECLARES = {StateDecl: "state", PropDecl: "proposition", FormulaDecl: "formula"}


def parse_scenario(text: str) -> Scenario:
    """Parse scenario text into its AST; syntax only.

    Raises ScenarioSyntaxError, with position and expected tokens, on bad
    syntax. Names, dimensions and values are checked by compile_scenario.
    """
    parser = _Parser(text)
    kinds = parser.kinds
    items: list[ScenarioItem] = []
    while kinds[parser.pos] != "eof":
        items.append(parser.parse_item())
    return Scenario(tuple(items))


def compile_scenario(scenario: Scenario, tol: float = DEFAULT_TOL) -> tuple[object, ...]:
    """Resolve every name of a parsed scenario and build its values at tol.

    Returns one value per item: the StateVector of a state, the Subspace of
    a prop, (body, atom names) of a formula, whose atoms are declared props,
    the operands of a step or query in _USES order (an evolve's Operator
    last), else None.
    Raises SvqError unless tol is a finite number in (0, 1). Otherwise the
    first error in source order is raised, and one except clause prefixes
    it with the item's line:column: UnknownIdentifier, DuplicateIdentifier,
    DimensionMismatch, BadProbability, an SvqError from make_state or
    span_subspace with its type, or a ValueError (a non-finite entry) as a
    plain SvqError.
    """
    if not is_valid_tol(tol):
        raise SvqError(f"tol must be a finite number in (0, 1), got {tol!r}")
    table: dict[str, tuple[str, object]] = {}  # name -> (what it denotes, its value)
    dim: int | None = None

    def resolve(name: str, what: str) -> object:
        denotes, value = table.get(name, (None, None))
        if denotes != what:
            raise UnknownIdentifier(f"no {what} named {name!r}")
        return value

    def check_dim(*lengths: int) -> None:
        nonlocal dim
        for length in lengths:
            if dim is None:
                dim = length
            elif length != dim:
                raise DimensionMismatch(f"dimension {length} conflicts with scenario dimension {dim}")

    values: list[object] = []
    for item in scenario.items:
        kind = type(item)
        try:
            if kind in _DECLARES and item.name in table:
                raise DuplicateIdentifier(f"{item.name!r} is already declared")
            value = tuple([resolve(getattr(item, a), what) for a, what in _USES[kind]]) or None
            if kind is StateDecl:
                check_dim(len(item.components))
                value = make_state(item.components, tol)
            elif kind is PropDecl:
                check_dim(*map(len, item.vectors))
                value = span_subspace(item.vectors, dim, tol)
            elif kind is EvolveStep:
                check_dim(len(item.matrix), *map(len, item.matrix))
                value = (*value, Operator(item.matrix))
            elif kind is FormulaDecl:
                value = (item.body, formula_atoms(item.body))
                for atom in value[1]:
                    resolve(atom, "proposition")
            elif kind is ReconstructStep and item.p_one is not None and not 0.0 <= item.p_one <= 1.0:
                raise BadProbability(f"p must lie in [0, 1], got {item.p_one!r}")
        except (SvqError, ValueError) as err:
            cls = type(err) if isinstance(err, SvqError) else SvqError
            raise cls(f"{item.line}:{item.col}: {err}") from err
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
    attrs = iter(cls._fields)
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
