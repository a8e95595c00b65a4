"""Grammar fuzzing of the scenario front end: lexer, parser, compiler, CLI.

Texts come from the grammar (``scenario_texts``), from breaking those at
the token level (``mutated_texts``) and from random strings over the
lexer's alphabet. ``reference_tokenize`` is the character-at-a-time lexer
that the master pattern replaced, kept verbatim (with its token record and
character classes) as the oracle of the lexer differential; ``columns``
rebuilds its token records from the columns the lexer fills. The whole
front end, lexer and parser, is also checked against the token-at-a-time
one it replaced (``reference_front_end``).
"""

import contextlib
import io
import re
import tempfile
from dataclasses import dataclass
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from svq import ScenarioSyntaxError, SvqError, compile_scenario, format_scenario, parse_scenario
from svq.cli import main
from svq.scenario import _tokenize

import reference_front_end
from scenario_strategies import mutated_texts, scenario_texts


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    value: object
    line: int
    col: int


def _is_ident_start(c: str) -> bool:
    return c.isalpha() or c == "_"


def _is_ident_char(c: str) -> bool:
    return c.isalnum() or c == "_"


def reference_tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos, line, col = 0, 1, 1
    n = len(text)

    def bump(count: int) -> None:
        nonlocal pos, line, col
        for _ in range(count):
            if text[pos] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            pos += 1

    while pos < n:
        c = text[pos]
        if c in " \t\r\n":
            bump(1)
            continue
        if c == "#":
            while pos < n and text[pos] != "\n":
                bump(1)
            continue
        start_line, start_col = line, col
        if text.startswith("check-past", pos) and (
            pos + 10 >= n or not (_is_ident_char(text[pos + 10]) or text[pos + 10] == "-")
        ):
            tokens.append(_Token("check-past", "check-past", None, start_line, start_col))
            bump(10)
            continue
        if _is_ident_start(c):
            end = pos
            while end < n and _is_ident_char(text[end]):
                end += 1
            word = text[pos:end]
            tokens.append(_Token("ident", word, word, start_line, start_col))
            bump(end - pos)
            continue
        if c.isdecimal():
            end = pos
            while end < n and text[end].isdecimal():
                end += 1
            is_float = False
            if end < n and text[end] == "." and end + 1 < n and text[end + 1].isdecimal():
                is_float = True
                end += 1
                while end < n and text[end].isdecimal():
                    end += 1
            if end < n and text[end] in "eE":
                probe = end + 1
                if probe < n and text[probe] in "+-":
                    probe += 1
                if probe < n and text[probe].isdecimal():
                    is_float = True
                    end = probe
                    while end < n and text[end].isdecimal():
                        end += 1
            literal = text[pos:end]
            if end < n and text[end] == "i" and (end + 1 >= n or not _is_ident_char(text[end + 1])):
                tokens.append(_Token("imag", literal + "i", float(literal), start_line, start_col))
                bump(end + 1 - pos)
                continue
            if is_float:
                tokens.append(_Token("float", literal, float(literal), start_line, start_col))
            else:
                tokens.append(_Token("int", literal, int(literal), start_line, start_col))
            bump(end - pos)
            continue
        if text.startswith("->", pos):
            tokens.append(_Token("->", "->", None, start_line, start_col))
            bump(2)
            continue
        if c in "[](),=/+-":
            tokens.append(_Token(c, c, None, start_line, start_col))
            bump(1)
            continue
        raise ScenarioSyntaxError(f"unexpected character {c!r}", start_line, start_col)
    tokens.append(_Token("eof", "", None, line, col))
    return tokens


#: Characters at every boundary of the token classes: each kind of
#: whitespace and non-whitespace, word characters that start no token,
#: decimal digits of other scripts, and the parts of every multi-character
#: token, check-past included.
LEXICAL_ALPHABET = list(" \t\r\n\x0c#-+>[](),=/.*$_eEi0159ackhpst") + [
    "\u00b2",  # superscript two
    "\u00bd",  # one half
    "\u0663",  # Arabic-Indic three
    "\u00e9",  # e acute
    "\u00a0",  # no-break space
    "\u2028",  # line separator
    "check-past",
]

texts = st.one_of(
    scenario_texts(),
    mutated_texts(),
    st.lists(st.sampled_from(LEXICAL_ALPHABET), max_size=40).map("".join),
)


#: Each lexer kind's token kind and value, from its lexeme.
KIND_VALUES = {
    "word": lambda text: ("ident", text),
    "punct": lambda text: (text, None),
    "int": lambda text: ("int", int(text)),
    "float": lambda text: ("float", float(text)),
    "imag": lambda text: ("imag", float(text[:-1])),
    "eof": lambda text: ("eof", None),
}


def columns(text: str) -> list[_Token]:
    """The lexer's columns as the reference's token records."""
    tokens = []
    for kind, lexeme, start in zip(*_tokenize(text)):
        token_kind, value = KIND_VALUES[kind](lexeme)
        line, col = text.count("\n", 0, start) + 1, start - text.rfind("\n", 0, start)
        tokens.append(_Token(token_kind, lexeme, value, line, col))
    return tokens


def lexed(tokenize, text):
    try:
        return [(t.kind, t.text, t.value, t.line, t.col) for t in tokenize(text)]
    except ScenarioSyntaxError as err:
        return str(err)


@settings(max_examples=600)
@given(texts)
@example("check-past-\ncheck-pasta check-past_ check-past->")
@example("1i 1ix 1i2 1.e5 1.5e 1e+ 2E-3i a\u00b2 _\u00bd \u0663.\u0665e\u0661i #\r\n\t x")
@example("a \u00b2a")
@example("1\u00bd")
@example("0.5-0.25i 1.5e3i 1ei 1e5x 12i3")  # the edges of a mantissa read once
@example("3.i")
@example("12345678901234567+1 12345678901234567-1i 12345678901234567i 1.2345678901234567e+17i")
def test_lexer_matches_the_reference(text):
    assert lexed(columns, text) == lexed(reference_tokenize, text)


def parsed(parse, text):
    """Each item with its position, or the error's type, text and expected tokens."""
    try:
        return [(item, item.line, item.col) for item in parse(text).items]
    except ScenarioSyntaxError as err:
        return type(err), str(err), err.expected, err.line, err.column


#: An integer literal past the interpreter's default digit limit.
TOO_LONG = "9" * 5000


@settings(max_examples=300)
@given(texts)
@example(f"record at x {TOO_LONG}")  # a lexer error wins over an earlier parse error
@example(f"state s = [1, 2\n\u00b2 {TOO_LONG}")
@example(f"record at {TOO_LONG[:700]}\nprop P = span([1/{TOO_LONG[:700]}, 1/sqrt({TOO_LONG[:700]})])")
@example("state s = [1, -2.5e-3i, 1/sqrt(2)+0.5i, 7-1i, 1/0]")
@example("formula f = " + "(" * 120 + "a")
def test_front_end_matches_the_reference(text):
    assert parsed(parse_scenario, text) == parsed(reference_front_end.parse_scenario, text)


DEEP_NOT = "prop P0 = span([1, 0])\nformula f0 = " + "not " * 150 + "P0\n"
front_end_texts = st.one_of(scenario_texts(), mutated_texts())


@settings(max_examples=300)
@given(front_end_texts)
@example(DEEP_NOT)
def test_every_front_end_failure_is_positioned(text):
    try:
        compile_scenario(parse_scenario(text))
    except SvqError as err:
        assert re.match(r"\d+:\d+: ", str(err)), str(err)


def check_outcome(text: str) -> tuple[int, str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.svq"
        path.write_text(text, encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            return main(["check", str(path)]), err.getvalue()


@settings(max_examples=300)
@given(front_end_texts)
@example(DEEP_NOT)
def test_check_exits_zero_or_two_and_never_fails_internally(text):
    code, err = check_outcome(text)
    assert code in (0, 2)
    assert "internal error" not in err


@settings(max_examples=300)
@given(front_end_texts)
def test_every_accepted_text_round_trips_through_the_printer(text):
    try:
        scenario = parse_scenario(text)
    except SvqError:
        return
    assert parse_scenario(format_scenario(scenario)) == scenario
