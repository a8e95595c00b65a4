import math
import sys

import pytest
from hypothesis import given

from svq import (
    And,
    Atom,
    BadProbability,
    DimensionMismatch,
    DuplicateIdentifier,
    Implies,
    Not,
    Or,
    ScenarioSyntaxError,
    SvqError,
    UnknownIdentifier,
    ZeroVector,
    compile_scenario,
    format_formula,
    format_scenario,
    parse_scenario,
)
from svq.scenario import (
    _TOKEN_PATTERN,
    MAX_FORMULA_NESTING,
    BlackholeStep,
    CheckPastQuery,
    CloneStep,
    EvalQuery,
    EvolveStep,
    FeasibleQuery,
    FormulaDecl,
    PropDecl,
    ReconstructStep,
    RecordStep,
    StateDecl,
    SuperQuery,
    UncloneStep,
)

from scenario_strategies import formula_texts, formula_trees

try:
    from re import _parser as sre_parse
except ImportError:  # Python 3.10
    import sre_parse

ATOMS = ("A", "B", "C")
STEPS = (RecordStep, CloneStep, UncloneStep, BlackholeStep, EvolveStep, ReconstructStep)
QUERIES = (EvalQuery, SuperQuery, CheckPastQuery, FeasibleQuery)

def test_smallest_valid_program():
    s = parse_scenario("state phi = [1, 0]")
    assert s.items == (StateDecl("phi", (1 + 0j, 0 + 0j)),)


def test_prop_and_query():
    s = parse_scenario(
        "state phi = [1, 0]\nprop Zplus = span([1, 0])\neval phi in Zplus"
    )
    kinds = [type(i) for i in s.items]
    assert kinds == [StateDecl, PropDecl, EvalQuery]
    assert tuple(i for i in s.items if isinstance(i, (StateDecl, PropDecl, FormulaDecl))) == s.items[:2]
    assert tuple(i for i in s.items if isinstance(i, QUERIES)) == (EvalQuery("phi", "Zplus"),)


def test_zero_vector_diagnostic_carries_position():
    with pytest.raises(ZeroVector) as err:
        compile_scenario(parse_scenario("state ok = [1, 0]\nstate bad = [0, 0]"))
    assert str(err.value).startswith("2:1:")


def test_syntax_error_position_and_expectations():
    with pytest.raises(ScenarioSyntaxError) as err:
        parse_scenario("state phi = [1, ]")
    assert err.value.line == 1
    assert err.value.column == 17
    assert err.value.expected == ("number",)


def test_unknown_top_level_word():
    with pytest.raises(ScenarioSyntaxError) as err:
        parse_scenario("state phi = [1, 0]\nwarp phi")
    assert err.value.line == 2
    assert "declaration" in err.value.expected


def test_unknown_identifier_in_query():
    with pytest.raises(UnknownIdentifier) as err:
        compile_scenario(parse_scenario("state phi = [1, 0]\nprop Z = span([1, 0])\neval ghost in Z"))
    assert str(err.value).startswith("3:1:")


def test_category_is_checked_not_just_existence():
    with pytest.raises(UnknownIdentifier):
        compile_scenario(parse_scenario("state phi = [1, 0]\nstate psi = [0, 1]\neval phi in psi"))


def test_duplicate_identifier():
    with pytest.raises(DuplicateIdentifier):
        compile_scenario(parse_scenario("state phi = [1, 0]\nstate phi = [0, 1]"))


def test_dimension_mismatch_across_declarations():
    with pytest.raises(DimensionMismatch) as err:
        compile_scenario(parse_scenario("state phi = [1, 0]\nstate big = [1, 0, 0]"))
    assert str(err.value).startswith("2:1:")


def test_reserved_words_cannot_be_names():
    with pytest.raises(ScenarioSyntaxError):
        parse_scenario("state span = [1, 0]")


def test_forward_reference_is_rejected():
    with pytest.raises(UnknownIdentifier):
        compile_scenario(parse_scenario("eval phi in Z\nstate phi = [1, 0]\nprop Z = span([1, 0])"))


def test_bad_reconstruct_probability():
    with pytest.raises(BadProbability):
        compile_scenario(parse_scenario("state phi = [1, 0]\nreconstruct p 1.5"))


def test_number_forms():
    s = parse_scenario("state v = [1/2, 1/sqrt(2), 0.25, -1/2, 2e-1]")
    components = s.items[0].components
    assert components[0] == pytest.approx(0.5)
    assert components[1] == pytest.approx(1 / math.sqrt(2))
    assert components[2] == pytest.approx(0.25)
    assert components[3] == pytest.approx(-0.5)
    assert components[4] == pytest.approx(0.2)


def test_complex_literals():
    s = parse_scenario("state v = [0.5+0.5i, 1i, -1i, 1-0.5i]")
    components = s.items[0].components
    assert components[0] == 0.5 + 0.5j
    assert components[1] == 1j
    assert components[2] == -1j
    assert components[3] == 1 - 0.5j


def test_comments_and_blank_lines_are_ignored():
    s = parse_scenario("# leading comment\n\nstate phi = [1, 0]  # trailing\n")
    assert len(s.items) == 1


def test_steps_parse():
    text = """
state phi = [1, 0]
state ups = [1, 1]
prop Z = span([1, 0])
record at 0
clone ups -> phi
unclone ups blank phi
blackhole phi
evolve phi by [[0, 1], [1, 0]]
reconstruct
reconstruct p 0.25
check-past
feasible ups phi
"""
    s = parse_scenario(text)
    steps = [i for i in s.items if isinstance(i, STEPS)]
    queries = [i for i in s.items if isinstance(i, QUERIES)]
    step_types = [type(i) for i in steps]
    assert step_types == [
        RecordStep,
        CloneStep,
        UncloneStep,
        BlackholeStep,
        EvolveStep,
        ReconstructStep,
        ReconstructStep,
    ]
    assert steps[5].p_one is None
    assert steps[6].p_one == 0.25
    assert isinstance(queries[0], CheckPastQuery)
    assert queries[1] == FeasibleQuery("ups", "phi")


def test_evolve_matrix_must_match_dimension():
    with pytest.raises(DimensionMismatch):
        compile_scenario(parse_scenario("state phi = [1, 0]\nevolve phi by [[1, 0, 0], [0, 1, 0], [0, 0, 1]]"))


def test_formula_precedence():
    text = (
        "prop A = span([1, 0])\nprop B = span([0, 1])\nprop C = span([1, 1])\n"
        "formula f = not A and B or C -> A"
    )
    s = parse_scenario(text)
    body = s.items[3].body
    assert body == Implies(Or(And(Not(Atom("A")), Atom("B")), Atom("C")), Atom("A"))


def test_implies_is_right_associative():
    text = "prop A = span([1, 0])\nprop B = span([0, 1])\nformula f = A -> B -> A"
    s = parse_scenario(text)
    assert s.items[2].body == Implies(Atom("A"), Implies(Atom("B"), Atom("A")))


def test_formula_nesting_limit():
    head = "prop A = span([1, 0])\nformula f = "
    limit = MAX_FORMULA_NESTING - 1  # the formula itself is the first level
    for deep in ("not " * limit + "A", "(" * limit + "A" + ")" * limit, "A -> " * limit + "A"):
        parse_scenario(head + deep)
    for deeper in ("not " * (limit + 1) + "A", "(" * (limit + 1) + "A" + ")" * (limit + 1)):
        with pytest.raises(ScenarioSyntaxError, match="nested deeper") as err:
            parse_scenario(head + deeper)
        assert err.value.line == 2
    with pytest.raises(ScenarioSyntaxError, match="nested deeper"):
        parse_scenario(head + "A -> " * (limit + 1) + "A")


def test_round_trip_fixed_point_for_corpus(scenario_dir):
    files = sorted(scenario_dir.glob("*.svq"))
    assert files, "scenario corpus is missing"
    for path in files:
        first = parse_scenario(path.read_text(encoding="utf-8"))
        printed = format_scenario(first)
        second = parse_scenario(printed)
        assert second == first, path.name
        assert format_scenario(second) == printed, path.name


@given(formula_trees(ATOMS))
def test_formula_printer_round_trips(f):
    text = (
        "prop A = span([1, 0])\nprop B = span([0, 1])\nprop C = span([1, 1])\n"
        f"formula f = {format_formula(f)}"
    )
    s = parse_scenario(text)
    assert s.items[3].body == f


@given(formula_texts(ATOMS))
def test_redundant_parentheses_and_not_chains_parse_as_the_tree(drawn):
    f, text = drawn
    s = parse_scenario(
        f"prop A = span([1, 0])\nprop B = span([0, 1])\nprop C = span([1, 1])\nformula f = {text}"
    )
    assert s.items[3].body == f


def reference_format_formula(f):
    """The recursive printer that format_formula replaced, kept as its oracle."""

    def go(node, min_prec):
        if isinstance(node, Atom):
            return node.name
        if isinstance(node, Not):
            rendered, prec = "not " + go(node.operand, 4), 4
        elif isinstance(node, And):
            rendered, prec = go(node.left, 3) + " and " + go(node.right, 4), 3
        elif isinstance(node, Or):
            rendered, prec = go(node.left, 2) + " or " + go(node.right, 3), 2
        else:
            rendered, prec = go(node.left, 2) + " -> " + go(node.right, 1), 1
        return f"({rendered})" if prec < min_prec else rendered

    return go(f, 0)


@given(formula_trees(ATOMS))
def test_formula_printer_matches_the_recursive_reference(f):
    assert format_formula(f) == reference_format_formula(f)


def test_formula_printer_renders_a_long_chain():
    # The parser builds and/or chains as left-deep trees with no nesting
    # limit. Compare text, not trees: the AST's __eq__ and __repr__ still
    # recurse once per level.
    head = "prop A = span([1, 0])\nprop B = span([0, 1])\nformula f = "
    for op in (" and ", " or "):
        chain = op.join(["A", "B"] * 2500)
        body = parse_scenario(head + chain).items[2].body
        assert format_formula(body) == chain


def test_every_diagnostic_has_line_and_column():
    bad_texts = [
        "state phi = [1, 0] extra",
        "state phi = ]",
        "prop Z = span()",
        "record at x",
        "clone a",
        "state phi = [1, 0]\nstate phi = [1, 0]",
        "state bad = [0, 0]",
    ]
    for text in bad_texts:
        try:
            compile_scenario(parse_scenario(text))
            raise AssertionError(f"no diagnostic for {text!r}")
        except Exception as err:
            head = str(err).split(" ", 1)[0]
            line_col = head.rstrip(":").split(":")
            assert len(line_col) == 2 and all(p.isdigit() for p in line_col), str(err)


def test_superscript_digit_is_an_unexpected_character():
    # str.isdigit accepts "²", which int() then rejected with no position.
    with pytest.raises(ScenarioSyntaxError, match="unexpected character") as err:
        parse_scenario("state s = [², 0]")
    assert (err.value.line, err.value.column) == (1, 12)


def test_arabic_indic_digits_are_decimal_numbers():
    s = parse_scenario("state s = [\u0661, \u0660]\nprop P = span([\u0660.\u0665, \u0661e\u0660])")
    assert s.items[0].components == (1 + 0j, 0j)
    assert s.items[1].vectors == ((0.5 + 0j, 1 + 0j),)


#: Regex syntax newer than Python 3.10, the floor pyproject.toml declares.
NEWER_THAN_3_10 = {"POSSESSIVE_REPEAT", "ATOMIC_GROUP"}


def opcode_names(node):
    """The name of every opcode in a parsed pattern, nested ones included."""
    if isinstance(node, sre_parse.SubPattern):
        for op, av in node:
            yield op.name
            yield from opcode_names(av)
    elif isinstance(node, (list, tuple)):
        for child in node:
            yield from opcode_names(child)


def test_the_token_pattern_needs_nothing_newer_than_python_3_10():
    names = set(opcode_names(sre_parse.parse(_TOKEN_PATTERN.pattern)))
    assert "GROUPREF_EXISTS" in names  # the walk reaches the number alternatives
    assert not names & NEWER_THAN_3_10
    if sys.version_info >= (3, 11):
        assert set(opcode_names(sre_parse.parse(r"(?:a|(b++))(?>c)"))) >= NEWER_THAN_3_10


@pytest.mark.parametrize(
    "text, position",
    [
        ("state s = [1e999, 0]", "1:1:"),
        ("state s = [1, 0]\nprop P = span([1e999, 0])", "2:1:"),
        ("state s = [1, 0]\nprop P = span([1, 0], [1e999, 1])", "2:1:"),
        # float(int) used to raise a bare OverflowError here.
        pytest.param("state s = [" + "9" * 400 + ", 0]", "1:1:", id="huge-integer"),
    ],
)
def test_non_finite_vectors_are_positioned_compile_errors(text, position):
    scenario = parse_scenario(text)
    with pytest.raises(SvqError, match="must be finite") as err:
        compile_scenario(scenario)
    assert str(err.value).startswith(position)


@pytest.mark.parametrize(
    "text, message",
    [
        ("state s = [1/", "1:14: unexpected end of input (expected integer denominator or 'sqrt(')"),
        ("reconstruct p", "1:14: unexpected end of input (expected probability)"),
    ],
    ids=["denominator", "probability"],
)
def test_end_of_input_reads_the_same_at_every_site(text, message):
    # These two sites used to report "unexpected ''".
    with pytest.raises(ScenarioSyntaxError) as err:
        parse_scenario(text)
    assert str(err.value) == message


HUGE = "9" * 400  # an integer no float can hold


@pytest.mark.parametrize(
    "text, components",
    [
        (f"state s = [{HUGE}, 0]", (complex(math.inf, 0), 0j)),
        (f"state s = [1/sqrt({HUGE}), 1]", (0j, 1 + 0j)),
        (f"state s = [1/{HUGE}, 1]", (0j, 1 + 0j)),
        (f"state s = [{HUGE}/2, 1]", (complex(math.inf, 0), 1 + 0j)),
    ],
    ids=["component", "sqrt", "denominator", "numerator"],
)
def test_integers_too_large_for_a_float_parse(text, components):
    # Each used to raise a bare OverflowError from float().
    assert parse_scenario(text).items[0].components == components


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("record at " + "1" * 5000, ScenarioSyntaxError, "1:11: integer literal too long"),
        ("state a = [" + "9" * 5000 + ", 0]", ScenarioSyntaxError, "1:12: integer literal too long"),
        (f"state s = [{HUGE}/{HUGE}, 1]", ScenarioSyntaxError, "1:12: fraction too large to evaluate"),
        (f"state s = [1, 0]\nreconstruct p {HUGE}", BadProbability, "2:1: p must lie in [0, 1], got inf"),
        # A probability is one unsigned literal: no fraction and no sign.
        ("reconstruct p 1/2", ScenarioSyntaxError, "1:16: unexpected '/' (expected declaration or step or query)"),
        ("reconstruct p -0.5", ScenarioSyntaxError, "1:15: unexpected '-' (expected probability)"),
    ],
    ids=["digit-limit", "digit-limit-component", "inf-over-inf", "probability", "p-fraction", "p-sign"],
)
def test_number_literals_that_cannot_be_values_are_positioned_errors(text, error, message):
    # "digit-limit" used to fail with int()'s digit-limit ValueError and no
    # position, "inf-over-inf" and "probability" with a bare OverflowError.
    with pytest.raises(error) as err:
        compile_scenario(parse_scenario(text))
    assert str(err.value) == message


@pytest.mark.parametrize(
    "text",
    [
        "state s = [1e999, 0]\n",
        "state s = [-1e999, 1e999i, 1-1e999i, 1e999+1i]\n",
        "prop P = span([1e+300, 1e-300])\n",
    ],
    ids=["inf", "signed-inf", "extreme"],
)
def test_printer_writes_non_finite_and_extreme_components(text):
    # _fmt_real used to raise OverflowError on inf.
    scenario = parse_scenario(text)
    assert format_scenario(scenario) == text
    assert parse_scenario(format_scenario(scenario)) == scenario
