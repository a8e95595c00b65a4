"""The item grammar table SYNTAX against the code it replaced.

ReferenceParser holds the per-item, vector and matrix parse methods, and
reference_format_item the isinstance-chain printer, that the SYNTAX-driven
loops replaced, both verbatim, as the oracle of a differential test: on
grammar-drawn and mutated texts the table's parser must build equal items
at equal positions, print them identically and reject exactly what the
reference rejects, with the same error, message and expected tokens.
ReferenceParser extends the token-at-a-time parser of
``reference_front_end``, which the table's loops were first written in.
The runner's item table must name every kind SYNTAX declares.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from svq import ScenarioSyntaxError, parse_scenario
from svq.runner import _ITEMS
from svq.scenario import (
    KIND,
    SYNTAX,
    _KEYWORDS,
    _PIECES,
    _USES,
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
    Scenario,
    ScenarioItem,
    StateDecl,
    SuperQuery,
    UncloneStep,
    _fmt_real,
    _fmt_vector,
    format_formula,
    format_item,
)

from reference_front_end import _Parser, _real, _tokenize, _unexpected
from scenario_strategies import mutated_texts, scenario_texts


class ReferenceParser(_Parser):
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


def reference_parse(text: str) -> Scenario:
    parser = ReferenceParser(_tokenize(text))
    items = []
    while parser.peek().kind != "eof":
        items.append(parser.parse_item())
    return Scenario(tuple(items))


def reference_format_item(item: ScenarioItem) -> str:
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


def outcome(parse, format_item, text):
    """Each item with its position and printed text, or the error's details."""
    try:
        scenario = parse(text)
    except ScenarioSyntaxError as err:
        return type(err), str(err), err.expected, err.line, err.column
    return [(item, item.line, item.col, format_item(item)) for item in scenario.items]


@settings(max_examples=400)
@given(st.one_of(scenario_texts(), mutated_texts()))
@example("record at\nreconstruct p\nreconstruct p x\nunclone a by b\nevolve s blank [[1]]")
@example("prop P = span [1, 0]\nprop Q = span([1, 0]\nstate s [1]\nclone a b\neval s P\nfeasible a")
@example("check-past super f formula g = not (A or B) -> A and B record at 3 blackhole s reconstruct")
def test_the_table_parses_and_prints_as_the_reference(text):
    assert outcome(parse_scenario, format_item, text) == outcome(reference_parse, reference_format_item, text)


def test_every_item_class_has_one_field_per_field_piece():
    assert set(KIND) == set(_USES) == {cls for cls, _ in SYNTAX.values()}
    for cls, pieces in SYNTAX.values():
        assert issubclass(cls, ScenarioItem)
        own = cls._fields
        assert len(own) == sum(piece in _PIECES for piece in pieces), cls


def test_reserved_words_come_from_the_table():
    assert _KEYWORDS - {"check-past"} == set(
        "state prop formula span record at clone unclone blank blackhole evolve by "
        "reconstruct eval in super feasible not and or sqrt".split()
    )


def test_the_runner_has_one_entry_per_item_kind():
    assert set(_ITEMS) == set(KIND.values())
    # A step's entry holds its handler, rows key and text head; every other
    # kind's holds its handler alone, since an entry's JSON is its dict.
    steps = {kind for kind, entry in _ITEMS.items() if len(entry) == 3}
    others = {kind for kind, entry in _ITEMS.items() if len(entry) == 1}
    assert steps | others == set(_ITEMS)
    assert {KIND[cls] for cls in (EvalQuery, SuperQuery, FeasibleQuery)} <= others
    step_classes = (RecordStep, CloneStep, UncloneStep, BlackholeStep, EvolveStep, ReconstructStep)
    assert steps == {KIND[cls] for cls in step_classes}
    assert {cls for cls in KIND if cls.__name__.endswith("Step")} == set(step_classes)
