import random
import time
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from svq import (
    And,
    Atom,
    Implies,
    Not,
    Or,
    PrecisificationBlowup,
    TruthValue,
    UnknownAtom,
    evaluate_classical,
    evaluate_super,
    formula_atoms,
)
from svq.formulas import GAP_CAP, _gap_columns

T, F, G = TruthValue.TRUE, TruthValue.FALSE, TruthValue.GAP


def from_bool(b):
    return T if b else F


def classical_oracle(f, assignment):
    # independent reference evaluator, deliberately not reusing the library's
    if isinstance(f, Atom):
        return assignment[f.name]
    if isinstance(f, Not):
        return not classical_oracle(f.operand, assignment)
    if isinstance(f, And):
        return classical_oracle(f.left, assignment) and classical_oracle(f.right, assignment)
    if isinstance(f, Or):
        return classical_oracle(f.left, assignment) or classical_oracle(f.right, assignment)
    if isinstance(f, Implies):
        return (not classical_oracle(f.left, assignment)) or classical_oracle(f.right, assignment)
    raise AssertionError(f)


def reference_evaluate_classical(f, assignment):
    """The seed's recursive evaluator, kept as the packed evaluator's oracle."""
    if isinstance(f, Atom):
        try:
            return bool(assignment[f.name])
        except KeyError:
            raise UnknownAtom(f"atom {f.name!r} has no assigned value") from None
    if isinstance(f, Not):
        return not reference_evaluate_classical(f.operand, assignment)
    if isinstance(f, And):
        return reference_evaluate_classical(f.left, assignment) and reference_evaluate_classical(f.right, assignment)
    if isinstance(f, Or):
        return reference_evaluate_classical(f.left, assignment) or reference_evaluate_classical(f.right, assignment)
    if isinstance(f, Implies):
        return (not reference_evaluate_classical(f.left, assignment)) or reference_evaluate_classical(f.right, assignment)
    raise TypeError(f"not a formula node: {f!r}")


def reference_evaluate_super(f, atomics, cap=None):
    """The seed's evaluate_super, which enumerates every completion one by one."""
    names = formula_atoms(f)
    for name in names:
        if name not in atomics:
            raise UnknownAtom(f"atom {name!r} is not in the valuation map")
    gaps = [n for n in names if atomics[n] is TruthValue.GAP]
    cap = GAP_CAP if cap is None else cap
    if len(gaps) > cap:
        raise PrecisificationBlowup(
            f"{len(gaps)} gap atoms exceed the completion cap of {cap}"
        )
    base = {n: atomics[n] is TruthValue.TRUE for n in names if atomics[n].is_determinate}
    outcomes: set[bool] = set()
    for bits in product((False, True), repeat=len(gaps)):
        assignment = dict(base)
        assignment.update(zip(gaps, bits))
        outcomes.add(reference_evaluate_classical(f, assignment))
        if len(outcomes) == 2:
            return TruthValue.GAP
    return from_bool(outcomes.pop())


def reference_gap_columns(k):
    """The byte-pattern lanes that the shift-xor recurrence replaced."""
    lanes = 1 << k
    nbytes = max(1, lanes // 8)
    full = (1 << lanes) - 1
    columns = []
    for i in range(k):
        if i < 3:
            pattern = bytes((0xAA, 0xCC, 0xF0)[i : i + 1])
        else:
            half = 1 << (i - 3)
            pattern = b"\x00" * half + b"\xff" * half
        column = int.from_bytes(pattern * (nbytes // len(pattern)), "little")
        columns.append(column & full)
    return columns


def test_gap_columns_match_the_byte_pattern_oracle():
    for k in range(GAP_CAP + 1):
        assert _gap_columns(k) == reference_gap_columns(k), k


@pytest.fixture
def classical_calls(monkeypatch):
    """Counts the evaluate_classical calls that evaluate_super makes."""
    calls = []

    def counted(f, assignment):
        calls.append(f)
        return evaluate_classical(f, assignment)

    monkeypatch.setattr("svq.formulas.evaluate_classical", counted)
    return calls


def _chain(op, atoms):
    f = atoms[0]
    for a in atoms[1:]:
        f = op(f, a)
    return f


A, B = Atom("A"), Atom("B")


@pytest.mark.parametrize(
    "f",
    [
        And(Implies(A, B), Implies(B, A)),  # FF and TT true, TF false
        Or(And(A, Not(B)), And(B, Not(A))),  # FF and TT false, TF true
        Implies(A, B),
        Not(And(Implies(A, B), Implies(B, A))),
    ],
)
def test_a_gap_that_the_two_extreme_completions_miss_is_still_a_gap(f, classical_calls):
    assert evaluate_super(f, {"A": G, "B": G}) is G
    assert len(classical_calls) == 2


@pytest.mark.parametrize("k", [0, 1, 2, GAP_CAP])
def test_uniform_formulas_read_true_and_false_at_every_gap_count(k, classical_calls):
    gaps = [Atom(f"G{i}") for i in range(k)]
    d = Atom("D")
    atomics = {"D": T, **{a.name: G for a in gaps}}
    tautology = Implies(_chain(And, [d, *gaps]), gaps[-1] if gaps else d)
    assert evaluate_super(tautology, atomics) is T
    assert evaluate_super(Not(tautology), atomics) is F
    # The two-completion probe is the whole answer up to one gap atom.
    assert len(classical_calls) == (2 if k <= 1 else 4)


def test_a_gap_the_probe_finds_takes_one_pass(classical_calls):
    atoms = [Atom(f"A{i}") for i in range(GAP_CAP)]
    atomics = {a.name: G for a in atoms}
    assert evaluate_super(_chain(And, atoms), atomics) is G
    assert evaluate_super(_chain(Or, atoms), atomics) is G
    assert len(classical_calls) == 2


def test_errors_are_raised_before_anything_is_evaluated(classical_calls):
    with pytest.raises(UnknownAtom):
        evaluate_super(Or(A, Atom("missing")), {"A": G})
    atoms = [Atom(f"A{i}") for i in range(GAP_CAP + 1)]
    with pytest.raises(PrecisificationBlowup):
        evaluate_super(_chain(Or, atoms), {a.name: G for a in atoms})
    assert classical_calls == []


def test_excluded_middle_survives_a_gap():
    f = Or(Atom("A"), Not(Atom("A")))
    assert evaluate_super(f, {"A": G}) is T


def test_contradiction_is_superfalse_under_a_gap():
    f = And(Atom("A"), Not(Atom("A")))
    assert evaluate_super(f, {"A": G}) is F


def test_disjunction_of_two_gaps_is_a_gap():
    # all four completions by hand: FF gives false, TF gives true, so neither
    # supertrue nor superfalse
    f = Or(Atom("A"), Atom("B"))
    assert evaluate_super(f, {"A": G, "B": G}) is G


def test_determinate_atoms_short_circuit_nothing():
    f = Or(Atom("A"), Atom("B"))
    assert evaluate_super(f, {"A": T, "B": G}) is T
    assert evaluate_super(f, {"A": F, "B": G}) is G


def test_implication_with_gap_antecedent():
    f = Implies(Atom("A"), Atom("A"))
    assert evaluate_super(f, {"A": G}) is T


def test_unknown_atom_raises():
    with pytest.raises(UnknownAtom):
        evaluate_super(Atom("missing"), {})


def test_formula_atoms_order_and_dedup():
    f = And(Or(Atom("B"), Atom("A")), Atom("B"))
    assert formula_atoms(f) == ("B", "A")


def test_blowup_raises_before_enumerating():
    atoms = [Atom(f"A{i}") for i in range(21)]
    f = atoms[0]
    for a in atoms[1:]:
        f = Or(f, a)
    start = time.perf_counter()
    with pytest.raises(PrecisificationBlowup):
        evaluate_super(f, {a.name: G for a in atoms})
    assert time.perf_counter() - start < 1.0


def test_tautology_at_the_default_cap_is_fast():
    atoms = [Atom(f"A{i}") for i in range(GAP_CAP)]
    conjunction = atoms[0]
    for a in atoms[1:]:
        conjunction = And(conjunction, a)
    f = Implies(conjunction, atoms[7])
    start = time.perf_counter()
    assert evaluate_super(f, {a.name: G for a in atoms}) is T
    assert time.perf_counter() - start < 1.0


def test_deep_formulas_do_not_recurse():
    # 5,000 negations around 5,000 conjunctions with true atoms: f is A
    f = Atom("A")
    for i in range(10_000):
        f = Not(f) if i % 2 else And(f, Atom(f"B{i % 7}"))
    atomics = {"A": G, **{f"B{i}": T for i in range(7)}}
    assert formula_atoms(f) == ("A", *(f"B{i}" for i in (0, 2, 4, 6, 1, 3, 5)))
    assert evaluate_super(f, atomics) is G
    for truth in (T, F):
        atomics["A"] = truth
        assert evaluate_super(f, atomics) is truth


def test_a_lowered_gap_cap_is_read_at_call_time(monkeypatch):
    f = Or(Atom("A"), Atom("B"))
    assert evaluate_super(f, {"A": G, "B": G}) is G
    monkeypatch.setattr("svq.formulas.GAP_CAP", 1)
    with pytest.raises(PrecisificationBlowup, match="completion cap of 1"):
        evaluate_super(f, {"A": G, "B": G})


def _random_formula(rng, atoms, depth):
    if depth == 0 or rng.random() < 0.3:
        return Atom(rng.choice(atoms))
    shape = rng.randrange(4)
    if shape == 0:
        return Not(_random_formula(rng, atoms, depth - 1))
    left = _random_formula(rng, atoms, depth - 1)
    right = _random_formula(rng, atoms, depth - 1)
    return (And, Or, Implies)[shape - 1](left, right)


def test_no_gap_valuation_matches_classical_oracle():
    rng = random.Random(2024)
    names = ["A", "B", "C", "D"]
    for _ in range(300):
        f = _random_formula(rng, names, 4)
        assignment = {n: rng.random() < 0.5 for n in names}
        atomics = {n: from_bool(v) for n, v in assignment.items()}
        want = classical_oracle(f, assignment)
        assert evaluate_super(f, atomics) is from_bool(want)
        assert evaluate_classical(f, assignment) is want


def test_generated_tautologies_stay_supertrue():
    rng = random.Random(77)
    names = ["A", "B", "C"]
    for _ in range(60):
        f = _random_formula(rng, names, 3)
        tautology = Or(f, Not(f))
        atomics = {n: rng.choice((T, F, G)) for n in names}
        assert evaluate_super(tautology, atomics) is T
        assert evaluate_super(Not(tautology), atomics) is F


@st.composite
def formulas(draw):
    names = ("A", "B", "C")
    node = draw(
        st.recursive(
            st.sampled_from(names).map(Atom),
            lambda kids: st.one_of(
                kids.map(Not),
                st.tuples(kids, kids).map(lambda t: And(*t)),
                st.tuples(kids, kids).map(lambda t: Or(*t)),
                st.tuples(kids, kids).map(lambda t: Implies(*t)),
            ),
            max_leaves=10,
        )
    )
    return node


@given(formulas(), st.dictionaries(st.sampled_from(("A", "B", "C")), st.sampled_from((T, F, G))))
def test_super_value_is_consistent_with_completions(f, partial):
    atomics = {n: partial.get(n, T) for n in ("A", "B", "C")}
    verdict = evaluate_super(f, atomics)
    gaps = [n for n in atomics if atomics[n] is G]
    outcomes = set()
    for mask in range(2 ** len(gaps)):
        assignment = {n: atomics[n] is T for n in atomics if atomics[n].is_determinate}
        for bit, name in enumerate(gaps):
            assignment[name] = bool(mask >> bit & 1)
        outcomes.add(classical_oracle(f, assignment))
    if outcomes == {True}:
        assert verdict is T
    elif outcomes == {False}:
        assert verdict is F
    else:
        assert verdict is G


EIGHT = tuple(f"A{i}" for i in range(8))


@st.composite
def wide_formulas(draw):
    return draw(
        st.recursive(
            st.sampled_from(EIGHT).map(Atom),
            lambda kids: st.one_of(
                kids.map(Not),
                st.tuples(kids, kids).map(lambda t: And(*t)),
                st.tuples(kids, kids).map(lambda t: Or(*t)),
                st.tuples(kids, kids).map(lambda t: Implies(*t)),
            ),
            max_leaves=24,
        )
    )


@given(wide_formulas(), st.lists(st.sampled_from((T, F, G, G)), min_size=8, max_size=8))
def test_packed_super_matches_the_enumerating_reference(f, pattern):
    atomics = dict(zip(EIGHT, pattern))
    assert evaluate_super(f, atomics) is reference_evaluate_super(f, atomics)


@given(wide_formulas(), st.lists(st.integers(0, 2**16 - 1), min_size=8, max_size=8))
def test_packed_classical_agrees_lane_by_lane(f, columns):
    packed = evaluate_classical(f, dict(zip(EIGHT, columns)))
    for lane in range(16):
        assignment = {n: bool(c >> lane & 1) for n, c in zip(EIGHT, columns)}
        assert evaluate_classical(f, assignment) is bool(packed >> lane & 1)
