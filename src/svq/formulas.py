"""Propositional formulas and their supervaluational evaluation.

A formula whose atoms all carry determinate values is evaluated classically.
With gap atoms it is TRUE when classically true under every Boolean
completion of them, FALSE when false under all, and GAP otherwise.
Classical tautologies therefore stay true no matter how many atoms have
gaps. Completions are evaluated bit-parallel: each atom is bound to a
Python int holding one bit lane per completion, and the formula is
evaluated once with ``&``, ``|`` and ``~``. A first 2-lane pass evaluates
the completions that make every gap atom false and every gap atom true; when
they disagree the formula is a gap, and otherwise one pass over all 2^k
completions of k gap atoms decides. That pass's gap lanes are built by
shift and xor from the upper half of the lanes.

Completions treat gap atoms as independent Booleans; no compatibility
constraints between atoms are imposed.
"""

from __future__ import annotations

from typing import Mapping, Union

from ._value import Value
from .errors import PrecisificationBlowup, UnknownAtom
from .lattice import TruthValue

#: The most gap atoms a formula may carry before supervaluation refuses to
#: evaluate it: the single packed pass holds 2^GAP_CAP bits per live value.
GAP_CAP = 20


class Atom(Value):
    name: str


class Not(Value):
    operand: "Formula"


class And(Value):
    left: "Formula"
    right: "Formula"


class Or(Value):
    left: "Formula"
    right: "Formula"


class Implies(Value):
    left: "Formula"
    right: "Formula"


Formula = Union[Atom, Not, And, Or, Implies]


def formula_atoms(f: Formula) -> tuple[str, ...]:
    """Atom names in first-occurrence order."""
    seen: dict[str, None] = {}
    stack = [f]
    while stack:
        node = stack.pop()
        if isinstance(node, Atom):
            seen.setdefault(node.name)
        elif isinstance(node, Not):
            stack.append(node.operand)
        else:
            stack += (node.right, node.left)
    return tuple(seen)


#: Marks a pending negation on the evaluator's work stack; the node classes
#: And, Or and Implies mark their own pending operations.
_NOT = object()


def evaluate_classical(f: Formula, assignment: Mapping[str, bool | int]) -> bool | int:
    """Two-valued evaluation under a total assignment.

    Given bool values it returns a bool. An int value holds one bit lane per
    assignment (bit j is the atom's value in assignment j; bools count as all
    lanes equal), and then the result is the packed int whose bit j is the
    formula's value in assignment j. Lanes above those the caller uses carry
    no meaning; mask them off.
    """
    packed = False
    values: list[int] = []
    todo: list = [f]
    while todo:
        node = todo.pop()
        kind = type(node)
        if kind is Atom:
            try:
                value = assignment[node.name]
            except KeyError:
                raise UnknownAtom(f"atom {node.name!r} has no assigned value") from None
            if type(value) is int:
                packed = True
            else:
                value = -1 if value else 0
            values.append(value)
        elif kind is Not:
            todo += (_NOT, node.operand)
        elif kind is And or kind is Or or kind is Implies:
            todo += (kind, node.right, node.left)
        elif node is _NOT:
            values[-1] = ~values[-1]
        elif node is And:
            right = values.pop()
            values[-1] &= right
        elif node is Or:
            right = values.pop()
            values[-1] |= right
        elif node is Implies:
            right = values.pop()
            values[-1] = ~values[-1] | right
        else:
            raise TypeError(f"not a formula node: {node!r}")
    return values[0] if packed else values[0] != 0


def _gap_columns(k: int) -> list[int]:
    """Lane patterns for k gap atoms over 2^k lanes: bit j of column i is
    bit i of j, so lane j holds the completion numbered j. Column k-1 is the
    upper half of the lanes, and column i is c ^ (c >> 2**i) for c column i+1."""
    lanes = 1 << k
    columns = [(1 << lanes) - (1 << lanes // 2)] if k else []
    for i in reversed(range(k - 1)):
        columns.append(columns[-1] ^ columns[-1] >> (1 << i))
    return columns[::-1]


def evaluate_super(f: Formula, atomics: Mapping[str, TruthValue]) -> TruthValue:
    """Supervaluational truth value of a formula under a gappy valuation.

    Two completions are evaluated first, in one 2-lane pass: lane 0 makes
    every gap atom false and lane 1 every gap atom true. If they disagree the
    formula is a GAP; with at most one gap atom they are every completion.
    Otherwise the formula is evaluated once over all 2^k completions of its
    k gap atoms, one bit lane per completion: TRUE when every lane is true,
    FALSE when none is, GAP otherwise.

    Raises UnknownAtom when a leaf is missing from atomics, and
    PrecisificationBlowup, before evaluating anything, when the number of
    gap atoms exceeds GAP_CAP, read at call time.
    """
    names = formula_atoms(f)
    for name in names:
        if name not in atomics:
            raise UnknownAtom(f"atom {name!r} is not in the valuation map")
    gaps = [n for n in names if atomics[n] is TruthValue.GAP]
    if len(gaps) > GAP_CAP:
        raise PrecisificationBlowup(
            f"{len(gaps)} gap atoms exceed the completion cap of {GAP_CAP}"
        )
    # -1 has every lane set, however many lanes a pass has.
    assignment = {n: -1 if atomics[n] is TruthValue.TRUE else 0 for n in names if atomics[n].is_determinate}
    assignment.update(dict.fromkeys(gaps, 0b10))
    full = 0b11
    lanes = evaluate_classical(f, assignment) & full
    if len(gaps) > 1 and (lanes == 0 or lanes == full):
        full = (1 << (1 << len(gaps))) - 1
        assignment.update(zip(gaps, _gap_columns(len(gaps))))
        lanes = evaluate_classical(f, assignment) & full
    if lanes == full:
        return TruthValue.TRUE
    return TruthValue.FALSE if lanes == 0 else TruthValue.GAP
