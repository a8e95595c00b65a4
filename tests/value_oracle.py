"""The value types as the standard library's dataclasses declared them.

These are the 24 @dataclass definitions that svq's value types replaced,
kept verbatim (from svq.hilbert, svq.formulas, svq.dynamics, svq.scenario
and svq.runner, in that order) as the oracle of tests/test_value_types.py,
except Report, which is frozen, takes every field, and holds p_one as a
class constant, as svq's Report does since a run builds it once. Every
class keeps its name, so a repr compares byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from svq.errors import DimensionMismatch
from svq.hilbert import DEFAULT_TOL, _checked_squares, _frozen_complex_array, inner
from svq.ledger import Ledger


def _unit_amplitudes(arr: np.ndarray) -> np.ndarray:
    """arr, once it is checked to hold the amplitudes of a state: svq.hilbert's
    check as it was when these classes were declared, before it returned |arr|^2."""
    _checked_squares(arr)
    return arr


@dataclass(frozen=True, eq=False)
class StateVector:
    """A unit vector of complex amplitudes.

    Physical states are rays: the global phase is kept exactly as given and
    state equality should be tested with same_ray, never componentwise.
    Direct construction requires amplitudes that are already normalized;
    use make_state to rescale arbitrary input.
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "amplitudes", _unit_amplitudes(_frozen_complex_array(self.amplitudes)))

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def same_ray(self, other: "StateVector", tol: float = DEFAULT_TOL) -> bool:
        """True when the two states differ by at most a global phase."""
        if self.dim != other.dim:
            return False
        return abs(abs(inner(self, other)) - 1.0) <= tol

    def __repr__(self) -> str:
        return f"StateVector({self.amplitudes.tolist()!r})"


@dataclass(frozen=True, eq=False)
class Operator:
    """A square complex matrix, optionally flagged as unitary.

    The flag is trusted at construction time; is_unitary is the check to
    set it by, and apply_operator re-checks norm preservation, to within
    what is_unitary allows, on every application of a flagged operator.
    """

    entries: np.ndarray
    unitary: bool = False

    def __post_init__(self):
        arr = _frozen_complex_array(self.entries)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimensionMismatch(f"operator entries must be square, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("operator entries must be finite")
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def __repr__(self) -> str:
        return f"Operator(dim={self.dim}, unitary={self.unitary})"


@dataclass(frozen=True)
class Atom:
    name: str


@dataclass(frozen=True)
class Not:
    operand: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class FeasibilityReport:
    """Verdict on whether one unitary could clone both members of a pair."""

    feasible: bool
    witness_overlap: float
    witness_overlap_squared: float
    detail: str


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


@dataclass(frozen=True)
class Report:
    """Everything a run produced, in emission-ready data: plain lists and
    dicts, except that each step's rows and the violations are _Rows views
    that iterate, index, take len and compare equal as the lists of dicts
    they stand for, and build each dict only when read."""

    seed: int
    tolerance: float
    steps: list[dict]
    valuations: list[dict]
    feasibility: list[dict]
    violations: Sequence[dict]
    checks_run: int
    ledger: Ledger
    p_one: ClassVar[float] = 0.5

    @property
    def has_violations(self) -> bool:
        return self.checks_run > 0 and bool(self.violations)
