"""Process-wide numeric configuration."""

import math
from dataclasses import dataclass


@dataclass
class Config:
    """Shared knobs for every module.

    tol is the absolute tolerance for unit-norm checks, subspace invariants
    (orthonormal bases, and projectors given to Subspace) and membership
    residuals. It is measured against unit-norm quantities, so the default
    1e-9 leaves several decimal digits of double-precision headroom. gap_cap bounds how many gap atoms a formula may carry before
    supervaluation refuses to evaluate it: the single packed pass holds
    2^gap_cap bits per live value.
    """

    tol: float = 1e-9
    gap_cap: int = 20


#: The one global configuration record. Mutate fields to change defaults.
config = Config()


def is_valid_tol(tol: float) -> bool:
    """True for a usable tolerance: a finite number in (0, 1)."""
    return math.isfinite(tol) and 0 < tol < 1


def resolve_tol(tol: float | None) -> float:
    """Return the explicit tolerance, or the global default when None."""
    return config.tol if tol is None else float(tol)
