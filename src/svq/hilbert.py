"""Finite-dimensional complex Hilbert space primitives.

States are unit vectors over C^n and operators are dense n-by-n complex
matrices. Every object is an immutable value; all operations are pure
functions returning new objects, so everything here is safe to share
across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import resolve_tol
from .errors import DimensionMismatch, DimensionTooSmall, NormLost, ZeroVector


def _frozen_complex_array(data) -> np.ndarray:
    arr = np.array(data, dtype=np.complex128)
    arr.setflags(write=False)
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
        arr = _frozen_complex_array(self.amplitudes)
        if arr.ndim != 1:
            raise DimensionMismatch(f"amplitudes must be one-dimensional, got shape {arr.shape}")
        if arr.shape[0] < 2:
            raise DimensionTooSmall(f"a state needs dimension >= 2, got {arr.shape[0]}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("amplitudes must be finite")
        norm = float(np.linalg.norm(arr))
        if abs(norm - 1.0) > resolve_tol(None):
            raise NormLost(f"state norm {norm!r} deviates from 1 beyond tolerance")
        object.__setattr__(self, "amplitudes", arr)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def same_ray(self, other: "StateVector", tol: float | None = None) -> bool:
        """True when the two states differ by at most a global phase."""
        if self.dim != other.dim:
            return False
        return abs(abs(inner(self, other)) - 1.0) <= resolve_tol(tol)

    def __repr__(self) -> str:
        return f"StateVector({self.amplitudes.tolist()!r})"


@dataclass(frozen=True, eq=False)
class Operator:
    """A square complex matrix, optionally flagged as unitary.

    The flag is trusted at construction time; make_operator is the
    validating factory, and apply_operator re-checks norm preservation on
    every application of a flagged operator.
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


def identity(dim: int) -> Operator:
    return Operator(np.eye(dim, dtype=np.complex128), unitary=True)


def make_state(components) -> StateVector:
    """Rescale a complex sequence to a unit state, preserving global phase.

    Raises ZeroVector when no component has magnitude above tolerance and
    DimensionTooSmall for fewer than two components.
    """
    arr = np.asarray(components, dtype=np.complex128)
    if arr.ndim != 1:
        raise DimensionMismatch(f"expected a flat sequence, got shape {arr.shape}")
    if arr.shape[0] < 2:
        raise DimensionTooSmall(f"a state needs dimension >= 2, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("components must be finite")
    if float(np.max(np.abs(arr))) <= resolve_tol(None):
        raise ZeroVector("every component is below tolerance; the zero vector is not a state")
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(arr)
    if not np.isfinite(norm):
        # The sum of squares overflowed: bring the largest part to 1 first.
        arr = arr / np.max(np.maximum(np.abs(arr.real), np.abs(arr.imag)))
        norm = np.linalg.norm(arr)
    return StateVector(arr / norm)


def make_operator(entries, unitary: bool = False, tol: float | None = None) -> Operator:
    """Validating operator factory; checks the unitarity flag when set."""
    op = Operator(entries)
    if unitary and not is_unitary(op, resolve_tol(tol)):
        raise NormLost("matrix flagged unitary fails the adjoint-product identity")
    return Operator(op.entries, unitary=unitary)


def inner(a: StateVector, b: StateVector) -> complex:
    """Inner product, conjugate-linear in the first argument."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"inner product needs equal dims, got {a.dim} and {b.dim}")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Tensor product of two states.

    Component (i, j) of the pair lands at flat index i * b.dim + j, i.e. the
    first factor is the major index. This ordering is a convention of this
    library and is relied on by the product-state helpers.
    """
    return StateVector(np.kron(a.amplitudes, b.amplitudes))


def apply_operator(M: Operator, v: StateVector, tol: float | None = None) -> StateVector:
    """Apply a matrix to a state.

    Flagged-unitary operators must preserve the norm to within tolerance,
    else NormLost is raised. Unflagged operators have their output
    re-validated through make_state, which renormalizes and rejects
    annihilated vectors.
    """
    if M.dim != v.dim:
        raise DimensionMismatch(f"operator dim {M.dim} does not match state dim {v.dim}")
    with np.errstate(over="ignore", invalid="ignore"):
        out = M.entries @ v.amplitudes
    if M.unitary:
        norm = float(np.linalg.norm(out))
        if abs(norm - 1.0) > resolve_tol(tol):
            raise NormLost(f"operator flagged unitary changed the norm to {norm!r}")
        if abs(norm - 1.0) > resolve_tol(None):
            # caller accepted a looser tolerance than the state invariant
            out = out / norm
        return StateVector(out)
    return make_state(out)


def is_unitary(M: Operator, tol: float | None = None) -> bool:
    """True iff the max-abs deviation of M†M from the identity is below tol.

    Entries whose products overflow give an infinite or NaN defect, which
    is not below tol, so such a matrix is reported not unitary.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        gram = M.entries.conj().T @ M.entries
        defect = np.max(np.abs(gram - np.eye(M.dim)))
    return float(defect) < resolve_tol(tol)


def haar_unitary(dim: int, rng=None) -> Operator:
    """Draw a unitary from the uniform (Haar) distribution.

    QR of a standard complex normal matrix, with the R diagonal phases
    pushed back into Q so the draw is unique and exactly Haar.
    """
    gen = np.random.default_rng(rng)
    z = gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    return Operator(q, unitary=True)


def haar_state(dim: int, rng=None) -> StateVector:
    """Draw a unit vector from the unitarily invariant measure."""
    gen = np.random.default_rng(rng)
    z = gen.standard_normal(dim) + 1j * gen.standard_normal(dim)
    return make_state(z)
