"""Finite-dimensional complex Hilbert space primitives.

States are unit vectors over C^n and operators are dense n-by-n complex
matrices. Every object is an immutable value; all operations are pure
functions returning new objects, so everything here is safe to share
across threads.
"""

from __future__ import annotations

import math
from numbers import Real

import numpy as np

from ._value import Value
from .errors import DimensionMismatch, DimensionTooSmall, NormLost, ZeroVector

#: The tolerance every tol parameter defaults to, and the one the class
#: invariants (unit-norm states, subspace bases and projectors) are checked
#: against. It is measured against unit-norm quantities, so 1e-9 leaves
#: several decimal digits of double-precision headroom.
DEFAULT_TOL = 1e-9
_SMALL_SQUARES = 1e-290  # a largest part p with p * p below it has squares that may lose bits or underflow


def is_valid_tol(tol) -> bool:
    """True for a usable tolerance: a real number in (0, 1), compared exactly (so finite)."""
    return isinstance(tol, Real) and 0 < tol < 1


def _frozen_complex_array(data) -> np.ndarray:
    arr = np.array(data, dtype=np.complex128)
    arr.setflags(write=False)
    return arr


def _largest_part(arr: np.ndarray) -> float:
    """The largest |re| or |im| in arr, nan or inf if one is not finite; arr's last axis must be contiguous."""
    return float(np.abs(arr.view(np.float64)).max())


def _squared_norm(arr: np.ndarray) -> float:
    """re·re + im·im: the sum, in the order, whose square root np.linalg.norm takes."""
    re, im = arr.real, arr.imag
    return float(re.dot(re)) + float(im.dot(im))


def _divided(arr: np.ndarray, top: float) -> np.ndarray:
    """arr over its largest part top, part by part on the float64 view if top is small: numpy's complex divide takes 1 / top."""
    return (arr.view(np.float64) / top).view(np.complex128) if top * top < _SMALL_SQUARES else arr / top


def _checked_squares(arr: np.ndarray) -> float:
    """|arr|^2, once arr is checked to hold the amplitudes of a state."""
    if arr.ndim != 1:
        raise DimensionMismatch(f"amplitudes must be one-dimensional, got shape {arr.shape}")
    if arr.shape[0] < 2:
        raise DimensionTooSmall(f"a state needs dimension >= 2, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("amplitudes must be finite")
    squares = _squared_norm(arr)
    if abs(math.sqrt(squares) - 1.0) > DEFAULT_TOL:
        raise NormLost(f"state norm {math.sqrt(squares)!r} deviates from 1 beyond tolerance")
    return squares


def _adopt(arr: np.ndarray) -> "StateVector":
    """A state of arr, a new flat array of two or more amplitudes that nothing else holds,
    without the copy the constructor makes and, when its norm is 1, without the other checks."""
    arr.setflags(write=False)
    squares = _squared_norm(arr)
    if not abs(math.sqrt(squares) - 1.0) <= DEFAULT_TOL:  # also when an amplitude is nan or inf
        _checked_squares(arr)  # raises the constructor's error
    state = object.__new__(StateVector)
    object.__setattr__(state, "amplitudes", arr)
    object.__setattr__(state, "_squares", squares)
    return state


class StateVector(Value):
    """A unit vector of complex amplitudes.

    Physical states are rays: the global phase is kept exactly as given and
    state equality should be tested with same_ray, never componentwise.
    Direct construction requires amplitudes that are already normalized;
    use make_state to rescale arbitrary input.
    """

    amplitudes: np.ndarray
    __eq__, __hash__ = object.__eq__, object.__hash__  # states compare by identity

    def __init__(self, amplitudes):
        arr = _frozen_complex_array(amplitudes)
        object.__setattr__(self, "_squares", _checked_squares(arr))  # |psi|^2, as re·re + im·im
        object.__setattr__(self, "amplitudes", arr)

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


class Operator(Value):
    """A square complex matrix, optionally flagged as unitary.

    The flag is trusted at construction time; is_unitary is the check to
    set it by, and apply_operator re-checks norm preservation, to within
    what is_unitary allows, on every application of a flagged operator.
    """

    entries: np.ndarray
    unitary: bool
    __eq__, __hash__ = object.__eq__, object.__hash__  # operators compare by identity

    def __init__(self, entries, unitary: bool = False):
        arr = _frozen_complex_array(entries)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimensionMismatch(f"operator entries must be square, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("operator entries must be finite")
        object.__setattr__(self, "entries", arr)
        object.__setattr__(self, "unitary", unitary)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def __repr__(self) -> str:
        return f"Operator(dim={self.dim}, unitary={self.unitary})"


def make_state(components, tol: float = DEFAULT_TOL) -> StateVector:
    """Rescale a complex sequence to a unit state, preserving global phase.

    Raises ZeroVector when no component has magnitude above tol,
    DimensionTooSmall for fewer than two components and ValueError for a
    non-finite one.
    """
    arr = np.asarray(components, dtype=np.complex128, order="C")
    if arr.ndim != 1:
        raise DimensionMismatch(f"expected a flat sequence, got shape {arr.shape}")
    if arr.shape[0] < 2:
        raise DimensionTooSmall(f"a state needs dimension >= 2, got {arr.shape[0]}")
    top = _largest_part(arr)
    if not math.isfinite(top):
        raise ValueError("components must be finite")
    if top <= tol and float(np.abs(arr).max()) <= tol:  # |z| is at least z's largest part
        raise ZeroVector("every component is below tolerance; the zero vector is not a state")
    squares = top * top
    if squares * arr.shape[0] > 1e300:  # the sum of squares may overflow
        with np.errstate(over="ignore"):
            if _squared_norm(arr) == math.inf:
                arr = arr / top  # bring the largest part to 1 first
    elif squares < _SMALL_SQUARES:
        arr = _divided(arr, top)
    return _adopt(arr / math.sqrt(_squared_norm(arr)))


def inner(a: StateVector, b: StateVector) -> complex:
    """Inner product, conjugate-linear in the first argument."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"inner product needs equal dims, got {a.dim} and {b.dim}")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Tensor product of two states.

    Component (i, j) of the pair lands at flat index i * b.dim + j, i.e. the
    first factor is the major index, as in numpy.kron.
    """
    return _adopt(np.outer(a.amplitudes, b.amplitudes).reshape(-1))


def apply_operator(M: Operator, v: StateVector, tol: float = DEFAULT_TOL) -> StateVector:
    """Apply a matrix to a state.

    A flagged-unitary operator may move the squared norm by at most
    dim * tol, as much as is_unitary(M, tol) allows, else NormLost is
    raised; its output is renormalized. Unflagged operators have their
    output re-validated through make_state, which renormalizes and rejects
    annihilated vectors.
    """
    if M.dim != v.dim:
        raise DimensionMismatch(f"operator dim {M.dim} does not match state dim {v.dim}")
    with np.errstate(over="ignore", invalid="ignore"):
        out = M.entries @ v.amplitudes
    if M.unitary:
        norm = math.sqrt(_squared_norm(out))
        # |v^dagger (M^dagger M - I) v| < dim * tol when every entry is below tol
        if not 0 < norm or abs(norm * norm - 1.0) > M.dim * tol:
            raise NormLost(f"operator flagged unitary changed the norm to {norm!r}")
        if abs(norm - 1.0) > DEFAULT_TOL:
            # within is_unitary's allowance, but past the state invariant
            out = out / norm
        return _adopt(out)
    return make_state(out, tol)


def is_unitary(M: Operator, tol: float = DEFAULT_TOL) -> bool:
    """True iff the max-abs deviation of M†M from the identity is below tol.

    Entries whose products overflow give an infinite or NaN defect, which
    is not below tol, so such a matrix is reported not unitary.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        gram = M.entries.conj().T @ M.entries
        defect = np.max(np.abs(gram - np.eye(M.dim)))
    return float(defect) < tol


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
    z = np.asarray(gen.standard_normal(dim), np.complex128)
    z.imag = gen.standard_normal(dim)
    return make_state(z)
