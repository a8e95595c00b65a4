"""Closed subspaces as propositions and the three-valued membership predicate.

A proposition about the system is identified with a closed linear subspace,
stored here as an orthonormal basis of it. A state either lies in the
subspace (the proposition is true), is orthogonal to it (false), or merely
overlaps it, in which case the proposition carries no truth value at all.
That third outcome is the truth-value gap that the rest of the package is
built around.

Subspaces, ordered by inclusion, with the orthocomplement, meet and join
below, form the lattice of Birkhoff and von Neumann. Holding a rank-k
subspace of C^d as a d-by-k basis keeps membership at O(dk) and the
lattice operations at O(dk^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .config import resolve_tol
from .errors import DimensionMismatch, EmptySpan
from .hilbert import StateVector


class TruthValue(Enum):
    """Three-valued truth: determinate 1, determinate 0, or the gap 0/0."""

    TRUE = "1"
    FALSE = "0"
    GAP = "0/0"

    def __str__(self) -> str:
        return self.value

    @property
    def is_determinate(self) -> bool:
        return self is not TruthValue.GAP

    @classmethod
    def from_bool(cls, b: bool) -> "TruthValue":
        return cls.TRUE if b else cls.FALSE

    def to_bool(self) -> bool:
        if self is TruthValue.GAP:
            raise ValueError("a gap has no Boolean value")
        return self is TruthValue.TRUE


class Subspace:
    """A closed linear subspace, stored as an orthonormal basis of it.

    ``basis`` is a d-by-k matrix whose orthonormal columns span the
    subspace, k being its ``rank``. Its adjoint is kept beside it as a
    contiguous array, since membership applies it on every call. The
    orthogonal projector costs O(d^2 k) to form, so it is built only when
    ``projector`` is first read.

    ``Subspace(projector)`` validates the projector invariants (Hermitian,
    idempotent, integer trace) and takes the basis from the eigenvectors.
    The lattice operations build their results from bases and only check
    that the columns are orthonormal, which is O(d k^2). Instances are
    immutable.
    """

    def __init__(self, projector):
        arr = np.array(projector, dtype=np.complex128)
        tol = resolve_tol(None)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimensionMismatch(f"projector must be square, got shape {arr.shape}")
        if np.max(np.abs(arr - arr.conj().T), initial=0.0) > tol:
            raise ValueError("projector is not Hermitian within tolerance")
        if np.max(np.abs(arr @ arr - arr), initial=0.0) > tol:
            raise ValueError("projector is not idempotent within tolerance")
        trace = float(np.trace(arr).real)
        rank = round(trace)
        if abs(trace - rank) > tol:
            raise ValueError(f"projector trace {trace!r} is not close to an integer")
        _, eigenvectors = np.linalg.eigh(arr)
        arr.setflags(write=False)
        self.__dict__["projector"] = arr
        _set_basis(self, eigenvectors[:, arr.shape[0] - rank:])

    def __setattr__(self, name, value):
        raise AttributeError(f"Subspace is immutable; cannot set {name!r}")

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @cached_property
    def projector(self) -> np.ndarray:
        """The orthogonal projector Q Q^dagger, formed on first use."""
        arr = self.basis @ self._adjoint
        arr.setflags(write=False)
        return arr

    def contains(self, other: "Subspace", tol: float | None = None) -> bool:
        """Subspace order: other is a subspace of self.

        True when every basis vector of other is left unchanged, within
        tol, by the projection onto self.
        """
        if self.dim != other.dim:
            raise DimensionMismatch("subspace order needs equal dims")
        residual = other.basis - self.basis @ (self._adjoint @ other.basis)
        return float(np.max(np.abs(residual), initial=0.0)) <= resolve_tol(tol)

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, rank={self.rank})"


def _set_basis(sub: Subspace, basis: np.ndarray) -> None:
    basis = np.ascontiguousarray(basis, dtype=np.complex128)
    adjoint = np.ascontiguousarray(basis.conj().T)
    basis.setflags(write=False)
    adjoint.setflags(write=False)
    sub.__dict__.update(basis=basis, _adjoint=adjoint, rank=basis.shape[1])


def _from_basis(basis: np.ndarray) -> Subspace:
    """The subspace spanned by orthonormal columns, checked in O(d k^2)."""
    sub = object.__new__(Subspace)
    _set_basis(sub, basis)
    gram = sub._adjoint @ sub.basis
    if np.max(np.abs(gram - np.eye(sub.rank)), initial=0.0) > resolve_tol(None):
        raise ValueError("basis columns are not orthonormal within tolerance")
    return sub


@dataclass(frozen=True, eq=False)
class Proposition:
    """A named experimental proposition backed by a subspace."""

    id: str
    subspace: Subspace


def zero_subspace(dim: int) -> Subspace:
    """The trivial subspace {0}; false of every state."""
    return _from_basis(np.zeros((dim, 0)))


def full_space(dim: int) -> Subspace:
    """The whole space; true of every state."""
    return _from_basis(np.eye(dim))


def span_subspace(vectors, dim: int, tol: float | None = None) -> Subspace:
    """The closed span of the given vectors.

    The spanning set is orthonormalized through a thin SVD, so any two
    spanning sets of the same space give the same subspace up to numerical
    noise. Directions whose relative singular weight falls below tol are
    treated as noise rather than as extra dimensions.
    """
    tol = resolve_tol(tol)
    cols = []
    for v in vectors:
        arr = np.asarray(v, dtype=np.complex128).reshape(-1)
        if arr.shape[0] != dim:
            raise DimensionMismatch(f"spanning vector has length {arr.shape[0]}, expected {dim}")
        cols.append(arr)
    if not cols:
        raise EmptySpan("no spanning vectors given")
    basis_matrix = np.column_stack(cols)
    if float(np.max(np.abs(basis_matrix))) <= tol:
        raise EmptySpan("every spanning vector is numerically zero")
    u, s, _ = np.linalg.svd(basis_matrix, full_matrices=False)
    return _from_basis(u[:, : int(np.sum(s > tol * s[0]))])


def membership(state: StateVector, prop: Subspace, tol: float | None = None) -> TruthValue:
    """Three-valued membership of a state in a subspace.

    Let c be the coordinates of the state's projection in the subspace's
    basis, s the norm of c and r the norm of the rejected part. The state
    is a member (TRUE) when r < tol, a non-member (FALSE) when s < tol, and
    otherwise only a component of a member, which leaves the proposition
    without a truth value (GAP). r is computed from the rejected vector
    itself: sqrt(1 - s^2) cannot resolve r below about 1e-8. The verdict
    is invariant under global phase and, because states are normalized,
    under rescaling. The cost is O(d k).
    """
    if state.dim != prop.dim:
        raise DimensionMismatch(f"state dim {state.dim} does not match subspace dim {prop.dim}")
    tol = resolve_tol(tol)
    psi = state.amplitudes
    coords = prop._adjoint @ psi
    rejected = psi - prop.basis @ coords
    # vdot gives the squared norms with less call overhead than linalg.norm,
    # which counts at the small dimensions of most scenarios.
    r = math.sqrt(np.vdot(rejected, rejected).real)
    s = math.sqrt(np.vdot(coords, coords).real)
    if r < tol:
        return TruthValue.TRUE
    if s < tol:
        return TruthValue.FALSE
    return TruthValue.GAP


def orthocomplement(prop: Subspace) -> Subspace:
    """The orthogonal complement.

    The trailing columns of a complete QR of the basis are orthonormal and
    orthogonal to every column of the basis.
    """
    q, _ = np.linalg.qr(prop.basis, mode="complete")
    return _from_basis(q[:, prop.rank:])


def meet(a: Subspace, b: Subspace, tol: float | None = None) -> Subspace:
    """The intersection of two subspaces, from their principal angles.

    The singular values of Qa^dagger Qb are the cosines of the principal
    angles, and the matching columns of Qa U are the principal vectors in
    a (Bjorck and Golub). A vector lies in both subspaces exactly when its
    angle is 0. Here a direction counts as shared when 1 - cos(theta) < tol,
    and 1 - cos(theta) are the smallest eigenvalues of (I - Pa) + (I - Pb),
    so the threshold is that of a kernel of the summed complements. The
    work is one k-by-k SVD and one d-by-k product.
    """
    if a.dim != b.dim:
        raise DimensionMismatch(f"meet needs equal dims, got {a.dim} and {b.dim}")
    tol = resolve_tol(tol)
    u, cosines, _ = np.linalg.svd(a._adjoint @ b.basis, full_matrices=False)
    return _from_basis(a.basis @ u[:, 1.0 - cosines < tol])


def join(a: Subspace, b: Subspace, tol: float | None = None) -> Subspace:
    """The closed span of the union of two subspaces.

    A thin SVD of the stacked bases [Qa Qb]. Its singular values are the
    nonzero ones of the stacked projectors [Pa Pb], since both matrices
    times their adjoints give Pa + Pb, so the rank rule is the one of a
    span of the projectors' columns.
    """
    if a.dim != b.dim:
        raise DimensionMismatch(f"join needs equal dims, got {a.dim} and {b.dim}")
    tol = resolve_tol(tol)
    u, s, _ = np.linalg.svd(np.hstack([a.basis, b.basis]), full_matrices=False)
    if s.size == 0:
        return zero_subspace(a.dim)
    return _from_basis(u[:, : int(np.sum(s > tol * s[0]))])
