"""The lattice primitives as they were before membership was brought down to
its BLAS products and the constructions to the arrays they return.

membership, _set_basis, _from_basis and orthocomplement are kept verbatim
from svq.lattice, as are meet and join, whose bodies did not change but
build their results through _from_basis. They are the differential oracle
of tests/test_lattice_oracle.py.
"""

from __future__ import annotations

import math

import numpy as np

from svq.errors import DimensionMismatch
from svq.hilbert import DEFAULT_TOL, StateVector
from svq.lattice import _EPS, Subspace, TruthValue, _svd


def _set_basis(sub: Subspace, basis: np.ndarray) -> None:
    basis = np.ascontiguousarray(basis, dtype=np.complex128)
    adjoint = np.ascontiguousarray(basis.conj().T)
    basis.setflags(write=False)
    adjoint.setflags(write=False)
    dim, rank = basis.shape
    # The rounding part of membership's margin, which depends on d and k alone.
    rounding = 16 * (dim + rank + 4) * math.sqrt(rank + 1) * _EPS
    sub.__dict__.update(basis=basis, _adjoint=adjoint, rank=rank, _rounding=rounding)


def _from_basis(basis: np.ndarray) -> Subspace:
    """The subspace spanned by orthonormal columns, checked in O(d k^2)."""
    sub = object.__new__(Subspace)
    _set_basis(sub, basis)
    gram = sub._adjoint @ sub.basis
    if np.max(np.abs(gram - np.eye(sub.rank)), initial=0.0) > DEFAULT_TOL:
        raise ValueError("basis columns are not orthonormal within tolerance")
    return sub


def membership(state: StateVector, prop: Subspace, tol: float = DEFAULT_TOL) -> TruthValue:
    """Three-valued membership of a state in a subspace.

    Let c = Q^dagger psi be the coordinates of the state's projection in
    the subspace's basis Q, s the norm of c and r the norm of the rejected
    part psi - Q c. The state is a member (TRUE) when r < tol, a non-member
    (FALSE) when s < tol, and otherwise only a component of a member, which
    leaves the proposition without a truth value (GAP). r is computed from
    the rejected vector itself: sqrt(1 - s^2) cannot resolve r below about
    1e-8. The verdict is invariant under global phase and, because states
    are normalized, under rescaling.

    The rejected vector costs a second d-by-k product, so it is formed only
    when the verdict could be TRUE. Let e be the rounding error of the
    computed c = Q^dagger psi + e. In exact arithmetic

        |psi - Q c|^2 = |psi|^2 - s^2 + c^dagger (Q^dagger Q - I) c + 2 Re c^dagger e,

    and _from_basis keeps every entry of Q^dagger Q - I within DEFAULT_TOL
    (the eigenvectors that Subspace(projector) keeps are orthonormal to
    rounding), so the third term is at most k DEFAULT_TOL s^2 in size. For
    a unit psi the last term and the rounding of |psi|^2 and s^2 sum to
    less than rho / 2, where rho = 8 (d + k + 4) sqrt(k + 1) eps, and the r
    computed from the rejected vector (a second product, a subtraction and
    a norm) is within phi = rho / 4 of |psi - Q c|. Since (tol + phi)^2 is
    below tol^2 + (2 tol + 1) phi, the computed r is at least tol whenever

        |psi|^2 - s^2 > tol^2 + delta,   delta = k DEFAULT_TOL s^2 + (1 + tol) rho,

    and then the verdict is read from s alone. The code takes rho twice as
    large. Nearer the boundary r is computed as before, so every verdict
    is the one that computing r always gives. The cost is one d-by-k
    product, and a second one only within delta of TRUE.
    """
    if state.dim != prop.dim:
        raise DimensionMismatch(f"state dim {state.dim} does not match subspace dim {prop.dim}")
    psi = state.amplitudes
    coords = prop._adjoint @ psi
    # vdot gives the squared norms with less call overhead than linalg.norm,
    # which counts at the small dimensions of most scenarios.
    s2 = float(np.vdot(coords, coords).real)
    delta = prop.rank * DEFAULT_TOL * s2 + (1.0 + tol) * prop._rounding
    if float(np.vdot(psi, psi).real) - s2 <= tol * tol + delta:
        rejected = psi - prop.basis @ coords
        if math.sqrt(np.vdot(rejected, rejected).real) < tol:
            return TruthValue.TRUE
    if math.sqrt(s2) < tol:
        return TruthValue.FALSE
    return TruthValue.GAP


def orthocomplement(prop: Subspace) -> Subspace:
    """The orthogonal complement.

    A QR writes the basis as H_1 ... H_k R, with Householder reflectors
    H_i = I - tau_i v_i v_i^dagger. The trailing d - k columns of the
    unitary H_1 ... H_k are orthonormal and orthogonal to every column of
    the basis. In the compact WY form H_1 ... H_k = I - V T V^dagger
    (Schreiber and Van Loan), with T upper triangular from the recurrence
    of LAPACK's larft, those columns are E - V (T V[k:]^dagger), where E
    holds the trailing columns of the identity. The leading k columns and
    the rest of a complete QR's d-by-d factor are never formed. The cost
    is O(d k^2) for V^dagger V, O(k^3) for T and O(d (d - k) k) for the
    result, whose size is d (d - k).
    """
    dim, rank = prop.dim, prop.rank
    raw, tau = np.linalg.qr(prop.basis, mode="raw")
    v = np.tril(raw.T, -1)  # raw holds the reflectors transposed
    v[np.arange(rank), np.arange(rank)] = 1.0
    gram = v.conj().T @ v
    # The recurrence needs no division: tau_i = 0 (a column that is already
    # a coordinate axis) gives a zero row and column of T, where the closed
    # form T^-1 = triu(V^dagger V, 1) + diag(1 / tau) would divide by zero.
    t = np.zeros((rank, rank), dtype=np.complex128)
    for i in range(rank):
        t[:i, i] = -tau[i] * (t[:i, :i] @ gram[:i, i])
        t[i, i] = tau[i]
    trailing = -(v @ (t @ v[rank:].conj().T))
    trailing[rank:] += np.eye(dim - rank)
    return _from_basis(trailing)


def meet(a: Subspace, b: Subspace, tol: float = DEFAULT_TOL) -> Subspace:
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
    u, cosines = _svd(a._adjoint @ b.basis)
    return _from_basis(a.basis @ u[:, 1.0 - cosines < tol])


def join(a: Subspace, b: Subspace, tol: float = DEFAULT_TOL) -> Subspace:
    """The closed span of the union of two subspaces.

    The join is a's basis followed by the directions of b that leave a. b's
    basis is projected out of a twice (once more corrects the rounding of
    the first pass: "twice is enough"), giving R = (I - Pa) Qb, whose
    singular values are the sines of the principal angles between a and b.
    The rank rule is the one of a thin SVD of the stacked bases [Qa Qb],
    which is that of a span of the projectors' columns, since both
    matrices times their adjoints give Pa + Pb. Its singular values are
    sqrt(1 + cos(theta)), 1 for unpaired directions, and
    sqrt(1 - cos(theta)) = sin(theta) / sqrt(1 + cos(theta)); the last are
    kept when above tol times the largest, sqrt(1 + cos(theta_min)). The
    kept left singular vectors of R are projected out of a once more and
    orthonormalized by a thin QR, since rounding divided by a small sine
    tilts them towards a. The work is a thin SVD of R, d by kb rather than
    d by ka + kb, and O(d ka kb) products. A rank-0 operand gives the
    other operand.
    """
    if a.dim != b.dim:
        raise DimensionMismatch(f"join needs equal dims, got {a.dim} and {b.dim}")
    if b.rank == 0:
        return a
    if a.rank == 0:
        return b
    qa, qa_adjoint = a.basis, a._adjoint
    rest = b.basis - qa @ (qa_adjoint @ b.basis)
    rest -= qa @ (qa_adjoint @ rest)
    u, sines = _svd(rest)
    stretch = np.sqrt(1.0 + np.sqrt(np.maximum(1.0 - sines * sines, 0.0)))
    new = u[:, sines / stretch > tol * stretch.max()]
    new -= qa @ (qa_adjoint @ new)
    new, _ = np.linalg.qr(new)
    return _from_basis(np.hstack([qa, new]))
