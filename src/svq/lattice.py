"""Closed subspaces as propositions and the three-valued membership predicate.

A proposition about the system is identified with a closed linear subspace,
stored here as an orthonormal basis of it. A state either lies in the
subspace (the proposition is true), is orthogonal to it (false), or merely
overlaps it, in which case the proposition carries no truth value at all.
That third outcome is the truth-value gap that the rest of the package is
built around.

Subspaces, ordered by inclusion, with the orthocomplement, meet and join
below, form the lattice of Birkhoff and von Neumann. Holding a rank-k
subspace of C^d as a d-by-k basis keeps membership at one or two d-by-k
products, spans, meet and join at O(dk^2), and the orthocomplement at
the O(d(d-k)k) that writing its basis takes, its check too for small k.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, EmptySpan
from .hilbert import DEFAULT_TOL, StateVector, _divided, _largest_part

_EPS = float(np.finfo(np.float64).eps)


class TruthValue(Enum):
    """Three-valued truth: determinate 1, determinate 0, or the gap 0/0."""

    TRUE = "1"
    FALSE = "0"
    GAP = "0/0"

    def __str__(self) -> str:
        return self._value_

    @property
    def is_determinate(self) -> bool:
        return self is not TruthValue.GAP


class Subspace:
    """A closed linear subspace, stored as an orthonormal basis of it.

    ``basis`` is a d-by-k matrix whose orthonormal columns span the
    subspace, k being its ``rank``. Its adjoint is kept beside it as a
    contiguous array, since membership applies it on every call. The
    orthogonal projector costs O(d^2 k) to form, so it is built only when
    ``projector`` is first read.

    ``Subspace(projector)`` validates the projector invariants (finite,
    Hermitian, idempotent, integer trace) and takes the basis from the
    eigenvectors. The lattice operations build their results from bases
    and check that the columns are orthonormal in O(d k^2), or, for the
    orthocomplement, by a k-by-k identity where it can (see there). Instances are immutable.
    """

    def __init__(self, projector):
        arr = np.array(projector, dtype=np.complex128)
        tol = DEFAULT_TOL
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimensionMismatch(f"projector must be square, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("projector entries must be finite")
        # Huge entries may overflow to inf or nan here; "not <=" rejects both.
        with np.errstate(over="ignore", invalid="ignore"):
            if not np.max(np.abs(arr - arr.conj().T), initial=0.0) <= tol:
                raise ValueError("projector is not Hermitian within tolerance")
            if not np.max(np.abs(arr @ arr - arr), initial=0.0) <= tol:
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

    def contains(self, other: "Subspace", tol: float = DEFAULT_TOL) -> bool:
        """Subspace order: other is a subspace of self.

        True when every basis vector of other is left unchanged, within
        tol, by the projection onto self.
        """
        if self.dim != other.dim:
            raise DimensionMismatch("subspace order needs equal dims")
        residual = self.basis @ (self._adjoint @ other.basis)
        np.subtract(other.basis, residual, out=residual)
        return float(np.max(np.abs(residual), initial=0.0)) <= tol

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, rank={self.rank})"


def _svd(matrix: np.ndarray, vectors: bool = True):
    """The left singular vectors and singular values of a thin SVD, or only the values.

    LAPACK's gesdd can fail to converge on finite, well-scaled matrices
    with clusters of tiny singular values. The SVD of the adjoint, whose
    right singular vectors are the left ones sought, converges on them.
    """
    try:
        out = np.linalg.svd(matrix, full_matrices=False, compute_uv=vectors)
        return (out.U, out.S) if vectors else out
    except np.linalg.LinAlgError:
        out = np.linalg.svd(matrix.conj().T, full_matrices=False, compute_uv=vectors)
        return (out.Vh.conj().T, out.S) if vectors else out


def _set_basis(sub: Subspace, basis: np.ndarray) -> Subspace:
    basis = np.ascontiguousarray(basis, dtype=np.complex128)
    adjoint = np.conjugate(basis.T, out=np.empty(basis.shape[::-1], np.complex128))
    basis.setflags(write=False)
    adjoint.setflags(write=False)
    dim, rank = basis.shape
    # The rounding part of membership's margin, which depends on d and k alone.
    rounding = 16 * (dim + rank + 4) * math.sqrt(rank + 1) * _EPS
    sub.__dict__.update(basis=basis, _adjoint=adjoint, rank=rank, _rounding=rounding)
    return sub


def _from_basis(basis: np.ndarray) -> Subspace:
    """The subspace spanned by orthonormal columns, checked in O(d k^2)."""
    sub = _set_basis(object.__new__(Subspace), basis)
    gram = sub._adjoint @ sub.basis
    gram.reshape(-1)[:: sub.rank + 1] -= 1.0  # Q^dagger Q - I, on the diagonal in place
    if np.max(np.abs(gram), initial=0.0) > DEFAULT_TOL:
        raise ValueError("basis columns are not orthonormal within tolerance")
    return sub


def zero_subspace(dim: int) -> Subspace:
    """The trivial subspace {0}; false of every state."""
    return _from_basis(np.zeros((dim, 0)))


def span_subspace(vectors, dim: int, tol: float = DEFAULT_TOL) -> Subspace:
    """The closed span of the given vectors.

    Directions whose singular value falls below tol times the largest count
    as noise. A thin QR, A = QR, gives the singular values from R: if all
    are kept Q is the basis, else Q times R's leading left singular vectors,
    computed at once when a diagonal entry of R is within tol of the largest
    (for k <= d, s_min <= min |r_jj| and max |r_jj| <= s_0). A single vector
    needs no SVD: at a tol in [0, 1) the SVD would keep its one direction,
    so it is only divided by its largest real or imaginary part and then by
    its norm. Raises ValueError for a non-finite component, as make_state does.
    """
    cols = []
    for v in vectors:
        arr = np.asarray(v, dtype=np.complex128).reshape(-1)
        if arr.shape[0] != dim:
            raise DimensionMismatch(f"spanning vector has length {arr.shape[0]}, expected {dim}")
        cols.append(arr)
    if not cols:
        raise EmptySpan("no spanning vectors given")
    basis_matrix = cols[0].reshape(dim, 1) if len(cols) == 1 else np.column_stack(cols)
    top = _largest_part(basis_matrix)
    if not math.isfinite(top):
        raise ValueError("spanning vectors must be finite")
    if top <= tol and float(np.abs(basis_matrix).max()) <= tol:  # |z| is at least z's largest part
        raise EmptySpan("every spanning vector is numerically zero")
    if len(cols) == 1 and 0.0 <= tol < 1.0:
        # With its largest part at 1 its norm neither overflows nor underflows.
        line = _divided(basis_matrix, top)
        line /= math.sqrt(np.vdot(line, line).real)
        return _set_basis(object.__new__(Subspace), line)
    if top * top * basis_matrix.size > 1e300:  # s_0^2 may overflow: bring the largest part to 1 first
        basis_matrix = _divided(basis_matrix, top)
    q, r = np.linalg.qr(basis_matrix)
    diag = np.abs(r.diagonal())
    if diag.min() > tol * diag.max() and (s := _svd(r, vectors=False))[-1] > tol * s[0]:
        return _from_basis(q)  # every direction is kept
    u, s = _svd(r)
    return _from_basis(q @ u[:, : int(np.sum(s > tol * s[0]))])


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

    and each entry of Q^dagger Q - I is within DEFAULT_TOL (_from_basis and
    orthocomplement check it; eigenvectors and unit lines are orthonormal to
    rounding), so the third term is at most k DEFAULT_TOL s^2 in size. For
    a unit psi the last term and the rounding of |psi|^2 and s^2 sum to
    less than rho / 2, where rho = 8 (d + k + 4) sqrt(k + 1) eps (|psi|^2 is
    the state's re.re + im.im, and Higham's inner-product bound, ch. 3,
    holds in any order of summation), and the r
    computed from the rejected vector (a second product, a subtraction and
    a norm) is within phi = rho / 4 of |psi - Q c|. Since (tol + phi)^2 is
    below tol^2 + (2 tol + 1) phi, the computed r is at least tol whenever

        |psi|^2 - s^2 > tol^2 + delta,   delta = k DEFAULT_TOL s^2 + (1 + tol) rho,

    and then the verdict is read from s alone. The code takes rho twice as
    large. Nearer the boundary r is computed as before, so every verdict
    is the one that computing r always gives. The cost is one d-by-k
    product, and a second one only within delta of TRUE.
    """
    psi, basis = state.amplitudes, prop.basis
    if psi.shape[0] != basis.shape[0]:
        raise DimensionMismatch(f"state dim {psi.shape[0]} does not match subspace dim {basis.shape[0]}")
    coords = np.dot(prop._adjoint, psi)
    s2 = float(np.vdot(coords, coords).real)  # a Python float: the arithmetic below is faster on one
    delta = prop.rank * DEFAULT_TOL * s2 + (1.0 + tol) * prop._rounding
    if state._squares - s2 <= tol * tol + delta:
        rejected = np.dot(basis, coords)
        np.subtract(psi, rejected, out=rejected)
        if math.sqrt(np.vdot(rejected, rejected).real) < tol:
            return TruthValue.TRUE
    if math.sqrt(s2) < tol:
        return TruthValue.FALSE
    return TruthValue.GAP


def _wy_factor(tau: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """T of H_1 ... H_k = I - V T V^dagger by LAPACK's larft recurrence, which, unlike T^-1 =
    triu(V^dagger V, 1) + diag(1 / tau), needs no division by a tau_i of 0 (an axis column)."""
    t = np.zeros((tau.shape[0],) * 2, dtype=np.complex128)
    for i in range(tau.shape[0]):
        t[:i, i] = -tau[i] * (t[:i, :i] @ gram[:i, i])
        t[i, i] = tau[i]
    return t


def orthocomplement(prop: Subspace) -> Subspace:
    """The orthogonal complement.

    A QR writes the basis as H_1 ... H_k R, with Householder reflectors
    H_i = I - tau_i v_i v_i^dagger. In the compact WY form H_1 ... H_k =
    I - V T V^dagger (Schreiber and Van Loan), the trailing d - k columns of
    that unitary, orthonormal and orthogonal to the basis, are
    W = E - V (T V[k:]^dagger), E those of the identity. With G = V^dagger V,
    W^dagger W - I = -V[k:] D V[k:]^dagger for D = T + T^dagger - T^dagger G T,
    whose entries are at most rho^2 |D|_2 <= k rho^2 max|D|, rho the largest
    row norm of V[k:]. Forming W moves a Gram entry by at most 2.01 phi, phi =
    (2 + gamma_k) gamma_k |V|_F |T|_F rho + 1.01 eps (Higham, ch. 3), taken as
    10 eps (k |V|_F |T|_F rho + 1); computing D (products of lengths d, k, k)
    moves an entry by at most 1.01 (d + 2k + 12) (eps / 2) m^2. W is orthonormal
    within DEFAULT_TOL if k rho^2 (max|D| + that) plus W's rounding is (6e-10 at
    d = 512, k = 128); past k = 110 to 170 (d = 256 to 1024) the Gram matrix decides.
    """
    dim, rank = prop.dim, prop.rank
    v, tau = np.linalg.qr(prop.basis, mode="raw")
    v = np.tril(v.T, -1)  # the raw QR holds the reflectors transposed
    v[np.arange(rank), np.arange(rank)] = 1.0
    gram = v.conj().T @ v
    t = _wy_factor(tau, gram)
    trailing = v @ (t @ v[rank:].conj().T)
    np.negative(trailing, out=trailing)
    trailing.reshape(-1)[rank * (dim - rank) :: dim - rank + 1] += 1.0  # E's ones, in place
    rho = float(np.max(np.linalg.norm(v[rank:], axis=1), initial=0.0))
    m = np.max(np.sqrt(gram.diagonal().real) @ np.abs(t), initial=0.0)  # >= max|T|; |T|^T |V|^T |V| |T| <= m^2
    rounding = 10 * _EPS * (rank * math.sqrt(gram.trace().real) * float(np.linalg.norm(t)) * rho + 1)
    rounding += 0.51 * (dim + 2 * rank + 12) * _EPS * m * m * rank * rho**2  # D's own rounding
    if rounding < DEFAULT_TOL:
        if rank * rho**2 * np.abs(t + t.conj().T - t.conj().T @ gram @ t).max(initial=0.0) + rounding <= DEFAULT_TOL:
            return _set_basis(object.__new__(Subspace), trailing)
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
