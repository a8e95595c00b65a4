"""membership, orthocomplement, meet and join against the implementations
they replaced (tests/lattice_oracle.py), and the memory orthocomplement takes.

membership now reads |psi|^2 from the state, where the oracle summed it
with vdot, so near a tolerance boundary rounding could split their
verdicts; the drawn states keep their distance from every boundary:
- inside: psi in the subspace, so r is rounding, below tol / 1e3;
- orthogonal: psi orthogonal to it, so s is rounding, below tol / 1e3;
- generic: r and s both at least m = min(1e3 tol, 1/2). 1e3 tol is the
  margin asked of every residual and overlap; at tol 1e-3 it would ask
  r and s of at least 1, which no unit state has, hence the cap.

The bases of orthocomplement, meet and join must equal the oracle's under
np.array_equal. Only the sign of an exact zero may differ: the oracle
added the identity's zeros to the lower block of the orthocomplement's
basis, turning -0.0 into 0.0, where only its diagonal of ones is added now.

orthocomplement forms the Gram matrix of its output only where the
rounding bound of the k-by-k identity of its compact WY form is too large
to vouch for it. Every complement must still pass the oracle's Gram check,
and one built from a wrong T must be rejected.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lattice_oracle as oracle
from svq import Subspace, TruthValue, join, lattice, make_state, meet, membership, orthocomplement, span_subspace, zero_subspace

TOLS = (1e-9, 1e-6, 1e-3)


def _gaussian(rng, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def _span(vectors: np.ndarray, dim: int) -> Subspace:
    """The span of the columns, or {0} for none."""
    return span_subspace(vectors.T, dim) if vectors.shape[1] else zero_subspace(dim)


def _orthogonal_unit(sub: Subspace, rng) -> np.ndarray:
    """A unit vector orthogonal to sub, projected out twice."""
    w = _gaussian(rng, sub.dim, 1)[:, 0]
    for _ in range(2):
        w = w - sub.basis @ (sub._adjoint @ w)
    return w / np.linalg.norm(w)


def _r_and_s(state, sub: Subspace) -> tuple[float, float]:
    coords = sub._adjoint @ state.amplitudes
    return float(np.linalg.norm(state.amplitudes - sub.basis @ coords)), float(np.linalg.norm(coords))


@st.composite
def cases(draw):
    dim = draw(st.integers(2, 64))
    rank = draw(st.integers(0, dim))
    other = draw(st.integers(0, dim))
    common = draw(st.integers(0, min(rank, other)))
    kinds = [kind for kind, ok in (("inside", rank > 0), ("orthogonal", rank < dim), ("generic", 0 < rank < dim)) if ok]
    kind = draw(st.sampled_from(kinds))
    form = draw(st.sampled_from(("span", "projector")))
    return dim, rank, other, common, kind, form, draw(st.sampled_from(TOLS)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300)
@given(cases())
def test_verdicts_and_bases_equal_the_oracle(case):
    dim, rank, other, common, kind, form, tol, seed = case
    rng = np.random.default_rng(seed)
    generators = _gaussian(rng, dim, rank)
    a = _span(generators, dim)
    if form == "projector":
        a = Subspace(a.projector)
    b = _span(np.hstack([generators[:, :common], _gaussian(rng, dim, other - common)]), dim)

    for got, want in ((orthocomplement(a), oracle.orthocomplement(a)), (meet(a, b), oracle.meet(a, b)),
                      (join(a, b), oracle.join(a, b))):
        assert got.rank == want.rank
        assert np.array_equal(got.basis, want.basis)
        assert np.array_equal(got._adjoint, want._adjoint)

    margin = min(1e3 * tol, 0.5)
    if kind == "inside":
        state, verdict = make_state(a.basis @ _gaussian(rng, rank, 1)[:, 0]), TruthValue.TRUE
    elif kind == "orthogonal":
        state, verdict = make_state(_orthogonal_unit(a, rng)), TruthValue.FALSE
    else:
        r = 10.0 ** rng.uniform(math.log10(margin), math.log10(math.sqrt(1 - margin * margin)))
        inside = a.basis @ _gaussian(rng, rank, 1)[:, 0]
        psi = math.sqrt(1 - r * r) * inside / np.linalg.norm(inside) + r * _orthogonal_unit(a, rng)
        state, verdict = make_state(psi), TruthValue.GAP
    r, s = _r_and_s(state, a)
    assert {"inside": r < tol / 1e3, "orthogonal": s < tol / 1e3, "generic": min(r, s) >= margin}[kind]

    complement = orthocomplement(a)
    assert membership(state, a, tol) is oracle.membership(state, a, tol) is verdict
    assert membership(state, complement, tol) is oracle.membership(state, complement, tol)


def _frame(kind: str, dim: int, rank: int, rng) -> np.ndarray:
    """rank orthonormal columns: signed coordinate axes, which need no
    Householder reflection (tau = 0), or, for "mixed", half of them followed
    by random directions orthogonal to them, so that tau = 0 and tau != 0
    meet in one T."""
    axes = np.eye(dim, dtype=np.complex128)[:, rng.permutation(dim)] * rng.choice([1.0, -1.0], dim)
    if kind == "axes" or rank < 2:
        return axes[:, :rank]
    half = rank // 2
    rest, _ = np.linalg.qr(axes[:, half:] @ _gaussian(rng, dim - half, rank - half))
    return np.hstack([axes[:, :half], rest])


@settings(max_examples=300)
@given(cases(), st.sampled_from(("haar", "axes", "mixed")))
def test_every_orthocomplement_passes_the_gram_check(case, frame):
    dim, rank, _, _, _, form, _, seed = case
    rng = np.random.default_rng(seed)
    if frame == "haar":
        a = _span(_gaussian(rng, dim, rank), dim)
    else:
        a = lattice._from_basis(_frame(frame, dim, rank, rng))
    if form == "projector":
        a = Subspace(a.projector)
    complement = orthocomplement(a)
    assert complement.rank == dim - rank
    oracle._from_basis(complement.basis)  # raises unless Q^dagger Q - I is within DEFAULT_TOL


@pytest.mark.parametrize("entry", [(0, 0), (0, 4), (2, 3), (4, 4)])
def test_an_orthocomplement_from_a_perturbed_t_is_rejected(entry, monkeypatch):
    # With one entry of T off by 1e-6, I - V T V^dagger is no longer unitary:
    # the identity's defect is about 1e-6, and so is the output's Gram error.
    sub = span_subspace(_gaussian(np.random.default_rng(3), 5, 16), 16)
    factor = lattice._wy_factor

    def perturbed(tau, gram):
        t = factor(tau, gram)
        t[entry] += 1e-6
        return t

    monkeypatch.setattr(lattice, "_wy_factor", perturbed)
    with pytest.raises(ValueError, match="not orthonormal"):
        orthocomplement(sub)


def test_orthocomplement_allocates_less_than_one_and_a_half_times_what_it_returns():
    # numpy reports its array allocations to tracemalloc, so the traced peak
    # of one call is deterministic. At d = 256, k = 64 the result holds a
    # 256-by-192 basis and its adjoint, 1,572,864 bytes. The implementation
    # before in-place construction peaked at 3,838,136 bytes (2.44 times
    # that), with its negated copy, conjugate copy, np.eye and difference
    # arrays, and the one that checked the 192-by-192 Gram matrix of its
    # output at 2,854,784 (1.82 times). With the k-by-k check in its place it
    # peaks at 2,100,527 (1.34 times).
    dim, rank = 256, 64
    sub = span_subspace(_gaussian(np.random.default_rng(7), rank, dim), dim)
    orthocomplement(sub)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        complement = orthocomplement(sub)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    returned = complement.basis.nbytes + complement._adjoint.nbytes
    assert returned == 2 * dim * (dim - rank) * 16
    assert peak < 1.5 * returned
