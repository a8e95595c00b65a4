"""span_subspace against the implementation it replaced (tests/lattice_oracle.py).

The oracle confirmed that a span keeps every direction with R's values-only
SVD. span_subspace proves it with one Cholesky factorisation of R's
shifted Gram matrix (svq.lattice._full_rank) and computes R's SVD, with
vectors, only where that fails. Both must give the same rank, and bases
equal under np.array_equal.

The one band where they may differ is where the oracle's answer rests on
rounding: a computed singular value of R within k eps s_0 of tol s_0, k
eps s_0 being the error that _full_rank's derivation allows LAPACK's SVD.
There the values-only SVD that the oracle read and the full SVD that the
span reads may keep different numbers of directions. Cases in the band are
counted as a Hypothesis event (pytest --hypothesis-show-statistics).

Two further properties hold for the certificate itself on the oracle's R:
- sound: whenever it succeeds, both SVDs of R keep every direction;
- not vacuous: when R's diagonal shows no drop and s_min^2 is at least four
  times its shift, it succeeds. With n = min(d, k) <= 16 here, Demmel's
  condition for a Cholesky factorisation to complete (Higham, Thm. 10.7) is
  then met with room to spare.
"""

import math

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st

import lattice_oracle as oracle
from svq import EmptySpan, lattice, span_subspace
from svq.hilbert import _divided, _largest_part

EPS = float(np.finfo(np.float64).eps)
TOLS = (1e-9, 1e-6, 0.3, -1.0, 1.5, math.nan)


def _orthonormal(rng, rows: int, cols: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols)))
    return q


#: How a test passes the spanning vectors, the rows of an array: as the
#: array, as rows of a Fortran-ordered one, in lists or tuples of Python
#: numbers, or from a generator.
CONTAINERS = {
    "ndarray": lambda rows: rows,
    "strided": lambda rows: np.asfortranarray(rows),
    "list": lambda rows: rows.tolist(),
    "tuple": lambda rows: tuple(tuple(row) for row in rows.tolist()),
    "generator": lambda rows: (row for row in rows),
}


@st.composite
def spanning_sets(draw):
    """(rows, dim, tol): k vectors in C^d, k from 2 to 16 and d from 1 to 12,
    so k > d half the time, with prescribed singular values: 1 down to
    1 / cond for cond from 1 to 1e13, some exactly 0, one at exactly tol, or
    one vector within 1e-12 of another; every entry then scaled by 1,
    1e300 or 1e-300."""
    dim, count = draw(st.integers(1, 12)), draw(st.integers(2, 16))
    tol = draw(st.sampled_from(TOLS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = min(dim, count)
    kind = draw(st.sampled_from(("conditioned", "dependent", "at-tol", "near-copy")))
    cond = draw(st.sampled_from((1.0, 1e2, 1e5, 1e9, 1e13)))
    values = np.sort(10.0 ** rng.uniform(-math.log10(cond), 0.0, n))[::-1]
    values[0], values[-1] = 1.0, 1.0 / cond
    if kind == "dependent":
        values[n - draw(st.integers(1, n)) :] = 0.0
    elif kind == "at-tol" and 0.0 < tol < 1.0:
        values[-1] = tol
    rows = (_orthonormal(rng, dim, n) * values) @ _orthonormal(rng, count, n).conj().T
    rows = rows.T.copy()
    if kind == "near-copy":
        nudge = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        rows[-1] = rows[0] + 1e-12 * nudge / np.linalg.norm(nudge)
    return rows * draw(st.sampled_from((1.0, 1e300, 1e-300))), dim, tol


def _outcome(span, rows, container, dim, tol):
    try:
        return span(CONTAINERS[container](rows), dim, tol)
    except (EmptySpan, ValueError) as err:
        return type(err), str(err)


def _oracle_r(rows: np.ndarray) -> np.ndarray:
    """R of the oracle's thin QR: of the column stack, brought to a largest part of 1 where it rescales."""
    matrix = np.column_stack(list(rows))
    top = _largest_part(matrix)
    if top * top * matrix.size > 1e300:
        matrix = _divided(matrix, top)
    return np.linalg.qr(matrix)[1]


def _keeps_all(s: np.ndarray, tol: float) -> bool:
    return bool(s[-1] > tol * s[0])


@settings(max_examples=400, deadline=None)
@given(spanning_sets(), st.sampled_from(tuple(CONTAINERS)))
def test_span_matches_the_values_svd_oracle(case, container):
    rows, dim, tol = case
    got = _outcome(span_subspace, rows, container, dim, tol)
    want = _outcome(oracle.span_subspace, rows, container, dim, tol)
    if isinstance(want, tuple) or isinstance(got, tuple):
        assert got == want
        return
    r = _oracle_r(rows)
    count = r.shape[1]
    values = np.linalg.svd(r, compute_uv=False)
    vectors_values = np.linalg.svd(r)[1]
    certified = lattice._full_rank(r, tol)
    if certified:
        assert _keeps_all(values, tol) and _keeps_all(vectors_values, tol)
    diag = np.abs(r.diagonal())
    frobenius = float(np.linalg.norm(r)) ** 2
    shift = (max(tol, 0.0) ** 2 + 16 * (count + 1) * EPS) * frobenius
    if diag.min() > tol * diag.max() and vectors_values[-1] ** 2 >= 4 * shift and frobenius > 1e-290:
        assert certified
    near = max(int(np.sum(np.abs(s - tol * s[0]) <= count * EPS * s[0])) for s in (values, vectors_values))
    if near:
        same = got.rank == want.rank and np.array_equal(got.basis, want.basis)
        event(f"within k eps s_0 of tol s_0, {'equal to' if same else 'unlike'} the oracle")
        assert abs(got.rank - want.rank) <= near
        return
    event("certified" if certified else "not certified")
    assert got.rank == want.rank
    assert np.array_equal(got.basis, want.basis)
