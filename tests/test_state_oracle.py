"""Bit-for-bit oracles of state construction and of one-vector spans.

make_state and the one-vector branch of span_subspace check finiteness,
the zero vector and overflow through the largest real or imaginary part,
and sum the norm as np.linalg.norm sums it; haar_state writes its two
draws into one complex array. The bodies below are the implementations
they replaced, kept verbatim as oracles. Every output must equal the
oracle's in its bits, and every failure must have the oracle's error type
and message, with warnings raised as errors (and, for make_state, also
with warnings ignored).

One band is carved out of make_state's oracle: a nonzero vector whose
squares may underflow (its largest part p with p² < 1e-290). There the
old make_state summed squares that had lost bits or vanished, and returned
a norm off by up to about 1e-15 relative, failed with NormLost, or divided
by zero. make_state now divides such a vector by p first, so in the band it
must equal the oracle applied to the vector divided by p, part by part.

The same band is carved out of the one-vector span's oracle. There the old
span divided by p through numpy's complex division, which multiplies by
1 / p and overflows for a subnormal p. The span now divides part by part
too, so in the band its basis must equal the oracle's for the vector
divided by p, part by part, up to the sign of exact zeros: the oracle's
own complex division by that vector's largest part, 1, may flip them.

Spans of two or more vectors are compared with the same oracle, but not
bit for bit: they now take a thin QR and the singular values of its
triangle R where the oracle took a thin SVD of the spanning matrix. The
rank rule is the same, and the basis is another orthonormal basis of the
same subspace.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lattice_oracle
from svq.errors import DimensionMismatch, DimensionTooSmall, EmptySpan, NormLost, ZeroVector
from svq.hilbert import DEFAULT_TOL, StateVector, _squared_norm, haar_state, haar_unitary, make_state
from svq.lattice import Subspace, _from_basis, _set_basis, _svd, span_subspace

# The replaced implementations ------------------------------------------------


def oracle_unit_amplitudes(arr: np.ndarray) -> np.ndarray:
    """arr, once it is checked to hold the amplitudes of a state."""
    if arr.ndim != 1:
        raise DimensionMismatch(f"amplitudes must be one-dimensional, got shape {arr.shape}")
    if arr.shape[0] < 2:
        raise DimensionTooSmall(f"a state needs dimension >= 2, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("amplitudes must be finite")
    norm = float(np.linalg.norm(arr))
    if abs(norm - 1.0) > DEFAULT_TOL:
        raise NormLost(f"state norm {norm!r} deviates from 1 beyond tolerance")
    return arr


def oracle_adopt(arr: np.ndarray) -> "StateVector":
    """A state of arr, a new array that nothing else holds, without the copy the constructor makes."""
    arr.setflags(write=False)
    state = object.__new__(StateVector)
    object.__setattr__(state, "amplitudes", oracle_unit_amplitudes(arr))
    return state


def oracle_make_state(components, tol: float = DEFAULT_TOL) -> StateVector:
    """Rescale a complex sequence to a unit state, preserving global phase.

    Raises ZeroVector when no component has magnitude above tol,
    DimensionTooSmall for fewer than two components and ValueError for a
    non-finite one.
    """
    arr = np.asarray(components, dtype=np.complex128)
    if arr.ndim != 1:
        raise DimensionMismatch(f"expected a flat sequence, got shape {arr.shape}")
    if arr.shape[0] < 2:
        raise DimensionTooSmall(f"a state needs dimension >= 2, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("components must be finite")
    if float(np.max(np.abs(arr))) <= tol:
        raise ZeroVector("every component is below tolerance; the zero vector is not a state")
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(arr)
    if not np.isfinite(norm):
        # The sum of squares overflowed: bring the largest part to 1 first.
        arr = arr / np.max(np.maximum(np.abs(arr.real), np.abs(arr.imag)))
        norm = np.linalg.norm(arr)
    return oracle_adopt(arr / norm)


def oracle_haar_state(dim: int, rng=None) -> StateVector:
    """Draw a unit vector from the unitarily invariant measure."""
    gen = np.random.default_rng(rng)
    z = gen.standard_normal(dim) + 1j * gen.standard_normal(dim)
    return oracle_make_state(z)


def _unit_scaled(matrix: np.ndarray) -> np.ndarray:
    """matrix divided by the largest real or imaginary part of its entries.

    The float64 view puts each entry's two parts side by side; it needs a
    contiguous last axis, which a column stack and a single column have.
    """
    return matrix / np.abs(matrix.view(np.float64)).max()


def oracle_span_subspace(vectors, dim: int, tol: float = DEFAULT_TOL) -> Subspace:
    """The closed span of the given vectors.

    The spanning set is orthonormalized through a thin SVD, so any two
    spanning sets of the same space give the same subspace up to numerical
    noise. Directions whose relative singular weight falls below tol are
    treated as noise rather than as extra dimensions. A single vector needs
    no SVD: at a tol in [0, 1) the SVD would keep its one direction, so it
    is only divided by its largest real or imaginary part and then by its
    norm. Raises ValueError for a non-finite component, as make_state does.
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
    if not np.isfinite(basis_matrix).all():
        raise ValueError("spanning vectors must be finite")
    if float(np.abs(basis_matrix).max()) <= tol:
        raise EmptySpan("every spanning vector is numerically zero")
    if len(cols) == 1 and 0.0 <= tol < 1.0:
        # With its largest part at 1 its norm neither overflows nor underflows.
        line = _unit_scaled(basis_matrix)
        line /= math.sqrt(np.vdot(line, line).real)
        sub = object.__new__(Subspace)
        _set_basis(sub, line)
        return sub
    u, s = _svd(basis_matrix)
    if not math.isfinite(s[0]):
        # The largest singular value overflowed: bring the largest part to 1 first.
        u, s = _svd(_unit_scaled(basis_matrix))
    return _from_basis(u[:, : int(np.sum(s > tol * s[0]))])


# Inputs ----------------------------------------------------------------------


def outcome(function, *args, warning="error"):
    """What a call returns, or the type and message of what it raises, with
    warnings raised as errors or ignored."""
    with warnings.catch_warnings():
        warnings.simplefilter(warning)
        try:
            return function(*args)
        except Exception as err:  # noqa: BLE001 - the error is the outcome compared
            return type(err), str(err)


def bits(arr: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(arr).view(np.uint64)


#: How a caller hands over a vector: a list or tuple of Python numbers, a
#: contiguous array, or a strided column of a larger array.
CONTAINERS = {
    "list": lambda v: v.tolist(),
    "tuple": lambda v: tuple(v.tolist()),
    "array": lambda v: v.copy(),
    "column": lambda v: np.stack([v, v[::-1], v], axis=1)[:, 2],
}

#: What a vector's entries are: Gaussian at one scale, with zeroed parts;
#: with a nan or an infinite part; with every |z| at, just below or just
#: above tol, or with every part at most tol while one |z| passes it; or
#: with a largest part from 1e145 up, where the squares may overflow.
KINDS = ("scaled", "sparse", "nan", "inf", "at-tol", "below-tol", "above-tol", "parts-below-tol", "huge")


@st.composite
def vectors(draw):
    """(vector, tol): a complex vector of dimension 2 to 512 and a tol in (0, 1)."""
    kind = draw(st.sampled_from(KINDS))
    dim = draw(st.integers(2, 512))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tol = draw(st.one_of(
        st.sampled_from((DEFAULT_TOL, 1e-6, 1e-12, 0.1, 0.5, 1 - 2**-53, 5e-324)),
        st.floats(-300.0, -1e-9).map(lambda e: 10.0**e),
    ))
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v *= 10.0 ** draw(st.floats(-300.0, 300.0))
    if kind == "sparse":
        f = v.view(np.float64)
        f[rng.random(2 * dim) < 0.7] = 0.0
    elif kind in ("nan", "inf"):
        f = v.view(np.float64)
        f[rng.integers(2 * dim)] = float(kind) * rng.choice((1.0, -1.0))
    elif kind in ("at-tol", "below-tol", "above-tol"):
        factor = {"at-tol": 1.0, "below-tol": 1 - 1e-12, "above-tol": 1 + 1e-12}[kind]
        v *= tol * factor / np.max(np.abs(v))
    elif kind == "parts-below-tol":
        v *= 0.5 * tol / np.max(np.abs(v))
        v[rng.integers(dim)] = complex(0.9 * tol, 0.9 * tol)
    elif kind == "huge":
        v /= np.max(np.abs(v.view(np.float64)))
        v *= min(10.0 ** rng.uniform(145.0, 308.25), 1.7e308)
    container = draw(st.sampled_from(tuple(CONTAINERS)))
    return CONTAINERS[container](v), tol


def underflow_band_part(components, tol) -> float | None:
    """The largest part p of a nonzero state's components whose squares may
    underflow (p² < 1e-290), else None."""
    arr = np.asarray(components, dtype=np.complex128)
    if arr.ndim != 1 or arr.shape[0] < 2 or not np.isfinite(arr).all() or float(np.abs(arr).max()) <= tol:
        return None
    top = float(np.maximum(np.abs(arr.real), np.abs(arr.imag)).max())
    return top if top * top < 1e-290 else None


# Properties ------------------------------------------------------------------


@settings(max_examples=400)
@given(vectors())
def test_make_state_matches_its_oracle_bit_for_bit(case):
    components, tol = case
    top = underflow_band_part(components, tol)
    for warning in ("error", "ignore"):
        got = outcome(make_state, components, tol, warning=warning)
        if top is None:
            want = outcome(oracle_make_state, components, tol, warning=warning)
        else:
            scaled = (np.ascontiguousarray(components, dtype=np.complex128).view(np.float64) / top).view(np.complex128)
            want = outcome(oracle_make_state, scaled, tol, warning=warning)
        if isinstance(want, tuple) or isinstance(got, tuple):
            assert got == want
        else:
            assert np.array_equal(bits(got.amplitudes), bits(want.amplitudes))
            assert not got.amplitudes.flags.writeable


@pytest.mark.parametrize(
    "components, tol, unit",
    [
        ([1e-200, 1e-200j], 1e-250, [2**-0.5, 2**-0.5 * 1j]),
        ([1e-160, 1e-160], 1e-200, [2**-0.5, 2**-0.5]),
        ([1e-155, 0], 1e-200, [1, 0]),
        ([1e-320, -1e-320j], 5e-324, [2**-0.5, -(2**-0.5) * 1j]),
    ],
)
def test_components_whose_squares_underflow_give_the_unit_state_of_their_ray(components, tol, unit):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        state = make_state(components, tol)
    assert np.allclose(state.amplitudes, unit, rtol=0, atol=2**-52)
    assert abs(math.sqrt(_squared_norm(state.amplitudes)) - 1.0) <= 2**-52


@pytest.mark.parametrize("vectors", [[[1e-320, 1e-320j]], [[0, -1e-321]], [[1e-320, 1e-320j], [1e-320, 0]]])
def test_a_span_whose_largest_part_is_subnormal_is_spanned_without_a_warning(vectors):
    # numpy's complex division by a real p multiplies by 1 / p, which overflows.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sub = span_subspace(vectors, 2, 5e-324)
    assert sub.rank == len(vectors)
    for v in vectors:
        v = np.array(v, dtype=np.complex128).view(np.float64)
        v = (v / np.abs(v).max()).view(np.complex128)  # on the input's ray, at a largest part of 1
        assert np.allclose(sub.basis @ (sub._adjoint @ v), v, rtol=0, atol=1e-15)
    if len(vectors) == 1:
        assert abs(math.sqrt(_squared_norm(sub.basis[:, 0])) - 1.0) <= 2**-52


@settings(max_examples=400)
@given(vectors())
def test_one_vector_span_matches_its_oracle_bit_for_bit(case):
    components, tol = case
    dim = len(components)
    top = underflow_band_part(components, tol)
    got = outcome(span_subspace, [components], dim, tol)
    if top is None:
        want = outcome(oracle_span_subspace, [components], dim, tol)
    else:
        scaled = (np.ascontiguousarray(components, dtype=np.complex128).view(np.float64) / top).view(np.complex128)
        want = outcome(oracle_span_subspace, [scaled], dim, tol)
    if isinstance(want, tuple) or isinstance(got, tuple):
        assert got == want
        return
    assert got.rank == want.rank == 1
    unsigned = (lambda arr: arr) if top is None else (lambda arr: arr + 0.0)  # -0.0 + 0.0 is 0.0
    assert np.array_equal(bits(unsigned(got.basis)), bits(unsigned(want.basis)))
    assert np.array_equal(bits(unsigned(got._adjoint)), bits(unsigned(want._adjoint)))


@settings(max_examples=200)
@given(vectors())
def test_the_state_constructor_matches_its_oracle(case):
    # Direct construction runs every check: on the drawn vector as it is,
    # and on the unit vector of its ray.
    arr = np.array(case[0], dtype=np.complex128)
    unit = outcome(oracle_make_state, arr, case[1])
    for amplitudes in [arr] + ([unit.amplitudes] if isinstance(unit, StateVector) else []):
        got = outcome(StateVector, amplitudes)
        want = outcome(oracle_unit_amplitudes, np.array(amplitudes, dtype=np.complex128))
        if isinstance(want, tuple) or isinstance(got, tuple):
            assert got == want
        else:
            assert np.array_equal(bits(got.amplitudes), bits(want))


@settings(max_examples=200)
@given(st.integers(2, 512), st.integers(0, 2**63 - 1))
def test_haar_state_matches_its_oracle_bit_for_bit(dim, seed):
    got, want = haar_state(dim, np.random.default_rng(seed)), oracle_haar_state(dim, np.random.default_rng(seed))
    assert np.array_equal(bits(got.amplitudes), bits(want.amplitudes))


def test_a_bad_haar_dimension_raises_what_it_raised():
    for dim in (None, -1, 0, 1, 1.5, "3", (2, 2), True):
        assert outcome(haar_state, dim, 0) == outcome(oracle_haar_state, dim, 0)


@settings(max_examples=300)
@given(vectors())
def test_norm_is_np_linalg_norm_bit_for_bit(case):
    arr = np.array(case[0], dtype=np.complex128)
    with np.errstate(over="ignore"):
        got, want = math.sqrt(_squared_norm(arr)), float(np.linalg.norm(arr))
    assert np.array([got]).view(np.uint64) == np.array([want]).view(np.uint64)


# Spans of several vectors ----------------------------------------------------

EPS = float(np.finfo(np.float64).eps)


@st.composite
def spanning_sets(draw):
    """(vectors, dim, tol, rank, exact, kept): the k columns of
    A = U diag(s) V^dagger as vectors in C^d, for k from 2 to 2d and Haar U
    and V of min(d, k) columns. Of the ratios s_i / s_0, the kept ones are at
    least 1e3 tol and the dropped ones zero (a dependent set) or at most
    tol / 1e3 (a near-dependent one). A third of the sets are scaled to a
    largest part from 1e150 up, where s_0^2 may overflow. exact is the
    projector onto U's first rank columns, and kept the smallest kept ratio."""
    dim = draw(st.integers(2, 24))
    k = draw(st.integers(2, 2 * dim))
    kind = draw(st.sampled_from(("independent", "dependent", "near-dependent")))
    tol = draw(st.sampled_from((DEFAULT_TOL, 1e-6)))
    huge = draw(st.integers(0, 2)) == 0
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = min(dim, k)
    rank = m if kind == "independent" else int(rng.integers(1, m))
    kept = 10.0 ** rng.uniform(math.log10(1e3 * tol), 0.0, rank)
    kept[0] = 1.0
    dropped = 1e-3 * tol * 10.0 ** rng.uniform(-3.0, 0.0, m - rank) if kind == "near-dependent" else np.zeros(m - rank)
    u, v = haar_unitary(dim, rng).entries[:, :m], haar_unitary(k, rng).entries[:, :m]
    a = (u * np.concatenate([kept, dropped])) @ v.conj().T
    if huge:
        a /= np.abs(a.view(np.float64)).max()
        a *= min(10.0 ** rng.uniform(150.0, 308.2), 1.7e308)
    return a.T, dim, tol, rank, u[:, :rank] @ u[:, :rank].conj().T, float(kept.min())


@settings(max_examples=300)
@given(spanning_sets())
def test_a_span_of_several_vectors_keeps_the_svd_oracles_rank_and_subspace(case):
    vectors, dim, tol, rank, exact, kept = case
    got, want = span_subspace(vectors, dim, tol), oracle_span_subspace(vectors, dim, tol)
    assert got.rank == want.rank == rank
    lattice_oracle._from_basis(got.basis)  # raises unless Q^dagger Q - I is within DEFAULT_TOL
    # Rounding of about eps s_0 turns a basis by about eps s_0 over the gap to
    # the dropped directions, at least kept s_0 (1 - 1e-6). Both bases are seen
    # within 1.6 (d + k) eps / kept of the exact subspace; the bound is ten times that.
    bound = 16 * (dim + len(vectors)) * EPS / kept
    assert np.max(np.abs(got.projector - want.projector)) < bound
    assert np.max(np.abs(got.projector - exact)) < bound
