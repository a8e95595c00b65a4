import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from svq import (
    DimensionMismatch,
    DimensionTooSmall,
    NormLost,
    Operator,
    ZeroVector,
    apply_operator,
    haar_state,
    haar_unitary,
    inner,
    is_unitary,
    make_state,
    tensor,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) * INV_SQRT2


def identity(dim):
    return Operator(np.eye(dim), unitary=True)


def flagged(entries, tol=1e-9):
    """The operator an evolve step applies: flagged unitary when is_unitary says so."""
    return Operator(entries, unitary=is_unitary(Operator(entries), tol))


def test_make_state_basis_vector_unchanged():
    s = make_state([1, 0])
    assert np.array_equal(s.amplitudes, np.array([1, 0], dtype=complex))


def test_make_state_normalizes():
    s = make_state([1, 1])
    assert np.allclose(s.amplitudes, [INV_SQRT2, INV_SQRT2], atol=1e-12)


def test_make_state_rejects_zero_vector():
    with pytest.raises(ZeroVector):
        make_state([0, 0])


def test_make_state_rejects_single_component():
    with pytest.raises(DimensionTooSmall):
        make_state([1])


def test_make_state_preserves_global_phase():
    s = make_state([-2, 0])
    assert np.allclose(s.amplitudes, [-1, 0], atol=1e-12)


def test_make_state_accepts_components_whose_squares_overflow():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning either
        big = make_state([1e308, 1e308])
        complex_big = make_state([1.5e308 + 1.5e308j, 0])
    assert np.allclose(big.amplitudes, [INV_SQRT2, INV_SQRT2], atol=1e-12)
    assert complex_big.same_ray(make_state([1, 0]))


def test_inner_orthogonal_basis():
    assert inner(make_state([1, 0]), make_state([0, 1])) == 0


def test_inner_identity_case():
    assert inner(make_state([1, 0]), make_state([1, 0])) == pytest.approx(1)


def test_inner_overlap_hand_value():
    # conj(1) * (1/sqrt 2) + conj(0) * (1/sqrt 2) by hand
    value = inner(make_state([1, 0]), make_state([1, 1]))
    assert value == pytest.approx(0.70710678, abs=1e-8)


def test_inner_conjugate_linear_first_argument():
    a = make_state([1, 1j])
    b = make_state([1, 0])
    assert inner(a, b) == pytest.approx(np.conj(inner(b, a)))


def test_inner_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        inner(make_state([1, 0]), make_state([1, 0, 0]))


def test_a_new_state_holds_one_copy_of_its_amplitudes():
    # 16 MiB of amplitudes. The state used to copy its freshly rescaled
    # array once more, and peaked at 33 MiB.
    components = np.ones(2**20, dtype=complex)
    tracemalloc.start()
    try:
        state = make_state(components)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 16 * 2**20
    assert not state.amplitudes.flags.writeable
    assert not np.shares_memory(state.amplitudes, components)
    assert np.allclose(state.amplitudes, 2**-10)
    # A flagged unitary's state keeps its fresh product too, read-only.
    out = apply_operator(identity(4), make_state(np.ones(4)))
    assert not out.amplitudes.flags.writeable


def test_tensor_basis_vectors():
    out = tensor(make_state([1, 0]), make_state([0, 1]))
    assert np.array_equal(out.amplitudes, np.array([0, 1, 0, 0], dtype=complex))


def test_tensor_hand_kronecker():
    # (1/sqrt2)[1, 1] (x) [1, 0] expands to (1/sqrt2)[1, 0, 1, 0] by hand
    out = tensor(make_state([1, 1]), make_state([1, 0]))
    assert np.allclose(out.amplitudes, [INV_SQRT2, 0, INV_SQRT2, 0], atol=1e-12)


def test_tensor_identity_like():
    out = tensor(make_state([1, 0]), make_state([1, 0]))
    assert np.array_equal(out.amplitudes, np.array([1, 0, 0, 0], dtype=complex))


def test_apply_identity_is_exact():
    v = make_state([0.3, 0.4j, -0.5, 0.1])
    out = apply_operator(identity(4), v)
    assert np.array_equal(out.amplitudes, v.amplitudes)


def test_apply_swap_matrix():
    swap = flagged([[0, 1], [1, 0]])
    assert swap.unitary
    out = apply_operator(swap, make_state([1, 0]))
    assert np.array_equal(out.amplitudes, np.array([0, 1], dtype=complex))


def test_apply_hadamard_hand_product():
    h = flagged(HADAMARD)
    assert h.unitary
    out = apply_operator(h, make_state([1, 0]))
    assert np.allclose(out.amplitudes, [INV_SQRT2, INV_SQRT2], atol=1e-12)


def test_apply_operator_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        apply_operator(identity(3), make_state([1, 0]))


def test_apply_norm_lost_when_flag_is_a_lie():
    bad = Operator(np.array([[1, 0], [0, 2]], dtype=complex), unitary=True)
    with pytest.raises(NormLost):
        apply_operator(bad, make_state([0, 1]))


@pytest.mark.parametrize("eps, tol", [(0.9e-9, 1e-9), (0.045, 0.05)])
def test_apply_accepts_every_operator_make_operator_accepts(eps, tol):
    # a I + b J with M^dagger M - I = eps (J - I): each entry is below tol,
    # but [1, 1, 1, 1] is stretched by sqrt(1 + 3 eps), past 1 + tol.
    a = np.sqrt(1 - eps)
    b = (np.sqrt(1 + 3 * eps) - a) / 4
    op = flagged(a * np.eye(4) + b * np.ones((4, 4)), tol)
    assert op.unitary
    out = apply_operator(op, make_state([1, 1, 1, 1]), tol)
    assert np.allclose(out.amplitudes, 0.5, atol=1e-12)


def test_apply_unflagged_operator_renormalizes():
    stretch = Operator(np.array([[2, 0], [0, 2]], dtype=complex))
    out = apply_operator(stretch, make_state([1, 1]))
    assert np.linalg.norm(out.amplitudes) == pytest.approx(1, abs=1e-12)


def test_apply_unflagged_operator_rejects_annihilation():
    collapse = Operator(np.zeros((2, 2), dtype=complex))
    with pytest.raises(ZeroVector):
        apply_operator(collapse, make_state([1, 0]))


def test_is_unitary_identity():
    assert is_unitary(identity(3), 1e-9)


def test_is_unitary_hadamard():
    # rows of H are orthonormal by hand, so H dagger H = I
    assert is_unitary(Operator(HADAMARD), 1e-9)


def test_is_unitary_rejects_stretch():
    assert not is_unitary(Operator(np.array([[1, 0], [0, 2]], dtype=complex)), 1e-9)


# properties ---------------------------------------------------------------


def test_random_unitary_preserves_inner_products():
    rng = np.random.default_rng(1234)
    for _ in range(100):
        dim = int(rng.integers(2, 5))
        u = haar_unitary(dim, rng)
        a, b = haar_state(dim, rng), haar_state(dim, rng)
        before = inner(a, b)
        after = inner(apply_operator(u, a), apply_operator(u, b))
        assert abs(after - before) < 1e-9


def test_tensor_norm_is_one_for_random_pairs():
    rng = np.random.default_rng(99)
    for _ in range(100):
        a = haar_state(int(rng.integers(2, 5)), rng)
        b = haar_state(int(rng.integers(2, 5)), rng)
        assert abs(np.linalg.norm(tensor(a, b).amplitudes) - 1) < 1e-9


@given(
    st.lists(
        st.complex_numbers(min_magnitude=0, max_magnitude=1e3, allow_nan=False, allow_infinity=False),
        min_size=2,
        max_size=8,
    ).filter(lambda xs: max(abs(x) for x in xs) > 1e-6)
)
def test_make_state_idempotent(components):
    once = make_state(components)
    twice = make_state(once.amplitudes)
    assert np.allclose(once.amplitudes, twice.amplitudes, atol=1e-12)


def test_haar_unitary_is_unitary():
    rng = np.random.default_rng(7)
    for dim in (2, 3, 4):
        assert is_unitary(haar_unitary(dim, rng), 1e-9)


def test_state_vectors_are_immutable():
    s = make_state([1, 0])
    with pytest.raises((ValueError, RuntimeError)):
        s.amplitudes[0] = 5


amplitude_lists = st.lists(
    st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
    min_size=2,
    max_size=8,
).filter(lambda xs: max(abs(x) for x in xs) > 1e-6)


@given(amplitude_lists, amplitude_lists)
def test_tensor_bytes_equal_kron(first, second):
    # States have dimension 2 and up, so this covers every pair of dims 2..8.
    a, b = make_state(first), make_state(second)
    expected = np.kron(a.amplitudes, b.amplitudes)
    assert tensor(a, b).amplitudes.tobytes() == expected.tobytes()
