import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svq import (
    DimensionMismatch,
    EmptySpan,
    Subspace,
    TruthValue,
    apply_operator,
    haar_state,
    haar_unitary,
    join,
    make_state,
    meet,
    membership,
    orthocomplement,
    span_subspace,
    zero_subspace,
)

UP = make_state([1, 0])
DOWN = make_state([0, 1])
PLUS = make_state([1, 1])

Z_PLUS = span_subspace([[1, 0]], 2)
Z_MINUS = span_subspace([[0, 1]], 2)
X_PLUS = span_subspace([[1, 1]], 2)
X_MINUS = span_subspace([[1, -1]], 2)


def full_space(dim):
    """The whole space; true of every state."""
    return Subspace(np.eye(dim))


def projectors_close(a: Subspace, b: Subspace, tol=1e-9) -> bool:
    return float(np.max(np.abs(a.projector - b.projector))) < tol


def state_inside(sub: Subspace, rng) -> "make_state":
    while True:
        raw = sub.projector @ haar_state(sub.dim, rng).amplitudes
        if np.linalg.norm(raw) > 0.1:
            return make_state(raw)


# span ----------------------------------------------------------------------


def test_span_coordinate_axis():
    assert np.allclose(Z_PLUS.projector, [[1, 0], [0, 0]], atol=1e-12)
    assert Z_PLUS.rank == 1


def test_span_diagonal_line_hand_outer_product():
    # normalize [1, 1] and form the outer product by hand: all entries 1/2
    assert np.allclose(X_PLUS.projector, [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)


def test_span_full_space():
    s = span_subspace([[1, 0], [0, 1]], 2)
    assert np.allclose(s.projector, np.eye(2), atol=1e-12)
    assert s.rank == 2


def test_span_rejects_empty():
    with pytest.raises(EmptySpan):
        span_subspace([[0, 0], [0, 0]], 2)


@pytest.mark.parametrize("bad", [[np.inf, 0], [np.inf, 1], [complex(0, np.inf), 1], [1, np.nan]])
def test_span_rejects_non_finite_vectors(bad):
    # An infinite component used to give the zero subspace, and a NaN a
    # LinAlgError from the SVD.
    with pytest.raises(ValueError, match="spanning vectors must be finite"):
        span_subspace([[1, 0], bad], 2)


def test_span_accepts_vectors_whose_norm_overflows():
    # The largest singular value used to overflow to inf, which kept no
    # direction and gave the zero subspace.
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning either
        big = span_subspace([[1.7e308, 1.7e308], [1, 0]], 2)
        complex_big = span_subspace([[1.7e308j, -1.7e308j]], 2)
    assert big.rank == complex_big.rank == 1
    assert projectors_close(big, X_PLUS)
    assert projectors_close(complex_big, X_MINUS)


def test_span_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        span_subspace([[1, 0, 0]], 2)


def test_span_is_representation_independent():
    rng = np.random.default_rng(5)
    for _ in range(50):
        dim = int(rng.integers(2, 5))
        rank = int(rng.integers(1, dim + 1))
        basis = haar_unitary(dim, rng).entries[:, :rank]
        mix1 = basis @ haar_unitary(rank, rng).entries
        mix2 = basis @ haar_unitary(rank, rng).entries
        s1 = span_subspace(list(mix1.T), dim)
        s2 = span_subspace(list(mix2.T), dim)
        assert projectors_close(s1, s2)


def test_ill_conditioned_span_collapses_to_tolerance_rank():
    # the second direction is thinner than tol, so it counts as noise
    s = span_subspace([[1, 0], [1, 1e-12]], 2)
    assert s.rank == 1


# membership ----------------------------------------------------------------


def test_membership_table_for_z_up_state():
    assert membership(UP, Z_PLUS) is TruthValue.TRUE
    assert membership(UP, Z_MINUS) is TruthValue.FALSE
    assert membership(UP, X_PLUS) is TruthValue.GAP
    assert membership(UP, X_MINUS) is TruthValue.GAP


def test_membership_gap_for_diagonal_state():
    assert membership(PLUS, Z_PLUS) is TruthValue.GAP


def test_membership_zero_subspace_always_false():
    assert membership(UP, zero_subspace(2)) is TruthValue.FALSE
    assert membership(PLUS, zero_subspace(2)) is TruthValue.FALSE


def test_membership_full_space_always_true():
    assert membership(PLUS, full_space(2)) is TruthValue.TRUE


def test_membership_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        membership(make_state([1, 0, 0]), Z_PLUS)


def test_membership_phase_and_scale_invariant():
    rng = np.random.default_rng(11)
    for _ in range(200):
        dim = int(rng.integers(2, 5))
        psi = haar_state(dim, rng)
        rank = int(rng.integers(1, dim))
        basis = haar_unitary(dim, rng).entries[:, :rank]
        sub = Subspace(basis @ basis.conj().T)
        scale = rng.uniform(0.1, 10.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        rescaled = make_state(scale * psi.amplitudes)
        assert membership(rescaled, sub) is membership(psi, sub)


def test_membership_trichotomy():
    rng = np.random.default_rng(21)
    for _ in range(200):
        dim = int(rng.integers(2, 5))
        psi = haar_state(dim, rng)
        rank = int(rng.integers(1, dim))
        basis = haar_unitary(dim, rng).entries[:, :rank]
        sub = Subspace(basis @ basis.conj().T)
        assert membership(psi, sub) in (TruthValue.TRUE, TruthValue.FALSE, TruthValue.GAP)


def test_membership_complement_duality():
    rng = np.random.default_rng(31)
    for _ in range(100):
        dim = int(rng.integers(2, 5))
        rank = int(rng.integers(1, dim))
        basis = haar_unitary(dim, rng).entries[:, :rank]
        sub = Subspace(basis @ basis.conj().T)
        comp = orthocomplement(sub)
        case = int(rng.integers(3))
        if case == 0:
            psi = state_inside(sub, rng)
        elif case == 1:
            psi = state_inside(comp, rng)
        else:
            psi = haar_state(dim, rng)
        left = membership(psi, sub)
        right = membership(psi, comp)
        if left is TruthValue.TRUE:
            assert right is TruthValue.FALSE
        elif left is TruthValue.FALSE:
            assert right is TruthValue.TRUE
        else:
            assert right is TruthValue.GAP


# lattice operations ---------------------------------------------------------


def test_orthocomplement_swaps_axes():
    assert projectors_close(orthocomplement(Z_PLUS), Z_MINUS)


def test_orthocomplement_of_full_space_is_zero():
    assert projectors_close(orthocomplement(full_space(3)), zero_subspace(3))


def test_orthocomplement_involution():
    assert projectors_close(orthocomplement(orthocomplement(X_PLUS)), X_PLUS)


def test_meet_of_distinct_lines_is_zero():
    assert meet(Z_PLUS, Z_MINUS).rank == 0
    # solving c*(1,0) = d*(1,1) by hand forces c = d = 0
    assert meet(Z_PLUS, X_PLUS).rank == 0


def test_meet_idempotent():
    assert projectors_close(meet(X_PLUS, X_PLUS), X_PLUS)


def test_join_of_axes_is_full_space():
    assert projectors_close(join(Z_PLUS, Z_MINUS), full_space(2))
    # [1,0] and [1,1] are linearly independent by hand, so they span C^2
    assert projectors_close(join(Z_PLUS, X_PLUS), full_space(2))


def test_join_with_zero_is_identity_element():
    assert projectors_close(join(X_PLUS, zero_subspace(2)), X_PLUS)


def test_meet_join_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        meet(Z_PLUS, zero_subspace(3))
    with pytest.raises(DimensionMismatch):
        join(Z_PLUS, zero_subspace(3))


def _random_subspace(dim, rng, allow_trivial=False):
    low = 0 if allow_trivial else 1
    rank = int(rng.integers(low, dim + 1))
    if rank == 0:
        return zero_subspace(dim)
    basis = haar_unitary(dim, rng).entries[:, :rank]
    return Subspace(basis @ basis.conj().T)


def test_de_morgan_duality_random_pairs():
    rng = np.random.default_rng(41)
    for _ in range(200):
        dim = int(rng.integers(2, 5))
        a = _random_subspace(dim, rng)
        b = _random_subspace(dim, rng)
        assert projectors_close(
            orthocomplement(join(a, b)), meet(orthocomplement(a), orthocomplement(b))
        )
        assert projectors_close(
            orthocomplement(meet(a, b)), join(orthocomplement(a), orthocomplement(b))
        )


def test_orthomodular_law_for_nested_subspaces():
    rng = np.random.default_rng(51)
    for _ in range(200):
        dim = int(rng.integers(2, 5))
        outer_rank = int(rng.integers(1, dim + 1))
        outer_basis = haar_unitary(dim, rng).entries[:, :outer_rank]
        inner_rank = int(rng.integers(1, outer_rank + 1))
        inner_basis = outer_basis @ haar_unitary(outer_rank, rng).entries[:, :inner_rank]
        s2 = Subspace(outer_basis @ outer_basis.conj().T)
        s1 = Subspace(inner_basis @ inner_basis.conj().T)
        assert s2.contains(s1)
        rebuilt = join(s1, meet(orthocomplement(s1), s2))
        assert projectors_close(rebuilt, s2)


def test_membership_unitary_covariance():
    rng = np.random.default_rng(61)
    for trial in range(300):
        dim = int(rng.integers(2, 5))
        sub = _random_subspace(dim, rng)
        case = trial % 3
        if case == 0 and sub.rank > 0:
            psi = state_inside(sub, rng)
        elif case == 1 and sub.rank < dim:
            psi = state_inside(orthocomplement(sub), rng)
        else:
            psi = haar_state(dim, rng)
        u = haar_unitary(dim, rng)
        rotated_sub = Subspace(u.entries @ sub.projector @ u.entries.conj().T)
        assert membership(apply_operator(u, psi), rotated_sub) is membership(psi, sub)


def test_truth_value_rendering():
    assert str(TruthValue.TRUE) == "1"
    assert str(TruthValue.FALSE) == "0"
    assert str(TruthValue.GAP) == "0/0"
    assert not TruthValue.GAP.is_determinate


# differential oracle -------------------------------------------------------
#
# The projector-based lattice that subspaces were stored as before they became
# orthonormal bases, kept as the oracle of the rewrite. The bodies are the old
# ones, except that they take and return projector arrays instead of Subspace
# objects, so the oracle does not run through the code under test.


def reference_span_subspace(vectors, dim: int, tol: float = 1e-9) -> np.ndarray:
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
    u, s, _ = np.linalg.svd(basis_matrix)
    rank = int(np.sum(s > tol * s[0]))
    q = u[:, :rank]
    return q @ q.conj().T


def reference_membership(state, projector: np.ndarray, tol: float = 1e-9) -> TruthValue:
    projected = projector @ state.amplitudes
    r = float(np.linalg.norm(projected - state.amplitudes))
    s = float(np.linalg.norm(projected))
    if r < tol:
        return TruthValue.TRUE
    if s < tol:
        return TruthValue.FALSE
    return TruthValue.GAP


def reference_orthocomplement(projector: np.ndarray) -> np.ndarray:
    return np.eye(projector.shape[0], dtype=np.complex128) - projector


def reference_meet(pa: np.ndarray, pb: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    eye = np.eye(pa.shape[0], dtype=np.complex128)
    gram = (eye - pa) + (eye - pb)
    eigenvalues, eigenvectors = np.linalg.eigh(gram)
    kernel = eigenvectors[:, eigenvalues < tol]
    return kernel @ kernel.conj().T


def reference_join(pa: np.ndarray, pb: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    stacked = np.hstack([pa, pb])
    u, s, _ = np.linalg.svd(stacked)
    if s.size == 0 or s[0] <= tol:
        return np.zeros_like(pa)
    rank = int(np.sum(s > tol * s[0]))
    q = u[:, :rank]
    return q @ q.conj().T


def reference_contains(outer: np.ndarray, inner: np.ndarray, tol: float = 1e-9) -> bool:
    residual = outer @ inner - inner
    return float(np.max(np.abs(residual), initial=0.0)) <= tol


def reference_rank(projector: np.ndarray) -> int:
    return round(float(np.trace(projector).real))


def _gaussian(rng, dim, count):
    return rng.standard_normal((dim, count)) + 1j * rng.standard_normal((dim, count))


def _operand(kind, dim, shared, own):
    """Spanning vectors (one per row) of a zero, full or generic operand."""
    if kind == "zero":
        return None
    if kind == "full":
        return np.eye(dim)
    return np.hstack([shared, own]).T


def _probes(projector, rng):
    """An inside, an orthogonal and a generic state for a projector."""
    dim = projector.shape[0]
    states = [haar_state(dim, rng)]
    for side in (projector, reference_orthocomplement(projector)):
        raw = side @ _gaussian(rng, dim, 1)[:, 0]
        if np.linalg.norm(raw) > 0.1:
            states.append(make_state(raw))
    return states


@st.composite
def operand_pairs(draw):
    dim = draw(st.integers(2, 8))
    common = draw(st.integers(0, dim))
    own_a = draw(st.integers(0, dim - common))
    own_b = draw(st.integers(0, dim - common))
    kinds = st.sampled_from(("generic", "generic", "generic", "zero", "full"))
    return dim, common, own_a, own_b, draw(kinds), draw(kinds), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300)
@given(operand_pairs())
def test_lattice_matches_projector_oracle(case):
    dim, common, own_a, own_b, kind_a, kind_b, seed = case
    rng = np.random.default_rng(seed)
    shared = _gaussian(rng, dim, common)
    vectors_a = _operand(kind_a, dim, shared, _gaussian(rng, dim, own_a))
    vectors_b = _operand(kind_b, dim, shared, _gaussian(rng, dim, own_b))
    operands = []
    for vectors in (vectors_a, vectors_b):
        if vectors is None or vectors.shape[0] == 0:
            operands.append((zero_subspace(dim), np.zeros((dim, dim), dtype=np.complex128)))
        else:
            operands.append((span_subspace(vectors, dim), reference_span_subspace(vectors, dim)))
    (a, pa), (b, pb) = operands

    pairs = [
        (a, pa),
        (b, pb),
        (meet(a, b), reference_meet(pa, pb)),
        (join(a, b), reference_join(pa, pb)),
        (orthocomplement(a), reference_orthocomplement(pa)),
    ]
    for sub, projector in pairs:
        assert sub.rank == reference_rank(projector)
        assert np.max(np.abs(sub.projector - projector), initial=0.0) < 1e-9
    for outer, inner in ((0, 1), (1, 0), (0, 2), (3, 0), (3, 1), (2, 4)):
        (s_out, p_out), (s_in, p_in) = pairs[outer], pairs[inner]
        assert s_out.contains(s_in) is reference_contains(p_out, p_in)
    for sub, projector in pairs:
        for state in _probes(projector, rng):
            assert membership(state, sub) is reference_membership(state, projector)


@settings(max_examples=100)
@given(st.integers(2, 8), st.sampled_from((3e-5, 6e-5, 1e-3)), st.integers(0, 2**32 - 1))
def test_meet_and_join_near_the_angle_threshold_match_oracle(dim, angle, seed):
    # 1 - cos(angle) is 4.5e-10, 1.8e-9 and 5e-7: shared within tol = 1e-9 or not
    rng = np.random.default_rng(seed)
    frame = haar_unitary(dim, rng).entries
    phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
    vectors_a = frame[:, :1].T
    vectors_b = phase * (np.cos(angle) * frame[:, :1] + np.sin(angle) * frame[:, 1:2]).T
    a, pa = span_subspace(vectors_a, dim), reference_span_subspace(vectors_a, dim)
    b, pb = span_subspace(vectors_b, dim), reference_span_subspace(vectors_b, dim)
    assert meet(a, b).rank == reference_rank(reference_meet(pa, pb)) == (1 if angle < 4.4e-5 else 0)
    assert join(a, b).rank == reference_rank(reference_join(pa, pb)) == 2


@settings(max_examples=100)
@given(st.integers(2, 8), st.integers(1, 7), st.sampled_from((1e-11, 1e-6)), st.integers(0, 2**32 - 1))
def test_membership_near_the_tolerance_matches_oracle(dim, rank, eps, seed):
    # a state eps away from the subspace or from its complement: TRUE or
    # FALSE within tol = 1e-9 at eps = 1e-11, a gap at eps = 1e-6
    rank = min(rank, dim - 1)
    rng = np.random.default_rng(seed)
    frame = haar_unitary(dim, rng).entries
    vectors = frame[:, :rank].T
    sub, projector = span_subspace(vectors, dim), reference_span_subspace(vectors, dim)
    inside = frame[:, :rank] @ _gaussian(rng, rank, 1)[:, 0]
    outside = frame[:, rank:] @ _gaussian(rng, dim - rank, 1)[:, 0]
    inside, outside = inside / np.linalg.norm(inside), outside / np.linalg.norm(outside)
    for near, far, determinate in ((inside, outside, TruthValue.TRUE), (outside, inside, TruthValue.FALSE)):
        state = make_state(near + eps * far)
        want = determinate if eps < 1e-9 else TruthValue.GAP
        assert membership(state, sub) is reference_membership(state, projector) is want


def test_rank_zero_and_full_rank_operands_match_oracle():
    rng = np.random.default_rng(71)
    for dim in (2, 5, 8):
        zero, full = zero_subspace(dim), full_space(dim)
        p_zero = np.zeros((dim, dim), dtype=np.complex128)
        p_full = np.eye(dim, dtype=np.complex128)
        line_vectors = _gaussian(rng, dim, 1).T
        line, p_line = span_subspace(line_vectors, dim), reference_span_subspace(line_vectors, dim)
        cases = [
            (meet(zero, full), reference_meet(p_zero, p_full)),
            (join(zero, zero), reference_join(p_zero, p_zero)),
            (join(zero, full), reference_join(p_zero, p_full)),
            (meet(full, full), reference_meet(p_full, p_full)),
            (meet(line, zero), reference_meet(p_line, p_zero)),
            (join(line, full), reference_join(p_line, p_full)),
            (orthocomplement(zero), reference_orthocomplement(p_zero)),
            (orthocomplement(full), reference_orthocomplement(p_full)),
        ]
        for sub, projector in cases:
            assert sub.rank == reference_rank(projector)
            assert np.max(np.abs(sub.projector - projector)) < 1e-9
        for outer, p_outer in ((zero, p_zero), (full, p_full), (line, p_line)):
            for inner, p_inner in ((zero, p_zero), (full, p_full), (line, p_line)):
                assert outer.contains(inner) is reference_contains(p_outer, p_inner)
            for state in _probes(p_line, rng):
                assert membership(state, outer) is reference_membership(state, p_outer)


def test_projector_constructor_derives_an_orthonormal_basis():
    rng = np.random.default_rng(81)
    for rank in range(5):
        basis = haar_unitary(4, rng).entries[:, :rank]
        projector = basis @ basis.conj().T
        sub = Subspace(projector)
        assert sub.rank == rank
        assert np.allclose(sub.basis.conj().T @ sub.basis, np.eye(rank), atol=1e-12)
        assert np.allclose(sub.basis @ sub.basis.conj().T, projector, atol=1e-12)
        assert sub.projector is not projector and np.array_equal(sub.projector, projector)


def test_subspace_is_immutable():
    with pytest.raises(AttributeError):
        Z_PLUS.rank = 2
    with pytest.raises(ValueError):
        Z_PLUS.basis[0, 0] = 0
    with pytest.raises(ValueError):
        Z_PLUS.projector[0, 0] = 0
