import math
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
from svq.lattice import _from_basis, _svd

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


@pytest.mark.parametrize(
    "projector",
    [np.diag([np.inf, 0]), np.diag([np.nan, 1]), [[1, complex(0, np.inf)], [0, 0]], [[0.5, 0.5], [np.nan, 0.5]]],
)
def test_projector_constructor_rejects_non_finite_entries(projector):
    # inf used to raise OverflowError from round(), nan "cannot convert float
    # NaN to integer", both after numpy RuntimeWarnings.
    with pytest.raises(ValueError, match="projector entries must be finite"):
        Subspace(projector)


@pytest.mark.parametrize(
    "projector, check",
    [
        (np.full((2, 2), 1e308), "idempotent"),
        (np.diag([1e308, 0]), "idempotent"),
        (np.full((2, 2), complex(1e308, 1e308)), "Hermitian"),
        ([[1e308, 1e308j], [-1e308j, 1e308]], "idempotent"),
    ],
)
def test_projector_constructor_rejects_huge_entries_without_warning(projector, check):
    # The products overflow to inf or nan; nan must fail the check too.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"not {check} within tolerance"):
            Subspace(projector)


# differential oracle of the dense-work rewrite --------------------------------
#
# membership, join and orthocomplement as they were before each did only the
# dense work its answer needs, kept as the oracle of that rewrite. They work on
# the bases of Subspace objects, so the oracle shares no code with the functions
# under test: membership always formed the rejected vector, join took the thin
# SVD of the stacked bases, and orthocomplement a complete QR.

EPS = float(np.finfo(np.float64).eps)
ANGLES = (1e-14, 1e-10, 1.5e-9, 3e-9, 1e-8, 1e-6)  # about the join threshold near 2e-9


def stacked_svd_join(qa: np.ndarray, qb: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    stacked = np.hstack([qa, qb])
    try:
        u, s, _ = np.linalg.svd(stacked, full_matrices=False)
    except np.linalg.LinAlgError:
        # LAPACK's gesdd fails to converge on a few stacked bases with
        # clusters of tiny singular values; the adjoint's SVD gives the same
        # factors, with U from its right singular vectors.
        _, s, uh = np.linalg.svd(stacked.conj().T, full_matrices=False)
        u = uh.conj().T
    if s.size == 0:
        return np.zeros((qa.shape[0], 0), dtype=np.complex128)
    return u[:, : int(np.sum(s > tol * s[0]))]


def complete_qr_orthocomplement(q: np.ndarray) -> np.ndarray:
    full, _ = np.linalg.qr(q, mode="complete")
    return full[:, q.shape[1]:]


def rejected_vector_membership(state, q: np.ndarray, tol: float = 1e-9) -> TruthValue:
    # r is formed with membership's own calls, so that where r is tol to
    # rounding both round it alike.
    psi = state.amplitudes
    coords = np.dot(np.ascontiguousarray(q.conj().T), psi)  # the layout of Subspace._adjoint
    rejected = np.dot(q, coords)
    np.subtract(psi, rejected, out=rejected)
    r = math.sqrt(np.vdot(rejected, rejected).real)
    s = math.sqrt(np.vdot(coords, coords).real)
    if r < tol:
        return TruthValue.TRUE
    if s < tol:
        return TruthValue.FALSE
    return TruthValue.GAP


def skip_margin(dim: int, rank: int, s2: float, tol: float) -> float:
    """membership's delta, as its docstring states it."""
    return rank * 1e-9 * s2 + (1 + tol) * 16 * (dim + rank + 4) * math.sqrt(rank + 1) * EPS


def projector_of(q: np.ndarray) -> np.ndarray:
    return q @ q.conj().T


def frame_of(kind: str, dim: int, rng) -> np.ndarray:
    """A unitary whose columns are Haar-random or signed coordinate axes."""
    if kind == "haar":
        return haar_unitary(dim, rng).entries
    # A column that is +-1 times an axis needs no Householder reflection: tau = 0.
    axes = np.eye(dim, dtype=np.complex128)[:, rng.permutation(dim)]
    return axes * rng.choice([1.0, -1.0], dim)


@settings(max_examples=300)
@given(
    st.integers(2, 64),
    st.data(),
    st.sampled_from(("haar", "axes")),
    st.sampled_from((1e-9, 0.3)),
    st.sampled_from((0.0, 0.5, 0.99, 1.01, 2.0)),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_membership_matches_the_rejected_vector_oracle_about_the_skip_margin(
    dim, data, kind, tol, multiple, shrink, seed
):
    skip_margin_case(dim, data.draw(st.integers(0, dim)), kind, tol, multiple, shrink, seed)


def test_membership_matches_the_rejected_vector_oracle_at_r_equal_to_tol():
    # At multiple 0, r is tol to rounding: membership's products gave r =
    # 0.29999999999999993 (TRUE) where the oracle's @ and - once gave 0.3 (GAP).
    skip_margin_case(3, 1, "haar", 0.3, 0.0, False, 251)


def skip_margin_case(dim, rank, kind, tol, multiple, shrink, seed):
    """Check a state with |psi|^2 - s^2 = tol^2 + m delta for the margin
    multiple m, so each side of the switch that skips the rejected vector is
    reached. A shrunk basis has Q^dagger Q = I - 0.9e-9 e e^T, e the all-ones
    vector, a Gram error that _from_basis allows and that reaches
    k DEFAULT_TOL s^2 for coordinates along e: then r < tol for m < 0.9,
    though m > 0."""
    rng = np.random.default_rng(seed)
    frame = frame_of(kind, dim, rng)
    basis, shrink = frame[:, :rank], shrink and rank > 0
    coords = np.ones(rank) if shrink else _gaussian(rng, rank, 1)[:, 0]
    lam = 1.0
    if shrink:
        lam = 1 - 0.9e-9 * rank
        basis = basis + (math.sqrt(lam) - 1) * np.outer(basis @ coords, coords) / rank
    sub = _from_basis(basis)
    inside = basis @ coords
    outside = frame[:, rank:] @ _gaussian(rng, dim - rank, 1)[:, 0]
    if rank == 0:
        psi = outside
    elif rank == dim:
        psi = inside
    else:
        # Solve 1 - s^2 = tol^2 + m delta for the weight of the outside part.
        slack = rank * 1e-9 * multiple
        target = tol * tol + multiple * skip_margin(dim, rank, 0.0, tol)
        sin2 = max((slack - (1 - lam) * (1 + slack) + target) / (lam * (1 + slack)), 0.0)
        psi = math.sqrt(1 - sin2) * inside / np.linalg.norm(inside)
        psi = psi + math.sqrt(sin2) * outside / np.linalg.norm(outside)
    state = make_state(psi)
    assert membership(state, sub, tol) is rejected_vector_membership(state, sub.basis, tol)
    if 0 < rank < dim and multiple in (0.99, 1.01) and not shrink:
        amplitudes = state.amplitudes
        s2 = float(np.linalg.norm(sub._adjoint @ amplitudes) ** 2)
        gap = float(np.vdot(amplitudes, amplitudes).real) - s2 - tol * tol
        assert (gap > skip_margin(dim, rank, s2, tol)) is (multiple > 1)


@settings(max_examples=300)
@given(
    st.integers(2, 64),
    st.data(),
    st.sampled_from(("haar", "axes")),
    st.sampled_from(ANGLES),
    st.integers(0, 2**32 - 1),
)
def test_join_matches_the_stacked_svd_oracle_about_the_threshold(dim, data, kind, angle, seed):
    # b has a column at the drawn angle from a's first, columns that a holds
    # too and fresh ones, so ranks 0 and d and dropped, kept and shared
    # directions all occur.
    rng = np.random.default_rng(seed)
    frame = frame_of(kind, dim, rng)
    rank_a = data.draw(st.integers(0, dim))
    tilted = 0 < rank_a < dim and data.draw(st.booleans())
    shared = data.draw(st.integers(0, max(rank_a - 1, 0)))
    fresh = data.draw(st.integers(0, dim - rank_a - tilted))
    cols = [frame[:, 1 : 1 + shared], frame[:, rank_a + tilted : rank_a + tilted + fresh]]
    if tilted:
        cols.append(np.cos(angle) * frame[:, :1] + np.sin(angle) * frame[:, rank_a : rank_a + 1])
    rank_b = shared + fresh + tilted
    mix = haar_unitary(rank_b, rng).entries if kind == "haar" and rank_b > 0 else np.eye(rank_b)
    a, b = _from_basis(frame[:, :rank_a]), _from_basis(np.hstack(cols) @ mix)
    # Within a factor 5 of the threshold the join's condition number is
    # 1/angle: rounding of eps in either implementation moves the kept
    # direction by about eps/angle (a stacked SVD as much as the residual).
    bound = 1e-9 + (4 * dim * EPS / angle if tilted and angle in (3e-9, 1e-8) else 0.0)
    for first, second in ((a, b), (b, a)):
        got, want = join(first, second), stacked_svd_join(first.basis, second.basis)
        assert got.rank == want.shape[1] == rank_a + fresh + (tilted and angle > 2e-9)
        assert np.max(np.abs(got.projector - projector_of(want)), initial=0.0) < bound


@settings(max_examples=200)
@given(st.integers(2, 64), st.data(), st.sampled_from(("haar", "axes", "mixed")), st.integers(0, 2**32 - 1))
def test_orthocomplement_matches_the_complete_qr_oracle(dim, data, kind, seed):
    # "mixed" puts Haar columns after coordinate axes, so reflectors with
    # tau = 0 and tau != 0 meet in one T.
    rank = data.draw(st.integers(0, dim))
    rng = np.random.default_rng(seed)
    basis = frame_of("axes" if kind == "mixed" else kind, dim, rng)[:, :rank]
    if kind == "mixed" and rank > 1:
        half = rank // 2
        rest = complete_qr_orthocomplement(basis[:, :half]) @ haar_unitary(dim - half, rng).entries
        basis = np.hstack([basis[:, :half], rest[:, : rank - half]])
    sub = _from_basis(basis)
    got, want = orthocomplement(sub), complete_qr_orthocomplement(sub.basis)
    assert got.rank == want.shape[1] == dim - rank
    assert np.max(np.abs(got.projector - projector_of(want)), initial=0.0) < 1e-9
    assert np.max(np.abs(sub._adjoint @ got.basis), initial=0.0) < 1e-12


# One-vector spans -----------------------------------------------------------
#
# span_subspace takes a single vector without an SVD. svd_span is the path it
# took before, the thin SVD of the spanning matrix (two or more vectors now
# take a thin QR and the singular values of R), kept as the oracle of that rule.


def svd_span(vectors, dim: int, tol: float = 1e-9) -> Subspace:
    cols = []
    for v in vectors:
        arr = np.asarray(v, dtype=np.complex128).reshape(-1)
        if arr.shape[0] != dim:
            raise DimensionMismatch(f"spanning vector has length {arr.shape[0]}, expected {dim}")
        cols.append(arr)
    if not cols:
        raise EmptySpan("no spanning vectors given")
    basis_matrix = np.column_stack(cols)
    if not np.all(np.isfinite(basis_matrix)):
        raise ValueError("spanning vectors must be finite")
    if float(np.max(np.abs(basis_matrix))) <= tol:
        raise EmptySpan("every spanning vector is numerically zero")
    u, s = _svd(basis_matrix)
    if not math.isfinite(s[0]):
        # The largest singular value overflowed: bring the largest part to 1 first.
        basis_matrix /= np.max(np.maximum(np.abs(basis_matrix.real), np.abs(basis_matrix.imag)))
        u, s = _svd(basis_matrix)
    return _from_basis(u[:, : int(np.sum(s > tol * s[0]))])


def largest_part(v: np.ndarray) -> float:
    return float(np.max(np.maximum(np.abs(v.real), np.abs(v.imag)), initial=0.0))


@st.composite
def one_vector_cases(draw):
    """(vector, dim, tol): Gaussian vectors at scales from 1e-3 to 1e3, with
    entries zeroed now and then; vectors whose max |v_i| is tol (1 +- 1e-3);
    vectors whose largest part lies in [1e155, 1.7e308], where |v|^2
    overflows; entries about 1e-200 at tol 1e-250, where it underflows; and
    vectors with a non-finite entry, of the wrong length, or none at all."""
    kind = draw(st.sampled_from(("random", "tol-edge", "overflow", "underflow", "bad")))
    dim = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = _gaussian(rng, dim, 1)[:, 0]
    v[rng.random(dim) < 0.2] = 0.0
    if not largest_part(v):
        v[0] = 1.0
    tol = draw(st.sampled_from((1e-9, 1e-6, 1e-12, 0.1)))
    if kind == "random":
        v *= 10.0 ** rng.uniform(-3, 3)
    elif kind == "tol-edge":
        v *= tol * draw(st.sampled_from((1 - 1e-3, 1 + 1e-3))) / np.max(np.abs(v))
    elif kind == "overflow":
        v *= min(10.0 ** rng.uniform(155, 308.23), 1.7e308) / largest_part(v)
        tol = 1e-9
    elif kind == "underflow":
        v *= 1e-200 / largest_part(v)
        tol = 1e-250
    else:
        flaw = draw(st.sampled_from(("nan", "inf", "short", "long", "none")))
        if flaw == "none":
            return None, dim, tol
        if flaw in ("nan", "inf"):
            v[rng.integers(dim)] = complex(float(flaw), 0.0) if rng.random() < 0.5 else complex(0.0, float(flaw))
        else:
            v = v[:-1] if flaw == "short" else np.append(v, 1.0)
    return v, dim, tol


#: How a test passes one spanning vector: as the row of an array, as a
#: strided or reversed row, in a tuple or a list of Python numbers, or from
#: a generator.
CONTAINERS = {
    "ndarray": lambda v: np.array([v]),
    "strided": lambda v: np.stack([v, v], axis=1).T[:1],
    "reversed": lambda v: [np.array(v[::-1])[::-1]],
    "tuple": lambda v: (tuple(v.tolist()),),
    "list": lambda v: [v.tolist()],
    "generator": lambda v: (row for row in [v]),
}


def line_probes(v: np.ndarray, tol: float, rng):
    """States at angle theta from v, with the overlap cos(theta) and the
    rejection sin(theta) each of them has: along v, orthogonal to it, at a
    random angle, and with either part a few multiples of tol. None in C^1,
    where there are no states."""
    if v.shape[0] < 2:
        return
    x = v / largest_part(v)
    x /= np.linalg.norm(x)
    w = _gaussian(rng, x.shape[0], 1)[:, 0]
    w -= x * np.vdot(x, w)
    w /= np.linalg.norm(w)
    angles = [0.0, math.pi / 2, rng.uniform(0, math.pi / 2)]
    for m in (0.5, 2.0, 2e3, 1e4):
        if tol * m < 1:
            angles += [math.asin(tol * m), math.acos(tol * m)]
    for theta in angles:
        phase = np.exp(1j * rng.uniform(0, 2 * math.pi))
        yield make_state(phase * (math.cos(theta) * x + math.sin(theta) * w)), math.cos(theta), math.sin(theta)


@settings(max_examples=300)
@given(one_vector_cases(), st.sampled_from(tuple(CONTAINERS)), st.integers(0, 2**32 - 1))
def test_one_vector_span_matches_the_svd_path(case, container, seed):
    v, dim, tol = case
    outcomes = []
    for span in (span_subspace, svd_span):
        try:
            outcomes.append(span([] if v is None else CONTAINERS[container](v), dim, tol))
        except (DimensionMismatch, EmptySpan, ValueError) as err:
            outcomes.append((type(err), str(err)))
    got, want = outcomes
    if isinstance(want, tuple) or isinstance(got, tuple):
        assert got == want
        return
    assert got.rank == want.rank == 1
    assert np.max(np.abs(got.projector - want.projector)) < 1e-12
    # The construction fixes a probe's overlap and rejection to rounding,
    # about 1e-15, so those within 1e3 tol + 1e-12 of a boundary are skipped.
    margin = 1e3 * tol + 1e-12
    for state, overlap, rejection in line_probes(v, tol, np.random.default_rng([seed, 1])):
        if abs(overlap - tol) >= margin and abs(rejection - tol) >= margin:
            assert membership(state, got, tol) is membership(state, want, tol)


@pytest.mark.parametrize("vector, tol", [([2, 0], 1.5), ([0, 0], -1.0), ([1, 1j], math.nan), ([3, 4], 1.0)])
def test_one_vector_span_at_a_tol_outside_0_1_keeps_the_svd_rank_rule(vector, tol):
    # The SVD keeps no direction at tol >= 1, nor of a zero vector at tol < 0.
    outcomes = []
    for span in (span_subspace, svd_span):
        try:
            outcomes.append(span([vector], 2, tol).rank)
        except EmptySpan as err:
            outcomes.append(str(err))
    assert outcomes[0] == outcomes[1]


# SVD fallback ---------------------------------------------------------------

_SVD_RNG = np.random.default_rng(7)
_RANK_3_SPAN = (_gaussian(_SVD_RNG, 8, 3) @ _gaussian(_SVD_RNG, 3, 6)).T
_SHARED = _gaussian(_SVD_RNG, 8, 2)
# Two rank-4 subspaces of C^8 that share two directions.
_PAIR = [span_subspace(np.hstack([_SHARED, _gaussian(_SVD_RNG, 8, 2)]).T, 8) for _ in range(2)]
_INDEPENDENT = _gaussian(_SVD_RNG, 8, 4).T

#: Each call of np.linalg.svd in the lattice: the caller, and which of its
#: SVD calls fails. A dependent span takes the vectors of R at once, an
#: independent one only R's values, and a rescaled one its SVD after the
#: rescale.
SVD_CALLERS = {
    "span": (lambda: span_subspace(_RANK_3_SPAN, 8), 1),
    "span-values": (lambda: span_subspace(_INDEPENDENT, 8), 1),
    "span-rescaled": (lambda: span_subspace([[1.7e308, 1.7e308], [1, 0]], 2), 1),
    "meet": (lambda: meet(*_PAIR), 1),
    "join": (lambda: join(*_PAIR), 1),
}


@pytest.mark.parametrize("caller", SVD_CALLERS)
def test_a_failed_svd_is_retried_on_the_adjoint(caller, monkeypatch):
    # gesdd can raise "SVD did not converge" on finite, well-scaled input.
    call, failing = SVD_CALLERS[caller]
    expected = call()
    svd, calls = np.linalg.svd, []

    def flaky_svd(matrix, *args, **kwargs):
        calls.append(matrix)
        if len(calls) == failing:
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", flaky_svd)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = call()
    assert len(calls) == failing + 1
    assert np.array_equal(calls[failing], calls[failing - 1].conj().T)
    assert result.rank == expected.rank
    assert projectors_close(result, expected, 1e-12)


@pytest.mark.parametrize("fails", [False, True], ids=["first-try", "retried"])
@pytest.mark.parametrize("caller", ["span", "meet", "join"])
def test_an_svd_that_returns_a_plain_tuple_gives_the_same_subspace(caller, fails, monkeypatch):
    # numpy 1.x returns (u, s, vh) as a plain tuple; only numpy 2's SVDResult names them.
    call, failing = SVD_CALLERS[caller]
    svd, calls, plain = np.linalg.svd, [], []

    def flaky_svd(matrix, *args, **kwargs):
        calls.append(matrix)
        if fails and len(calls) == failing:
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(matrix, *args, **kwargs)

    def tuple_svd(matrix, *args, **kwargs):
        out = flaky_svd(matrix, *args, **kwargs)
        if isinstance(out, np.ndarray):  # the values alone, as both numpys return them
            return out
        plain.append(matrix)
        return tuple(out)

    monkeypatch.setattr(np.linalg, "svd", flaky_svd)
    expected = call()
    calls.clear()
    monkeypatch.setattr(np.linalg, "svd", tuple_svd)
    result = call()
    assert len(calls) == failing + fails and plain
    assert result.rank == expected.rank
    assert np.array_equal(result.basis, expected.basis)
