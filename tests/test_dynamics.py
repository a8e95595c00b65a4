import numpy as np
import pytest

import svq.dynamics
from svq import (
    BadProbability,
    DimensionMismatch,
    NotCloneShape,
    StepError,
    TruthValue,
    blackhole_evaporate,
    check_cloner_feasibility,
    haar_state,
    inner,
    make_state,
    membership,
    parse_scenario,
    run_scenario,
    sample_past_reconstruction,
    span_subspace,
    tensor,
    truth_transition,
)
from svq.scenario import PropDecl, StateDecl
from svq.dynamics import _SCALAR_CUTOFF, _first_uniforms

UP = make_state([1, 0])
DOWN = make_state([0, 1])
PLUS = make_state([1, 1])
Z_PLUS = span_subspace([[1, 0]], 2)

# Basis-copy permutation on C^4 (pair index i*2+j): flips the second bit
# when the first is set, so it clones both computational basis states onto
# a blank [1, 0].
BASIS_COPY = np.array(
    [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ],
    dtype=complex,
)


def test_orthogonal_pair_is_feasible_and_copier_exists():
    report = check_cloner_feasibility(UP, DOWN)
    assert report.feasible
    assert report.witness_overlap == pytest.approx(0.0, abs=1e-12)
    # verify the explicit copier by matrix application on both inputs
    for state in (UP, DOWN):
        joint_in = tensor(state, UP)
        joint_out = BASIS_COPY @ joint_in.amplitudes
        want = tensor(state, state).amplitudes
        assert np.max(np.abs(joint_out - want)) < 1e-9
    gram = BASIS_COPY.conj().T @ BASIS_COPY
    assert np.max(np.abs(gram - np.eye(4))) < 1e-12


def test_partial_overlap_is_infeasible_with_witnesses():
    report = check_cloner_feasibility(UP, PLUS)
    assert not report.feasible
    assert report.witness_overlap == pytest.approx(0.70710678, abs=1e-8)
    assert report.witness_overlap_squared == pytest.approx(0.5, abs=1e-8)


def test_identical_ray_is_feasible():
    phase_twin = make_state([1j, 0])
    report = check_cloner_feasibility(UP, phase_twin)
    assert report.feasible
    assert report.witness_overlap == pytest.approx(1.0, abs=1e-12)


def test_feasibility_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        check_cloner_feasibility(UP, make_state([1, 0, 0]))


def test_random_pairs_feasibility_split():
    rng = np.random.default_rng(17)
    for _ in range(50):
        dim = int(rng.integers(2, 5))
        a = haar_state(dim, rng)
        while True:
            b = haar_state(dim, rng)
            overlap = abs(inner(a, b))
            if 1e-3 < overlap < 1 - 1e-3:
                break
        assert not check_cloner_feasibility(a, b).feasible
        raw = haar_state(dim, rng).amplitudes
        ortho = make_state(raw - inner(a, make_state(raw)) * a.amplitudes)
        assert check_cloner_feasibility(a, ortho).feasible


# The idealized copy map, through the runner's clone and unclone steps: a
# clone moves the system to its source's state, and an unclone to its blank.
# The system starts as the first declared state, and the props Z and X read
# where it went.

COPY_MAP_HEAD = """
state up = [1, 0]
state down = [0, 1]
state plus = [1, 1]
prop Z = span([1, 0])
prop X = span([1, 1])
"""


def truths_after(steps: str) -> list[dict]:
    """Each step's {prop: truth after it}, for steps run from the system up."""
    report = run_scenario(parse_scenario(COPY_MAP_HEAD + steps))
    return [{t["prop"]: t["after"] for t in step["transitions"]} for step in report.steps]


def test_ideal_clone_copies_first_factor():
    assert truths_after("clone plus -> up") == [{"Z": "0/0", "X": "1"}]


def test_ideal_clone_fixed_point():
    report = run_scenario(parse_scenario(COPY_MAP_HEAD + "record at 0\nclone up -> up\n"))
    clone = report.steps[-1]
    assert clone["feasibility"]["feasible"] and not clone["past_lost"]
    assert clone["transitions"] == [
        {"prop": "Z", "before": "1", "after": "1"},
        {"prop": "X", "before": "0/0", "after": "0/0"},
    ]


def test_ideal_clone_down_blank():
    assert truths_after("clone down -> up\nclone plus -> down") == [
        {"Z": "0", "X": "0/0"},
        {"Z": "0/0", "X": "1"},
    ]


def test_ideal_unclone_restores_blank():
    assert truths_after("clone plus -> up\nunclone plus blank up")[-1] == {"Z": "1", "X": "0/0"}


def test_ideal_unclone_identity_round_trip():
    assert truths_after("clone up -> up\nunclone up blank up") == [{"Z": "1", "X": "0/0"}] * 2


def test_ideal_unclone_rejects_non_clone_shape():
    with pytest.raises(StepError) as err:
        truths_after("clone plus -> up\nunclone up blank up")
    assert isinstance(err.value.cause, NotCloneShape)


def test_clone_unclone_round_trips_the_state():
    # Haar states u and p, and props U and P that hold of exactly them:
    # the clone moves the system to p, and the unclone back to its blank u.
    rng = np.random.default_rng(23)
    scenario = parse_scenario(
        "state u = [1, 0]\nstate p = [1, 1]\nprop U = span([1, 0])\nprop P = span([1, 1])\n"
        "clone p -> u\nunclone p blank u\n"
    )
    for _ in range(50):
        dim = int(rng.integers(2, 4))
        u, p = (tuple(haar_state(dim, rng).amplitudes.tolist()) for _ in range(2))
        values = {"u": u, "p": p, "U": u, "P": p}
        items = tuple(
            item._replace(components=values[item.name]) if isinstance(item, StateDecl)
            else item._replace(vectors=(values[item.name],)) if isinstance(item, PropDecl)
            else item
            for item in scenario.items
        )
        clone, unclone = run_scenario(scenario._replace(items=items)).steps
        assert [t["after"] for t in clone["transitions"]] == ["0/0", "1"]
        assert [t["after"] for t in unclone["transitions"]] == ["1", "0/0"]


def test_truth_transition_reproduces_loss_table():
    assert truth_transition(UP, PLUS, Z_PLUS) == (TruthValue.TRUE, TruthValue.GAP)
    assert truth_transition(DOWN, PLUS, Z_PLUS) == (TruthValue.FALSE, TruthValue.GAP)
    assert truth_transition(UP, UP, Z_PLUS) == (TruthValue.TRUE, TruthValue.TRUE)


def test_orthogonal_blank_exception_keeps_values_determinate():
    # unknown state on the z axis: copying moves the register between the
    # axis states, so the verdict stays determinate on both sides
    for unknown in (UP, DOWN):
        before, after = truth_transition(UP, unknown, Z_PLUS)
        assert before.is_determinate
        assert after.is_determinate


def test_sampling_degenerate_probabilities():
    assert sample_past_reconstruction(1.0, [3]) == [1]
    assert sample_past_reconstruction(0.0, [3]) == [0]


def test_sampling_is_deterministic_per_seed():
    a = sample_past_reconstruction(0.5, [42])
    b = sample_past_reconstruction(0.5, [42])
    assert a == b


def test_sampling_rejects_bad_probability():
    with pytest.raises(BadProbability):
        sample_past_reconstruction(1.5, [0])
    with pytest.raises(BadProbability):
        sample_past_reconstruction(-0.1, [0])


def test_sampling_mean_near_half():
    values = sample_past_reconstruction(0.5, list(range(2000)))
    assert 0.43 <= float(np.mean(values)) <= 0.57


EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1]


def reference_bits(p, seeds):
    return [int(np.random.default_rng(s).random() < p) for s in seeds]


def test_batched_bits_equal_one_default_rng_per_seed():
    rng = np.random.default_rng(2024)
    seeds = EDGE_SEEDS + rng.integers(0, 2**64, size=10_000, dtype=np.uint64).tolist()
    seeds += rng.integers(0, 2**32, size=1_000).tolist()
    uniforms = [np.random.default_rng(s).random() for s in seeds]
    for p in (0.5, 0.25, 0.9):
        assert sample_past_reconstruction(p, seeds) == [int(u < p) for u in uniforms]
    # Comparing at p = u for every edge draw u pins each bit to its exact double.
    edge_uniforms = uniforms[: len(EDGE_SEEDS)]
    for u in edge_uniforms:
        assert sample_past_reconstruction(u, EDGE_SEEDS) == [int(v < u) for v in edge_uniforms]


def test_kernel_uniforms_equal_one_default_rng_per_seed():
    # Steps below the scalar cutoff never reach the kernel, so check its
    # doubles exactly, on the edge seeds and on short random arrays.
    rng = np.random.default_rng(77)
    arrays = [np.array(EDGE_SEEDS, dtype=np.uint64)]
    arrays += [rng.integers(0, 2**64, size=n, dtype=np.uint64) for n in range(1, 17)]
    for seeds in arrays:
        got = _first_uniforms(seeds).tolist()
        assert got == [np.random.default_rng(s).random() for s in seeds.tolist()]


# The kernel as it was before it hashed the SeedSequence words stacked, one
# word at a time, kept as the oracle of the stacked one.


def word_hash_constants(start, mult, count):
    consts = [start]
    for _ in range(count - 1):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    return [np.uint32(c) for c in consts]


WORD_ENTROPY_HASH = word_hash_constants(0x43B0D7E5, 0x931E8875, 17)
WORD_OUTPUT_HASH = word_hash_constants(0x8B51F9DD, 0x58F38DED, 9)


def word_hashmix(value, consts, k):
    value = value ^ consts[k]
    value *= consts[k + 1]
    value ^= value >> np.uint32(16)
    return value


def word_by_word_first_uniforms(seeds):
    low32, u32 = np.uint64(0xFFFFFFFF), np.uint64(32)
    mix_l, mix_r = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
    pool = [(seeds & low32).astype(np.uint32), (seeds >> u32).astype(np.uint32)]
    pool += [np.zeros_like(pool[0]), np.zeros_like(pool[0])]
    pool = [word_hashmix(word, WORD_ENTROPY_HASH, k) for k, word in enumerate(pool)]
    k = len(pool)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = pool[dst] * mix_l
                mixed -= word_hashmix(pool[src], WORD_ENTROPY_HASH, k) * mix_r
                mixed ^= mixed >> np.uint32(16)
                pool[dst] = mixed
                k += 1
    words = [word_hashmix(pool[i % 4], WORD_OUTPUT_HASH, i).astype(np.uint64) for i in range(8)]
    s0, s1, s2, s3 = (words[2 * i] | (words[2 * i + 1] << u32) for i in range(4))
    one, u63 = np.uint64(1), np.uint64(63)
    inc_hi = (s2 << one) | (s3 >> u63)
    inc_lo = (s3 << one) | one
    lo = inc_lo + s1
    hi = inc_hi + s0
    hi += lo < inc_lo
    hi, lo = svq.dynamics._pcg_step(hi, lo, inc_hi, inc_lo)
    hi, lo = svq.dynamics._pcg_step(hi, lo, inc_hi, inc_lo)
    x = hi ^ lo
    rot = hi >> np.uint64(58)
    x = (x >> rot) | (x << ((np.uint64(64) - rot) & u63))
    return (x >> np.uint64(11)) * 2.0**-53


def test_stacked_kernel_equals_the_word_by_word_one():
    rng = np.random.default_rng(33)
    arrays = [np.array(EDGE_SEEDS, dtype=np.uint64)]
    arrays += [rng.integers(0, 2**64, size=n, dtype=np.uint64) for n in range(1, 65)]
    for seeds in arrays:
        assert _first_uniforms(seeds).tolist() == word_by_word_first_uniforms(seeds).tolist()
    # The oracle itself gives numpy's doubles.
    for seeds in (arrays[0], arrays[-1]):
        want = [np.random.default_rng(s).random() for s in seeds.tolist()]
        assert word_by_word_first_uniforms(seeds).tolist() == want


@pytest.mark.parametrize("n", [_SCALAR_CUTOFF - 1, _SCALAR_CUTOFF, _SCALAR_CUTOFF + 1])
def test_both_routes_give_the_reference_bits_at_the_cutoff(n, monkeypatch):
    kernel_calls = []

    def counting_kernel(seeds):
        kernel_calls.append(len(seeds))
        return _first_uniforms(seeds)

    monkeypatch.setattr(svq.dynamics, "_first_uniforms", counting_kernel)
    seeds = (EDGE_SEEDS * 2)[:n]
    edge_uniforms = [np.random.default_rng(s).random() for s in EDGE_SEEDS]
    probabilities = [0.0, 0.5, 1.0, *edge_uniforms]
    for p in probabilities:
        assert sample_past_reconstruction(p, seeds) == reference_bits(p, seeds)
    # Only a step of at least _SCALAR_CUTOFF keys pays the kernel's fixed cost.
    assert kernel_calls == ([n] * len(probabilities) if n >= _SCALAR_CUTOFF else [])


def test_batched_bits_at_degenerate_probabilities():
    seeds = EDGE_SEEDS + list(range(100, 400))
    assert sample_past_reconstruction(0.0, seeds) == [0] * len(seeds)
    assert sample_past_reconstruction(1.0, seeds) == [1] * len(seeds)


def test_batched_bits_are_python_ints_in_seed_order():
    seeds = np.random.default_rng(5).integers(0, 2**63, size=64)
    bits = sample_past_reconstruction(0.5, seeds)
    assert all(type(bit) is int for bit in bits)
    assert bits[::-1] == sample_past_reconstruction(0.5, seeds[::-1])
    assert bits == reference_bits(0.5, seeds.tolist())


def test_empty_seeds_give_no_bits():
    assert sample_past_reconstruction(0.5, []) == []
    with pytest.raises(BadProbability):
        sample_past_reconstruction(2.0, [])


#: Batch sizes that take the scalar route and the kernel's.
ROUTES = [2, _SCALAR_CUTOFF + 1]


NUMPY_NON_SEEDS = {"float64": np.float64(1), "int64-negative": np.int64(-1), "bool_": np.bool_(True), "0-d": np.array(5)}


@pytest.mark.parametrize(
    "bad", [-1, 2**64, 1.0, "7", None] + [pytest.param(bad, id=name) for name, bad in NUMPY_NON_SEEDS.items()]
)
def test_seeds_outside_uint64_are_rejected(bad):
    for n in ROUTES:
        with pytest.raises(ValueError):
            sample_past_reconstruction(0.5, [0] * (n - 1) + [bad])


NUMPY_SEEDS = {"uint64-max": np.uint64(2**64 - 1), "int8": np.int8(3)}


@pytest.mark.parametrize(
    "good", [True, False, 0, 2**63, 2**64 - 1] + [pytest.param(good, id=name) for name, good in NUMPY_SEEDS.items()]
)
def test_integer_seeds_in_uint64_are_accepted(good):
    for n in ROUTES:
        seeds = [7] * (n - 1) + [good]
        assert sample_past_reconstruction(0.5, seeds) == reference_bits(0.5, [int(s) for s in seeds])


def test_blackhole_deterministic_given_seed():
    once = blackhole_evaporate(UP, seed=9)
    again = blackhole_evaporate(UP, seed=9)
    assert np.array_equal(once.amplitudes, again.amplitudes)
    other = blackhole_evaporate(UP, seed=10)
    assert not np.allclose(once.amplitudes, other.amplitudes)


def test_blackhole_output_is_normalized():
    for seed in range(20):
        out = blackhole_evaporate(UP, seed=seed)
        assert abs(np.linalg.norm(out.amplitudes) - 1) < 1e-9


def test_blackhole_ignores_input_beyond_dimension():
    a = blackhole_evaporate(UP, seed=4)
    b = blackhole_evaporate(PLUS, seed=4)
    assert np.array_equal(a.amplitudes, b.amplitudes)


def test_blackhole_output_gaps_fixed_proposition():
    gaps = sum(
        membership(blackhole_evaporate(UP, seed=s), Z_PLUS) is TruthValue.GAP
        for s in range(200)
    )
    assert gaps >= 199
