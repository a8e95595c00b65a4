"""Cloning feasibility, truth transitions and history erasure.

The idealized copy map duplicates an arbitrary state onto a blank register.
No single unitary can do that for two states with partial overlap: unitarity
preserves inner products, so a machine cloning both a and b would force
<a,b> to equal its own square, which only orthogonal or identical rays
satisfy. The copy map is therefore never materialized as a matrix: the
runner's clone and unclone steps move the system to the state of one
register, and check_cloner_feasibility decides whether a unitary could.

Randomness is always passed in as an explicit seed, so concurrent runs with
distinct seeds are reproducible and independent.
"""

from __future__ import annotations

import numpy as np

from ._value import Value
from .errors import BadProbability, DimensionMismatch
from .hilbert import DEFAULT_TOL, StateVector, haar_state, inner
from .lattice import Subspace, TruthValue, membership


class FeasibilityReport(Value):
    """Verdict on whether one unitary could clone both members of a pair."""

    feasible: bool
    witness_overlap: float
    witness_overlap_squared: float
    detail: str


def check_cloner_feasibility(a: StateVector, b: StateVector, tol: float = DEFAULT_TOL) -> FeasibilityReport:
    """Decide whether a single unitary could copy both a and b.

    Unitarity preserves inner products, which forces the overlap of the pair
    to equal its own square. That holds only for orthogonal pairs and
    identical rays; any partial overlap is a witness of infeasibility.
    """
    if a.dim != b.dim:
        raise DimensionMismatch(f"feasibility check needs equal dims, got {a.dim} and {b.dim}")
    overlap = abs(inner(a, b))
    squared = overlap * overlap
    if overlap < tol:
        return FeasibilityReport(True, overlap, squared, "orthogonal pair: a basis-copy unitary exists")
    if 1.0 - overlap < tol:
        return FeasibilityReport(True, overlap, squared, "identical ray: rotating the blank onto the known state suffices")
    return FeasibilityReport(
        False,
        overlap,
        squared,
        f"unitarity would force overlap {overlap:.8f} to equal its square {squared:.8f}",
    )


def truth_transition(
    before: StateVector,
    after: StateVector,
    prop: Subspace,
    tol: float = DEFAULT_TOL,
) -> tuple[TruthValue, TruthValue]:
    """Membership verdicts for one proposition before and after an evolution."""
    return membership(before, prop, tol), membership(after, prop, tol)


# Below this many seeds, scalar draws beat the vectorised kernel's fixed cost.
_SCALAR_CUTOFF = 8


def sample_past_reconstruction(p_one: float, seeds) -> list[int]:
    """Draw the random bits that replace erased past truth values.

    Bit i is 1 exactly when ``np.random.default_rng(seeds[i]).random()`` is
    below p_one, so each bit is deterministic given its seed. The runner
    draws one sub-seed per lost key and, after a run's last step, passes
    every sub-seed of the run's ``reconstruct`` steps at one p at once, so
    the fixed cost below is paid once per run and p. A batch of fewer than
    _SCALAR_CUTOFF seeds draws each from its own ``default_rng``; a larger
    one computes the same bits in one vectorised pass. A p_one of one half
    reflects indifference between the two symmetric components of the
    state the record was erased into.

    Raises BadProbability unless p_one lies in [0, 1], and ValueError
    unless every seed is an int in [0, 2**64).
    """
    p = float(p_one)
    if not 0.0 <= p <= 1.0:
        raise BadProbability(f"p_one must lie in [0, 1], got {p_one!r}")
    types = set(map(type, seeds))
    # A Python int outside [0, 2**64) overflows the uint64 array below, but
    # a negative numpy integer would wrap, so it is compared here.
    if not all(issubclass(t, (int, np.integer)) for t in types) or (
        any(issubclass(t, np.signedinteger) for t in types) and min(seeds) < 0
    ):
        raise ValueError("seeds must be integers in [0, 2**64)")
    try:
        array = np.array(seeds, dtype=np.uint64)
    except OverflowError:
        raise ValueError("seeds must be integers in [0, 2**64)") from None
    if len(seeds) < _SCALAR_CUTOFF:
        return [int(np.random.default_rng(s).random() < p) for s in seeds]
    return (_first_uniforms(array) < p).astype(np.int64).tolist()


# The first ``random()`` of ``default_rng(seed)``, for many seeds at once.
# default_rng seeds PCG64 through a SeedSequence, whose stream numpy keeps
# stable (NEP 19); the steps below follow numpy's bit_generator.pyx and
# pcg64.h. All arithmetic is on uint32 or uint64 arrays, where it wraps
# silently; numpy scalars would warn on overflow. The SeedSequence words are
# hashed stacked, one row per word: the four pool words as one (4, n) array,
# the three mixes of one source word into the others as one (3, n) array
# (they read only the source, and each writes its own word), and the eight
# output words as one (8, n) array. The hash constants advance as numpy's
# do, one per hashed word, so row i of a stack takes the i-th of its run.
_MASK32 = 0xFFFFFFFF


def _hash_constants(start: int, mult: int, count: int) -> np.ndarray:
    consts = [start]
    for _ in range(count - 1):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)[:, None]


_ENTROPY_HASH = _hash_constants(0x43B0D7E5, 0x931E8875, 17)
_OUTPUT_HASH = _hash_constants(0x8B51F9DD, 0x58F38DED, 9)
_MIX_L, _MIX_R, _XSHIFT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)
_LOW32, _U1, _U11, _U32, _U58, _U63, _U64 = (
    np.uint64(c) for c in (_MASK32, 1, 11, 32, 58, 63, 64)
)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MULT_HI, _MULT_LO = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & (2**64 - 1))
_MULT_LO0, _MULT_LO1 = _MULT_LO & _LOW32, _MULT_LO >> _U32
#: Each source word of the pool mix: the words it mixes into, in order, and their constants.
_MIXES = [([dst for dst in range(4) if dst != src], _ENTROPY_HASH[4 + 3 * src:8 + 3 * src]) for src in range(4)]


def _hashmix(words: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """Hash row i of words with consts[i] and consts[i + 1]; one row broadcasts."""
    words = words ^ consts[:-1]
    words *= consts[1:]
    words ^= words >> _XSHIFT
    return words


def _pcg_step(hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray):
    """One PCG64 step, state * MULT + inc modulo 2**128, on hi/lo halves.

    Modulo 2**128, (hi:lo) * (MULT_HI:MULT_LO) has low half lo * MULT_LO
    and high half hi * MULT_LO + lo * MULT_HI plus the high half of the
    full product lo * MULT_LO, which is assembled from 32-bit limbs.
    """
    a0, a1 = lo & _LOW32, lo >> _U32
    cross0, cross1 = a0 * _MULT_LO1, a1 * _MULT_LO0
    mid = ((a0 * _MULT_LO0) >> _U32) + (cross0 & _LOW32) + (cross1 & _LOW32)
    hi = hi * _MULT_LO
    hi += lo * _MULT_HI
    hi += a1 * _MULT_LO1
    hi += cross0 >> _U32
    hi += cross1 >> _U32
    hi += mid >> _U32
    hi += inc_hi
    lo = lo * _MULT_LO
    lo += inc_lo
    hi += lo < inc_lo
    return hi, lo


def _first_uniforms(seeds: np.ndarray) -> np.ndarray:
    """``[default_rng(s).random() for s in seeds]`` for a 1-D uint64 array."""
    # SeedSequence: a seed below 2**64 is two entropy words, and the pool
    # words past the entropy hash as 0.
    pool = np.zeros((4, len(seeds)), dtype=np.uint32)
    pool[0] = seeds & _LOW32
    pool[1] = seeds >> _U32
    pool = _hashmix(pool, _ENTROPY_HASH[:5])
    for src, (into, consts) in enumerate(_MIXES):
        mixed = pool[into] * _MIX_L
        mixed -= _hashmix(pool[src], consts) * _MIX_R
        mixed ^= mixed >> _XSHIFT
        pool[into] = mixed
    # generate_state(4, uint64): eight hashed words, paired little-endian.
    words = _hashmix(np.concatenate((pool, pool)), _OUTPUT_HASH).astype(np.uint64)
    s0, s1, s2, s3 = words[0::2] | (words[1::2] << _U32)
    # PCG64 seeding: inc = (s2:s3) << 1 | 1, state = (inc + (s0:s1)) stepped.
    inc_hi = (s2 << _U1) | (s3 >> _U63)
    inc_lo = (s3 << _U1) | _U1
    lo = inc_lo + s1
    hi = inc_hi + s0
    hi += lo < inc_lo
    hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
    # random(): one more step, XSL-RR output, top 53 bits as a double.
    hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
    x = hi ^ lo
    rot = hi >> _U58
    x = (x >> rot) | (x << ((_U64 - rot) & _U63))
    return (x >> _U11) * 2.0**-53


def blackhole_evaporate(state: StateVector, seed: int) -> StateVector:
    """Toy evaporation: the input is swallowed and a uniformly random pure
    state of the same dimension is emitted, deterministically from the seed.

    The output carries no information about the input beyond its dimension,
    which is exactly what makes recorded truth values unrecoverable."""
    rng = np.random.default_rng(seed)
    return haar_state(state.dim, rng)
