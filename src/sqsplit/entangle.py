"""Logarithmic negativity between the two wells.

For a pure conditional state the trace norm of the partial transpose is
(sum of Schmidt coefficients)^2, so E = log2 ||rho^{T_L}||_1 comes from
a singular value decomposition of the amplitude matrix.  For the
sector mixture, blocks with different left atom number stay mutually
orthogonal under left partial transposition, so the trace norms add
with their sector weights.  A dense route that materializes the full
two-well density matrix and transposes the left factor explicitly is
kept as an independent cross-check for small N.

Mirror sectors n_left and N - n_left of the mixture are transposes of
each other and share their singular values, so a block whose amplitude
matrix equals the transpose of an already decomposed mirror reuses that
nuclear norm (checked elementwise, never by identity).  The certified
bracket also trims each block to the Fock rows and columns that carry
its weight and widens the upper bound by what the trim can have cost.
"""

import math
from dataclasses import dataclass

import numpy as np

from .specfun import log_binomial
from .statekit import ConditionalState, SplitFullState, SplitMixedState

__all__ = [
    "SchmidtSpectrum",
    "schmidt",
    "log_negativity_pure",
    "log_negativity_mixed",
    "log_negativity_bracket",
    "log_negativity_dense",
]


@dataclass(frozen=True)
class SchmidtSpectrum:
    """Nonincreasing Schmidt coefficients of a bipartite pure state."""

    coefficients: np.ndarray

    def __post_init__(self):
        lam = self.coefficients
        if np.any(lam < -1e-14):
            raise ValueError("Schmidt coefficients must be nonnegative")
        if np.any(np.diff(lam) > 1e-12):
            raise ValueError("Schmidt coefficients must be sorted nonincreasing")
        if abs(float(np.sum(lam * lam)) - 1.0) > 1e-10:
            raise ValueError("squared Schmidt coefficients must sum to 1")


def schmidt(state):
    """Schmidt spectrum of a ConditionalState across the two wells."""
    lam = np.linalg.svd(state.psi, compute_uv=False)
    return SchmidtSpectrum(lam)


def log_negativity_pure(state):
    """log2 of the partial-transpose trace norm of a pure two-well state.

    Equals 2 log2(sum of Schmidt coefficients); zero iff the state is a
    product across the wells, at most log2(min(N_L, N_R) + 1).
    """
    lam = schmidt(state).coefficients
    return 2.0 * math.log2(float(np.sum(lam)))


# Squared norm the bracket may drop from each block before its SVD:
# far below the width the truncation window already leaves, so the
# trim widens the bracket only at roundoff level.
_TRIM_BUDGET = 1e-30


def _nuclear_norm_bounds(psi, budget):
    """(s, slack) with s <= ||psi||_* <= s + slack.

    The smallest-norm rows and columns are dropped while their summed
    squared norm d stays <= budget, and s is the nuclear norm of the
    kept submatrix.  A compression never raises singular values, so s
    is a lower bound.  The dropped part has Frobenius norm <= sqrt(d)
    and rank r <= #dropped rows + #dropped columns, so its nuclear norm,
    and with it the gap, is at most sqrt(r d).  budget = 0 keeps the
    whole matrix and the slack is exactly 0.
    """
    slack = 0.0
    if budget > 0.0:
        abs2 = psi.real**2 + psi.imag**2
        norms = np.concatenate((abs2.sum(axis=1), abs2.sum(axis=0)))
        order = np.argsort(norms, kind="stable")
        n_drop = int(np.searchsorted(np.cumsum(norms[order]), budget, side="right"))
        if n_drop:
            m, n = psi.shape
            keep = np.ones(m + n, dtype=bool)
            keep[order[:n_drop]] = False
            slack = math.sqrt(min(m, n, n_drop) * float(np.sum(norms[~keep])))
            psi = psi[np.ix_(keep[:m], keep[m:])]
    lam = np.linalg.svd(psi, compute_uv=False)
    return float(np.sum(lam)), slack


def _block_trace_norms(mixture, budget=0.0):
    """(weight, s, slack) per block, s <= ||psi||_* <= s + slack.

    The block's trace-norm term in ||rho^{T_L}||_1 is weight ||psi||_*^2.
    A block whose psi equals the transpose of its mirror's reuses the
    mirror's bounds; each block keeps its own weight.
    """
    done = {}
    terms = []
    for weight, block in mixture.blocks:
        mirror = done.get(block.n_right)
        if mirror is not None and np.array_equal(mirror[0], block.psi.T):
            bounds = mirror[1]
        else:
            bounds = _nuclear_norm_bounds(block.psi, budget)
        done[block.n_left] = (block.psi, bounds)
        terms.append((weight, *bounds))
    return terms


def log_negativity_mixed(mixture):
    """Logarithmic negativity of the sector mixture.

    Blocks at different left atom number remain orthogonal after left
    partial transposition, so ||rho^{T_L}||_1 = sum_l p_l (sum lambda^(l))^2.
    Mirror blocks that are transposes share one SVD; nothing is trimmed,
    so the result is exact.  Requires the untruncated mixture; for
    truncated ones use log_negativity_bracket.
    """
    deficit = 1.0 - mixture.retained_mass
    if deficit > 1e-9:
        raise ValueError(
            "mixture is truncated; log_negativity_bracket gives certified bounds"
        )
    total = sum(w * s**2 for w, s, _ in _block_trace_norms(mixture))
    return math.log2(total)


def log_negativity_bracket(mixture):
    """Certified [lower, upper] bounds on the mixed log negativity.

    Missing sectors contribute a trace-norm factor between 1 (product)
    and min(N_L, N_R) + 1 (maximally entangled), weighted by their
    untruncated probabilities.  Present blocks are trimmed to the Fock
    rows and columns outside a dropped squared norm d <= 1e-30 before
    their SVD: the kept submatrix's nuclear norm s bounds the block's
    from below and s + sqrt(r d) from above, r the rank the dropped
    rows and columns can hold, so the lower sum takes p s^2 and the
    upper p (s + sqrt(r d))^2.  Mirror blocks that are transposes share
    one SVD.
    """
    n = mixture.n_total
    terms = _block_trace_norms(mixture, _TRIM_BUDGET)
    low_total = sum(w * s**2 for w, s, _ in terms)
    high_total = sum(w * (s + slack) ** 2 for w, s, slack in terms)
    present = {block.n_left for _, block in mixture.blocks}
    low_extra = 0.0
    high_extra = 0.0
    for l in range(n + 1):
        if l in present:
            continue
        p = math.exp(log_binomial(n, l) - n * math.log(2.0))
        low_extra += p
        high_extra += p * (min(l, n - l) + 1)
    return math.log2(low_total + low_extra), math.log2(high_total + high_extra)


def _dense_basis(n):
    """Index map for the full two-well one-species-per-well Fock space:
    every (well atom number, mode-a count) pair, dim (n+1)(n+2)/2."""
    index = {}
    for pop in range(n + 1):
        for k in range(pop + 1):
            index[(pop, k)] = len(index)
    return index


def log_negativity_dense(state, max_n=8):
    """Dense partial-transpose route, independent of the Schmidt identity.

    Materializes the density matrix on the full tensor product of the
    two well spaces, transposes the left factor explicitly, and sums the
    absolute eigenvalues.  Exponential in memory, so refuses n_total
    beyond max_n (default 8).
    """
    if isinstance(state, ConditionalState):
        n = state.n_total
        parts = [(1.0, [(state.n_left, state.psi)])]
    elif isinstance(state, SplitMixedState):
        n = state.n_total
        parts = [(w, [(b.n_left, b.psi)]) for w, b in state.blocks]
    elif isinstance(state, SplitFullState):
        # coherent superposition over sectors, still one pure vector
        n = state.n_total
        parts = [(1.0, [(l, state.sector(l)) for l in range(n + 1)])]
    else:
        raise TypeError(
            "expected a ConditionalState, SplitMixedState or SplitFullState"
        )
    if n > max_n:
        raise ValueError(f"dense route limited to n_total <= {max_n}")

    index = _dense_basis(n)
    d = len(index)
    rho = np.zeros((d * d, d * d), dtype=complex)
    for weight, sectors in parts:
        vec = np.zeros(d * d, dtype=complex)
        for n_left, psi in sectors:
            for k_l in range(n_left + 1):
                il = index[(n_left, k_l)]
                for k_r in range(n - n_left + 1):
                    ir = index[(n - n_left, k_r)]
                    vec[il * d + ir] = psi[k_l, k_r]
        rho += weight * np.outer(vec, vec.conj())

    pt = np.transpose(rho.reshape(d, d, d, d), (2, 1, 0, 3)).reshape(d * d, d * d)
    scale = max(1.0, float(np.abs(pt).max()))
    if np.abs(pt - pt.conj().T).max() > 1e-10 * scale:
        raise AssertionError("partial transpose lost Hermiticity")
    eig = np.linalg.eigvalsh(pt)
    return math.log2(float(np.sum(np.abs(eig))))
