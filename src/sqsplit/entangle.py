"""Logarithmic negativity between the two wells.

For a pure conditional state the trace norm of the partial transpose is
(sum of Schmidt coefficients)^2, so E = log2 ||rho^{T_L}||_1 comes from
a singular value decomposition of the amplitude matrix.  For the
sector mixture, blocks with different left atom number stay mutually
orthogonal under left partial transposition, so the trace norms add
with their sector weights.  A dense route that materializes the
density matrix and transposes the left factor explicitly is kept as an
independent cross-check for small N.

The mixture from mixed_split_state is never built.  Its sectors follow
the paper's picture of the split-then-collapse state: each cloud
squeezed on its own, then an entangling operation.  With u = 2k_l - N_L
and v = 2k_r - N_R the sector phase (u + v)^2 t splits into the local
squeezings u^2 t and v^2 t, which are diagonal unitaries and leave the
singular values alone, and the entangler 2uv t.  The entangler's
amplitudes a_u b_v exp(2i t uv) are even under (u, v) -> (-u, -v), so
pairing each Fock state with its mirror splits them into two real
matrices C (cosines) and S (sines) of about half the side, and
||psi||_* = ||C||_* + ||S||_*.  Mirror sectors N_L and N - N_L share
them up to a transpose, so one SVD call serves both.

Every entangler phase is 2t m at an integer m = uv, so one mixture
fills a single table of cos(2tm) and sin(2tm) and each pair gathers its
C and S from it, bit for bit the entries a per-entry sin and cos would
give.  The certified bracket also trims C and S, and the trim does not
depend on t: since cos^2 + sin^2 = 1, row u of C (+) S has squared norm
w_u^2 a_u^2 at every t, and column v likewise.  So the kept part is the
leading block of small |u| and |v|, cut from the weight tails before
anything is built, and the upper bound widens by sqrt(r d), d the
dropped mass and r <= 2 min(m, n, dropped rows + dropped columns) the
rank the dropped part of the m x n matrices C and S can hold.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .specfun import log_binomial
from .statekit import (
    ConditionalState,
    SplitFullState,
    SplitMixedState,
    _coherent_half_weights,
)

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
        # each check is written so that a NaN or inf coefficient fails it
        if not np.all(lam >= -1e-14):
            raise ValueError("Schmidt coefficients must be nonnegative")
        if not np.all(np.diff(lam) <= 1e-12):
            raise ValueError("Schmidt coefficients must be sorted nonincreasing")
        if not abs(float(np.sum(lam * lam)) - 1.0) <= 1e-10:
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


# Squared norm the bracket may drop from the heaviest mirror pair before
# its SVD.  A pair of summed weight w gets _TRIM_BUDGET (w_max / w)^2, at
# most _TRIM_CAP, so every pair's weighted slack w sqrt(d) is the
# heaviest pair's, far below the width the truncation window already
# leaves: the trim widens the bracket only at roundoff level, and a
# light pair runs a smaller SVD.  The cap keeps a pair of vanishing
# weight from a slack larger than its own norm.
_TRIM_BUDGET = 1e-30
_TRIM_CAP = 1e-8


def _trim_budgets(weights, budget):
    """The trim budget of each block of the given weights (> 0):
    budget (w_max / w)^2, capped at max(budget, _TRIM_CAP); budget 0
    trims nothing.

    (w_max / w)^2 is a product, not a float **, which raises
    OverflowError where weights reach 1e-241 (n = 800, window 0); the
    product turns into inf there and the cap takes over.
    """
    if budget <= 0.0:
        return [0.0] * len(weights)
    top = max(weights)
    cap = max(budget, _TRIM_CAP)
    return [min(cap, budget * (top / w) * (top / w)) for w in weights]


def _phase_table(top, t):
    """cos and sin of the entangler phases 2t m, m = 0 .. top, as the
    two rows of one (2, top + 1) array.

    Every phase 2t uv is 2t m at the integer m = uv, and m * (2t) is
    the float product the entries take, so gathering from the table
    gives C and S bit for bit with a sin and a cos per distinct m
    instead of per entry.
    """
    table = np.empty((2, top + 1))
    np.multiply(np.arange(top + 1), 2.0 * t, out=table[0])
    np.sin(table[0], out=table[1])
    np.cos(table[0], out=table[0])
    return table


@lru_cache(maxsize=1024)
def _leading_axis(n, budget):
    """(u, wa, mass, dropped) for one well of n atoms.

    u >= 0 are the imbalances 2k - n whose rows (or columns) of C (+) S
    are kept, wa = w_u a_u their factors, mass the squared weight of
    all rows and dropped that of the rows cut off.  The row of u has
    squared norm wa_u^2 at every t, so the cut takes the largest u
    while their summed wa_u^2 stays <= budget; budget = 0 keeps all.

    Nothing here depends on t, so the result is cached per (n, budget),
    u and wa as read-only vectors of at most n / 2 + 1 entries; every
    mixture at one N and window asks for the same keys.
    """
    a = _coherent_half_weights(n)[(n + 1) // 2 :]
    wa = a * math.sqrt(2.0)
    if n % 2 == 0:
        wa[0] = a[0]  # w = 1 at u = 0
    tail = np.cumsum(np.square(wa[::-1]))
    n_drop = int(tail.searchsorted(budget, side="right")) if budget > 0.0 else 0
    keep = wa.size - n_drop
    u = np.arange(n % 2, n % 2 + 2 * keep, 2)
    wa = wa[:keep].copy()
    u.setflags(write=False)
    wa.setflags(write=False)
    return u, wa, float(tail[-1]), float(tail[n_drop - 1]) if n_drop else 0.0


def _entangler_bounds(n_left, n_right, t, budget, table=None, work=None):
    """(s, slack) bounds on ||psi||_* for effective_evolution(n_left,
    n_right, t), from real matrices C, S with ||psi||_* = ||C||_* +
    ||S||_*, in one SVD call.

    With u = 2k_l - N_L, v = 2k_r - N_R and half-weights a, b the
    amplitudes are a_u b_v exp(i t (u + v)^2).  Dropping the local
    squeezings exp(i t u^2), exp(i t v^2) leaves the entangler
    a_u b_v exp(2i t uv); a, b and uv are even under (u, v) -> (-u, -v),
    so the mirror-paired bases (|u> +- |-u>)/sqrt(2) split it into
    C[u, v] = w_u w_v a_u b_v cos(2tuv) on u, v >= 0 (w = 1 at 0,
    sqrt(2) elsewhere) and i S with S[u, v] = 2 a_u b_v sin(2tuv) on
    u, v > 0.  Both are orthogonal changes of basis, so C (+) S has the
    singular values of psi.  S keeps the zero u = 0 row and v = 0
    column.  The entries are gathered from table, _phase_table(top, t)
    for a top >= the largest kept uv (built here when None), into work,
    a float64 buffer of >= 2 entries per kept (u, v) that callers reuse.

    The trim does not depend on t.  Since cos^2 + sin^2 = 1 and
    sum_v w_v^2 b_v^2 = 1, row u of C (+) S has squared norm
    w_u^2 a_u^2 and column v has w_v^2 b_v^2, so the certified trim is
    the leading block u <= U, v <= V, with U and V cut from the weight
    tails at budget / 2 each (_leading_axis).  The kept block's nuclear
    norm s is a lower bound, as for any compression.  The dropped part
    has squared Frobenius norm <= d, the dropped row plus column mass
    (each times the other axis's total, 1 up to the weights' drift),
    and its C and S parts each rank <= min(m, n, dropped rows + dropped
    columns) for m x n matrices C and S, so r <= 2 min(m, n, dropped)
    and its nuclear norm, the gap, is at most sqrt(r d).
    """
    u, wa, mass_u, drop_u = _leading_axis(n_left, budget / 2.0)
    v, wb, mass_v, drop_v = _leading_axis(n_right, budget / 2.0)
    index = np.multiply.outer(u, v)
    if table is None:
        table = _phase_table(int(index[-1, -1]), t)
    elif index[-1, -1] >= table.shape[1]:
        raise ValueError("phase table is shorter than the largest kept uv")
    flat = np.empty(2 * index.size) if work is None else work[: 2 * index.size]
    parts = flat.reshape(2, u.size, v.size)
    # every index is in range, so take may skip its buffered bounds check
    np.take(table, index, axis=1, out=parts, mode="clip")
    # w_u w_v = 2 wherever sin(2tuv) can be nonzero
    parts *= wa[:, None]
    parts *= wb
    norm = float(flat @ flat)
    kept = (mass_u - drop_u) * (mass_v - drop_v)
    full = mass_u * mass_v
    if not (abs(norm - kept) <= 1e-9 and abs(full - 1.0) <= 1e-9):
        raise ValueError(
            f"conditional state is not normalized (norm^2 = {norm + full - kept})"
        )
    m, n = n_left // 2 + 1, n_right // 2 + 1
    dropped = m - u.size + n - v.size
    slack = math.sqrt(2 * min(m, n, dropped) * (drop_u * mass_v + drop_v * mass_u))
    lam = np.linalg.svd(parts, compute_uv=False)
    return float(lam.sum()), slack


def _block_trace_norms(mixture, budget=0.0):
    """(weight, s, slack) per block, s <= ||psi||_* <= s + slack.

    The block's trace-norm term in ||rho^{T_L}||_1 is weight ||psi||_*^2.
    A mixture that records its twisting time is never built: each
    mirror pair min(N_L, N_R) is bounded once from its real entangler
    parts C and S, gathered from one phase table sized to the largest
    kept uv, and each block keeps its own weight.  budget is the squared
    norm the heaviest pair may drop; every other pair gets budget
    (w_max / w)^2 of its summed weight, capped (_trim_budgets), so that
    w sqrt(d), and with it the pair's share of the bracket width, is
    the heaviest pair's.  A mixture assembled from arbitrary blocks is
    decomposed block by block, each whole: s is its exact nuclear norm
    and the slack is 0 at any budget.
    """
    if mixture.t is None:
        return [
            (w, float(np.sum(np.linalg.svd(b.psi, compute_uv=False))), 0.0)
            for w, b in mixture.blocks
        ]
    n = mixture.n_total
    pairs = {}
    for weight, n_left in mixture.sectors:
        low = min(n_left, n - n_left)
        pairs[low] = pairs.get(low, 0.0) + weight
    budgets = dict(zip(pairs, _trim_budgets(list(pairs.values()), budget)))
    # the kept extents, which depend on the weights alone, size the table
    kept = [
        (_leading_axis(low, d / 2.0)[0], _leading_axis(n - low, d / 2.0)[0])
        for low, d in budgets.items()
    ]
    table = _phase_table(max(int(u[-1] * v[-1]) for u, v in kept), mixture.t)
    work = np.empty(2 * max(u.size * v.size for u, v in kept))
    done = {
        low: _entangler_bounds(low, n - low, mixture.t, d, table, work)
        for low, d in budgets.items()
    }
    return [(weight, *done[min(n_left, n - n_left)]) for weight, n_left in mixture.sectors]


def _largest_svd_input(mixture):
    """Largest entry count m n of a matrix _block_trace_norms decomposes,
    before any trim."""
    if mixture.t is None:
        return max((b.psi.size for _, b in mixture.blocks), default=0)
    n = mixture.n_total
    return max(((l // 2 + 1) * ((n - l) // 2 + 1) for _, l in mixture.sectors), default=0)


# Largest mass a window may drop before log_negativity_mixed refuses.
_DEFICIT_MAX = 1e-9


def _absent_sectors(mixture):
    """(p, n_left) for every sector the mixture leaves out, p its
    untruncated probability C(N, n_left)/2^N."""
    n = mixture.n_total
    present = {n_left for _, n_left in mixture.sectors}
    absent = [l for l in range(n + 1) if l not in present]
    logs = log_binomial(n, np.array(absent, dtype=np.int64)) - n * math.log(2.0)
    return [(math.exp(x), l) for x, l in zip(logs.tolist(), absent)]


def log_negativity_mixed(mixture):
    """Logarithmic negativity of the sector mixture.

    Blocks at different left atom number remain orthogonal after left
    partial transposition, so ||rho^{T_L}||_1 = sum_l p_l (sum lambda^(l))^2.
    Mirror blocks share one decomposition and nothing is trimmed, so
    the result is exact for an untruncated mixture.  A window may drop
    at most 1e-9 of the mass; its absent sectors count as product
    states, the least they can add, so the value is the untrimmed lower
    end of log_negativity_bracket.  For wider windows use the bracket.
    """
    deficit = 1.0 - mixture.retained_mass
    if deficit > _DEFICIT_MAX:
        raise ValueError(
            "mixture is truncated; log_negativity_bracket gives certified bounds"
        )
    total = sum(w * s**2 for w, s, _ in _block_trace_norms(mixture))
    total += sum(p for p, _ in _absent_sectors(mixture))
    return math.log2(total)


def log_negativity_bracket(mixture):
    """Certified [lower, upper] bounds on the mixed log negativity.

    Missing sectors contribute a trace-norm factor between 1 (product)
    and min(N_L, N_R) + 1 (maximally entangled), weighted by their
    untruncated probabilities.  In a mixture that records t, each mirror
    pair of present blocks shares one decomposition and is trimmed
    before its SVD, dropping a squared norm d: the kept submatrix's
    nuclear norm s bounds the block's from below and s + sqrt(r d) from
    above, r the rank the dropped rows and columns can hold, so the
    lower sum takes p s^2 and the upper p (s + sqrt(r d))^2.  The
    heaviest pair (weights summed) may drop d <= 1e-30 and one of
    weight p drops d <= 1e-30 (p_max / p)^2, at most 1e-8, so each
    term's slack p sqrt(d) is the heaviest one's and a light pair runs
    a smaller SVD.  The trim keeps the leading block |u| <= U, |v| <= V
    of the entangler parts C and S, U and V read off the weight tails
    alone (row u of C (+) S has squared norm w_u^2 a_u^2 at every t),
    with r <= 2 min(m, n, dropped rows + dropped columns) for m x n
    parts; the entries of the kept block come from one table of
    cos(2tm) and sin(2tm) per mixture, m = uv.  A mixture assembled
    from arbitrary blocks is not trimmed: each block is decomposed
    whole, s is exact and the slack 0.

    Both sums are then widened by the relative roundoff margin
    (K + 4 M) eps, K the number of terms and M the largest m n of a
    matrix to decompose, before its trim: LAPACK's backward error moves
    each of the r = min(m, n) singular values by <= max(m, n) eps
    sigma_1, so s by <= (m n + r) eps s and s^2 by <= 4 m n eps s^2.
    At N = 500 that is 1.4e-11.  Rounding in the entries (weights, phases) is not covered.
    """
    n = mixture.n_total
    terms = _block_trace_norms(mixture, _TRIM_BUDGET)
    absent = _absent_sectors(mixture)
    low = sum(w * s**2 for w, s, _ in terms) + sum(p for p, _ in absent)
    high = sum(w * (s + slack) ** 2 for w, s, slack in terms) + sum(
        p * (min(l, n - l) + 1) for p, l in absent
    )
    eps = np.finfo(float).eps
    margin = (len(terms) + len(absent) + 4 * _largest_svd_input(mixture)) * eps
    return math.log2(low * (1.0 - margin)), math.log2(high * (1.0 + margin))


def _dense_basis(n):
    """Index map for the full two-well one-species-per-well Fock space:
    every (well atom number, mode-a count) pair, dim (n+1)(n+2)/2."""
    index = {}
    for pop in range(n + 1):
        for k in range(pop + 1):
            index[(pop, k)] = len(index)
    return index


def _partial_transpose_trace_norm(rho, d_left, d_right):
    """||rho^{T_L}||_1 of a density matrix on a d_left x d_right product
    space, by transposing the left factor explicitly."""
    d = d_left * d_right
    pt = np.transpose(rho.reshape(d_left, d_right, d_left, d_right), (2, 1, 0, 3))
    pt = pt.reshape(d, d)
    scale = max(1.0, float(np.abs(pt).max()))
    # written so that a NaN or inf entry fails it
    if not np.abs(pt - pt.conj().T).max() <= 1e-10 * scale:
        raise AssertionError("partial transpose lost Hermiticity")
    return float(np.sum(np.abs(np.linalg.eigvalsh(pt))))


def log_negativity_dense(state, max_n=8):
    """Dense partial-transpose route, independent of the Schmidt identity.

    Materializes the density matrix, transposes the left factor
    explicitly, and sums the absolute eigenvalues.  A ConditionalState
    or SplitMixedState only occupies fixed-(N_L, N_R) subspaces, and the
    left transpose maps each onto itself, so each subspace is
    diagonalised on its own.  A SplitFullState is coherent across
    sectors and needs the full tensor product of the two well spaces.
    Refuses n_total beyond max_n (default 8).
    """
    if not isinstance(state, (ConditionalState, SplitMixedState, SplitFullState)):
        raise TypeError(
            "expected a ConditionalState, SplitMixedState or SplitFullState"
        )
    n = state.n_total
    if n > max_n:
        raise ValueError(f"dense route limited to n_total <= {max_n}")
    if isinstance(state, SplitFullState):
        # coherent superposition over sectors, still one pure vector
        index = _dense_basis(n)
        d = len(index)
        vec = np.zeros(d * d, dtype=complex)
        for n_left in range(n + 1):
            psi = state.sector(n_left)
            for k_l in range(n_left + 1):
                il = index[(n_left, k_l)]
                for k_r in range(n - n_left + 1):
                    vec[il * d + index[(n - n_left, k_r)]] = psi[k_l, k_r]
        return math.log2(_partial_transpose_trace_norm(np.outer(vec, vec.conj()), d, d))
    blocks = [(1.0, state)] if isinstance(state, ConditionalState) else state.blocks
    sectors = {}
    for weight, block in blocks:
        vec = block.psi.reshape(-1)
        rho = sectors.get(block.n_left, 0.0)
        sectors[block.n_left] = rho + weight * np.outer(vec, vec.conj())
    total = sum(
        _partial_transpose_trace_norm(rho, n_left + 1, n - n_left + 1)
        for n_left, rho in sectors.items()
    )
    return math.log2(total)
