"""Logarithmic negativity between the two wells.

For a pure conditional state the trace norm of the partial transpose is
(sum of Schmidt coefficients)^2, so E = log2 ||rho^{T_L}||_1 comes from
a singular value decomposition.  For the sector mixture, blocks with
different left atom number stay mutually orthogonal under left partial
transposition, so the trace norms add with their sector weights.  The
dense route that materializes the density matrix and transposes the
left factor explicitly, and the complex SVD of the amplitude matrix,
check both from sqsplit._oracles (in `sqsplit verify` and the tests).

No amplitude matrix is decomposed.  A conditional state, and each
sector of the mixture from mixed_split_state, is the paper's split-then-
collapse state: each cloud squeezed on its own, then an entangler.  With u = 2k_l - N_L
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
C and S from it (_phase_table).  The certified bracket also trims C and
S to a leading block cut from the weight tails alone, which does not
depend on t (_entangler_spectrum).
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .specfun import log_binomial
from .statekit import _NORM_TOL, _coherent_half_weights

__all__ = [
    "SchmidtSpectrum",
    "schmidt",
    "log_negativity_pure",
    "log_negativity_mixed",
    "log_negativity_bracket",
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
        # the tolerance of the ConditionalState whose spectrum this is
        if not abs(float(np.sum(lam * lam)) - 1.0) <= _NORM_TOL:
            raise ValueError("squared Schmidt coefficients must sum to 1")


def schmidt(state):
    """Schmidt spectrum of a ConditionalState across the two wells: the
    min(N_L, N_R) + 1 largest singular values of its real entangler
    parts C and S (C (+) S may hold one more, a zero of S's zero row)."""
    lam, _ = _entangler_spectrum(state.n_left, state.n_right, state.t, 0.0)
    return SchmidtSpectrum(np.sort(lam, axis=None)[::-1][: min(state.n_left, state.n_right) + 1])


def log_negativity_pure(state):
    """log2 of the partial-transpose trace norm of a ConditionalState.

    Equals 2 log2(sum of Schmidt coefficients), here the untrimmed
    nuclear norm of its real entangler parts C and S; zero iff the state
    is a product across the wells, at most log2(min(N_L, N_R) + 1).
    """
    s, _ = _entangler_bounds(state.n_left, state.n_right, state.t, 0.0)
    return 2.0 * math.log2(s)


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
    """(s, slack) bounds on ||psi||_*, s the sum of _entangler_spectrum."""
    lam, slack = _entangler_spectrum(n_left, n_right, t, budget, table, work)
    return float(lam.sum()), slack


def _entangler_spectrum(n_left, n_right, t, budget, table=None, work=None):
    """(singular values, slack) of the real matrices C, S with
    ||psi||_* = ||C||_* + ||S||_* for effective_evolution(n_left,
    n_right, t), in one SVD call; the values are those of C, then S.

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
    if not (abs(norm - kept) <= _NORM_TOL and abs(full - 1.0) <= _NORM_TOL):
        raise ValueError(
            f"conditional state is not normalized (norm^2 = {norm + full - kept})"
        )
    m, n = n_left // 2 + 1, n_right // 2 + 1
    dropped = m - u.size + n - v.size
    slack = math.sqrt(2 * min(m, n, dropped) * (drop_u * mass_v + drop_v * mass_u))
    return np.linalg.svd(parts, compute_uv=False), slack


def _block_trace_norms(mixture, budget=0.0):
    """(weight, s, slack) per block, s <= ||psi||_* <= s + slack.

    The block's trace-norm term in ||rho^{T_L}||_1 is weight ||psi||_*^2.
    The mixture is never built: each mirror pair min(N_L, N_R) is
    bounded once from its real entangler parts C and S, gathered from
    one phase table sized to the largest kept uv, and each block keeps
    its own weight.  budget is the squared norm the heaviest pair may
    drop; every other pair gets budget (w_max / w)^2 of its summed
    weight, capped (_trim_budgets), so that w sqrt(d), and with it the
    pair's share of the bracket width, is the heaviest pair's.
    """
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
    pair of present blocks shares one decomposition of its entangler
    parts C and S, trimmed to their leading block before the SVD
    (_entangler_spectrum), dropping a squared norm d: the kept nuclear
    norm s bounds the block's from below and s + sqrt(r d) from above,
    so the lower sum takes p s^2 and the upper p (s + sqrt(r d))^2.
    The heaviest pair (weights summed) may drop d <= 1e-30 and one of
    weight p drops d <= 1e-30 (p_max / p)^2, at most 1e-8, so each
    term's slack p sqrt(d) is the heaviest one's and a light pair runs
    a smaller SVD.

    Both sums are then widened by the relative roundoff margin
    (K + 4 M) eps, K the number of terms and M the largest m n of a
    matrix to decompose, before its trim: LAPACK's backward error moves
    each of the r = min(m, n) singular values by <= max(m, n) eps
    sigma_1, so s by <= (m n + r) eps s and s^2 by <= 4 m n eps s^2.
    At N = 500 that is 1.4e-11.  Rounding in the entries (weights,
    phases) is not covered.
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
