"""Collective spin observables on two-well states.

Spin components per well follow the Schwinger convention
S^z |k> = (2k - N)|k>, S^x |k> = sqrt((k+1)(N-k))|k+1> + sqrt(k(N-k+1))|k-1>,
so [S^x, S^y] = 2i S^z and a fully polarized well has |<S>| = N.
First and second moments of the six components
(S_L^x, S_L^y, S_L^z, S_R^x, S_R^y, S_R^z) are collected into a
MomentSet: the symmetrized covariance matrix V and the commutator
matrix Omega that the entanglement witnesses consume.  moments() reads
the split state and one number-collapsed sector of it; both are the
one-axis-twisted coherent state seen through the wells, so every moment
is O(1) from the Kitagawa & Ueda closed forms and no amplitude is built.
The stencils that apply each component to an amplitude matrix, O(N^2)
per sector, are the oracle in sqsplit._oracles.
"""

import math
from dataclasses import dataclass

import numpy as np

from .statekit import ConditionalState, SplitFullState, StateVector

__all__ = [
    "MomentSet",
    "DensityMatrix",
    "moments",
    "rotate_moments",
    "reduced_density_left",
    "project_right_fock",
]


@dataclass(frozen=True)
class MomentSet:
    """First and second moments of (S_L^x, S_L^y, S_L^z, S_R^x, S_R^y, S_R^z).

    V[n, m]  = <{dA_n, dA_m}>/2   (symmetrized covariance)
    Omega[n, m] = -i <[A_n, A_m]> (cross-well blocks are exactly zero)
    For mixtures these are moments of the mixture: raw second moments
    are weight-averaged first and then centered on the aggregate means.
    """

    n_total: int
    means: np.ndarray
    V: np.ndarray
    Omega: np.ndarray


def _vacuum_port(n, m, c):
    """MomentSet of a beam-split state from the single ensemble that
    entered the splitter.

    With vacuum in the unused port the splitter maps a_L, a_R to
    (a + v)/sqrt(2), (a - v)/sqrt(2) (likewise for b), and every term
    holding a vacuum operator vanishes once normally ordered.  With
    m = <S>, C the symmetrized covariance of the single ensemble and N
    its atom number this leaves
        <S_L> = <S_R> = m / 2,
        V_LL = V_RR = (C + N I) / 4,  V_LR = V_RL = (C - N I) / 4,
        Omega_LL = Omega_RR = eps_ijk m_k,  Omega_LR = 0.
    Each array is one np.array of a flat list of plain floats, in about
    half the time of numpy tiling and slice writes.  The bits are those
    of C/4 + N/4 [[I, -I], [-I, I]] in numpy, whose port term off the
    diagonal is 0.0 within a well (turning a -0.0 of C/4 into 0.0) and
    -0.0 across the wells (a no-op).
    """
    m0, m1, m2 = m.tolist()
    q = 0.25 * n
    quarter = [0.25 * x for row in c.tolist() for x in row]
    same, cross = [x + 0.0 for x in quarter], quarter[:]
    for i in (0, 4, 8):
        same[i], cross[i] = quarter[i] + q, quarter[i] - q
    v = []
    for i in (0, 3, 6):
        v += same[i:i + 3] + cross[i:i + 3]
    for i in (0, 3, 6):
        v += cross[i:i + 3] + same[i:i + 3]
    half = [0.5 * m0, 0.5 * m1, 0.5 * m2]
    return MomentSet(
        n,
        np.array(half + half, dtype=float),
        np.array(v, dtype=float).reshape(6, 6),
        _omega([m0, m1, m2], [m0, m1, m2]),
    )


def _omega(left, right):
    """Omega of two wells with 2 <S_L> = left and 2 <S_R> = right (plain
    floats): eps_ijk times the mean within each well, [S^i, S^j] =
    2i eps_ijk S^k, and 0.0 across the wells."""
    a0, a1, a2 = left
    b0, b1, b2 = right
    z = 0.0
    return np.array(
        [
            z, a2, -a1, z, z, z,
            -a2, z, a0, z, z, z,
            a1, -a0, z, z, z, z,
            z, z, z, z, b2, -b1,
            z, z, z, -b2, z, b0,
            z, z, z, b1, -b0, z,
        ],
        dtype=float,
    ).reshape(6, 6)


def _cos_power(k, s, c):
    """cos^k of the angle whose sine is s and cosine is c, k >= 0.

    Where |cos| >= |sin| the power is exp(k/2 log1p(-s^2)), whose
    exponent carries no error of size k ulp(cos); elsewhere cos^k is
    small and taken directly.
    """
    if k == 0:
        return 1.0
    if s * s <= 0.5:
        power = math.exp(0.5 * k * math.log1p(-s * s))
        return -power if c < 0.0 and k % 2 else power
    return c**k


def _cos_power_m1(k, s, c):
    """cos^k - 1 without cancellation, k >= 0: expm1 where cos^k is
    near +1, the plain difference where it is not."""
    if s * s <= 0.5 and (c > 0.0 or k % 2 == 0):
        return math.expm1(0.5 * k * math.log1p(-s * s))
    return _cos_power(k, s, c) - 1.0


def _twist_moments(n, t):
    """<S> and the symmetrized covariance C of the twisted coherent state.

    For the x-polarized coherent state of N atoms after
    exp(i (S^z)^2 t) (Kitagawa & Ueda, PRA 47, 5138 (1993), in the
    S = 2J convention) <S^y> = <S^z> = 0, <S^x> = N cos^(N-1)(4t), and
        C_zz = N,
        C_yy = N - N(N-1)/2 (cos^(N-2)(8t) - 1),
        C_yz = -N(N-1) sin(4t) cos^(N-2)(4t),
        C_xx = N(N-1)/2 (cos^(N-2)(8t) - 1) - N^2 (cos^(2N-2)(4t) - 1),
    with C_xy = C_xz = 0 (the state is even under a pi rotation about
    x).  Both "- 1" terms are formed by _cos_power_m1, so C is within a
    few ulp of its largest entry at any N.
    """
    s4, c4 = math.sin(4.0 * t), math.cos(4.0 * t)
    # below N = 2 the factors N(N-1) vanish; a clamped exponent keeps
    # the power they multiply finite
    k = max(n - 2, 0)
    pair = 0.5 * n * (n - 1)
    # the + 0.0 turns the -0.0 of t = 0 into 0.0
    a = pair * _cos_power_m1(k, math.sin(8.0 * t), math.cos(8.0 * t)) + 0.0
    b = n * n * _cos_power_m1(2 * max(n - 1, 0), s4, c4) + 0.0
    mean_x = n * _cos_power(max(n - 1, 0), s4, c4)
    cyz = -2.0 * pair * s4 * _cos_power(k, s4, c4) + 0.0
    return (
        np.array([mean_x, 0.0, 0.0], dtype=float),
        np.array([[a - b, 0.0, 0.0], [0.0, n - a, cyz], [0.0, cyz, n]], dtype=float),
    )


def _sector_moments(n_left, n_right, t):
    """MomentSet of the conditional state effective_evolution(n_left,
    n_right, t), in closed form.

    That state is the twisted coherent state of all N = N_L + N_R atoms
    written in the well basis, so it is symmetric under the exchange of
    any two atoms: with m and C the closed forms of _twist_moments(N, t),
    one atom has <sigma> = m / N and two distinct atoms have
    <sigma^i sigma^j> = (D + m m^T)_ij / (N (N - 1)), D = C - N I.
    Summing over the atoms of each well leaves, with
    x = N_L N_R / (N^2 (N - 1)),
        <S_L> = (N_L / N) m,  <S_R> = (N_R / N) m,
        V_LL = N_L I + N_L (N_L - 1) / (N (N - 1)) D - x m m^T,
        V_RR = N_R I + N_R (N_R - 1) / (N (N - 1)) D - x m m^T,
        V_LR = V_RL = N_L N_R / (N (N - 1)) D + x m m^T,
    and Omega per well from its mean.  Below N = 2 there is no atom pair:
    the one atom, if any, carries the ensemble's moments in its well.
    """
    n = n_left + n_right
    m, c = _twist_moments(n, t)
    if n <= 1:
        m_l, m_r = n_left * m, n_right * m
        v_ll, v_rr, v_lr = n_left * c, n_right * c, np.zeros((3, 3))
    else:
        pair = n * (n - 1.0)
        d = c - n * np.eye(3)
        mm = (n_left * n_right / (n * pair)) * np.outer(m, m)
        v_ll = n_left * np.eye(3) + (n_left * (n_left - 1.0) / pair) * d - mm
        v_rr = n_right * np.eye(3) + (n_right * (n_right - 1.0) / pair) * d - mm
        v_lr = (n_left * n_right / pair) * d + mm
        m_l, m_r = (n_left / n) * m, (n_right / n) * m
    return MomentSet(
        n,
        np.concatenate([m_l, m_r]),
        np.block([[v_ll, v_lr], [v_lr, v_rr]]),
        _omega((2.0 * m_l).tolist(), (2.0 * m_r).tolist()),
    )


def moments(state):
    """MomentSet of a ConditionalState or SplitFullState, each in closed
    form from the Kitagawa & Ueda moments of the twisted coherent state
    (PRA 47, 5138 (1993)): O(1) at any N, no amplitude is built.

    A ConditionalState, effective_evolution(n_left, n_right, t), is that
    state of all N atoms in the well basis (_sector_moments).  A
    SplitFullState, twisted_split(n, t), is read from the ensemble that
    entered the splitter (_vacuum_port).  Every one of the six
    components conserves the left atom number, so these are also
    exactly the moments of the number-collapsed mixture over all
    left-well sectors: mixed_split_state(n, t, window=0) has the
    moments of twisted_split(n, t).  `sqsplit verify` checks both forms
    against the routes of sqsplit._oracles: the O(N) moments of the
    split amplitudes, and the Gram moments of each projected sector and
    of the sector-by-sector sum.
    """
    if isinstance(state, ConditionalState):
        return _sector_moments(state.n_left, state.n_right, state.t)
    if isinstance(state, SplitFullState):
        return _vacuum_port(state.n_total, *_twist_moments(state.n_total, state.t))
    raise TypeError("moments expects a ConditionalState or SplitFullState")


def _rotate_matrix(m, c, s):
    """R m R^T, R turning (y, z) of both wells by theta (c, s its cosine
    and sine): the (y, z) blocks by _turn_yz_blocks, the x rows and
    columns as vectors.  Plain floats: on a 6x6 matrix they are several
    times faster than small numpy slices."""
    a = m.tolist()
    out = _turn_yz_blocks(a, c, s)
    for x in (0, 3):
        for y in (1, 4):
            z = y + 1
            out[x][y] = c * a[x][y] - s * a[x][z]
            out[x][z] = s * a[x][y] + c * a[x][z]
            out[y][x] = c * a[y][x] - s * a[z][x]
            out[z][x] = s * a[y][x] + c * a[z][x]
    return np.array(out)


def _turn_yz_blocks(a, c, s):
    """A copy of the 6x6 list of lists a with its four 2x2 (y, z) blocks
    turned by theta (c, s its cosine and sine); the x rows and columns
    are copied unturned.

    Each block [[p, q], [r, u]] between two wells is turned as a
    correction to itself: p' = p - s (s (p-u) + c (q+r)) and so on
    where s^2 <= c^2, and from the swapped block, p' = u + c (c (p-u) -
    s (q+r)), where s^2 > c^2.  An isotropic block (p = u, q = r = 0)
    and an antisymmetric one therefore come back bit for bit, which
    r @ m @ r.T does not do (c^2 + s^2 = 1 holds only to an ulp), and the
    small term (s^2 p, or c^2 p) is still formed directly, so a squeezed
    variance keeps its digits.  The double-angle form (p+u)/2 + (p-u)/2
    cos 2theta - ... keeps isotropy too, but forms the squeezed variance
    of an N = 500 state as the difference of two terms of size p/2 and
    is 3.5e-13 off, against 2e-15 for r @ m @ r.T.
    """
    out = [row[:] for row in a]
    for yi in (1, 4):
        zi = yi + 1
        for yj in (1, 4):
            zj = yj + 1
            p, q, r, u = a[yi][yj], a[yi][zj], a[zi][yj], a[zi][zj]
            diff, both = p - u, q + r
            if s * s <= c * c:
                down, side = s * (s * diff + c * both), s * (c * diff - s * both)
                out[yi][yj], out[zi][zj] = p - down, u + down
                out[yi][zj], out[zi][yj] = q + side, r + side
            else:
                down, side = c * (c * diff - s * both), c * (s * diff + c * both)
                out[yi][yj], out[zi][zj] = u + down, p - down
                out[yi][zj], out[zi][yj] = side - r, side - q
    return out


def rotate_moments(ms, theta):
    """Express a MomentSet on the rotated axes (x, y', z') of both wells,
    y' = y cos(theta) - z sin(theta), z' = y sin(theta) + z cos(theta)."""
    c, s = math.cos(theta), math.sin(theta)
    means = ms.means.tolist()
    for y in (1, 4):
        my, mz = means[y], means[y + 1]
        means[y], means[y + 1] = c * my - s * mz, s * my + c * mz
    return MomentSet(
        ms.n_total,
        np.array(means),
        _rotate_matrix(ms.V, c, s),
        _rotate_matrix(ms.Omega, c, s),
    )


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix."""

    entries: np.ndarray

    def __post_init__(self):
        m = self.entries
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("density matrix must be square")
        scale = max(1.0, float(np.abs(m).max()))
        # each check is written so that a NaN or inf entry fails it
        if not np.abs(m - m.conj().T).max() <= 1e-10 * scale:
            raise ValueError("density matrix is not Hermitian")
        if not abs(np.trace(m).real - 1.0) <= 1e-10:
            raise ValueError("density matrix trace must be 1")
        if not float(np.linalg.eigvalsh(m).min()) >= -1e-10:
            raise ValueError("density matrix is not positive semidefinite")

    @property
    def dim(self):
        return self.entries.shape[0]


def reduced_density_left(state):
    """Trace out the right well: rho_L = psi psi^dagger."""
    rho = state.psi @ state.psi.conj().T
    return DensityMatrix(rho)


def project_right_fock(state, k_r):
    """Measure k_r right-well mode-a atoms; collapse the left well.

    Returns (probability, left-well StateVector).  For canonically split
    states the collapsed left state is exp(i (S_L^z)^2 t) applied to a
    coherent state rotated by the measured imbalance, up to an overall
    phase.
    """
    if not 0 <= k_r <= state.n_right:
        raise ValueError("k_r out of range")
    column = state.psi[:, k_r]
    prob = float(np.vdot(column, column).real)
    if prob <= 1e-300:
        raise ValueError(f"outcome k_r = {k_r} has zero probability")
    return prob, StateVector(state.n_left, column / math.sqrt(prob))
