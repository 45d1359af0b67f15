"""Correlation-based entanglement and steering witnesses.

All criteria are ratios of collective-spin variances and means taken
from a MomentSet; values below 1 (or below 0 for the covariance-matrix
criterion) certify entanglement or steering of the two wells:

  dgcz                 [Var(S_L^y - S_R^z) + Var(S_R^y - S_L^z)] /
                       [2<S_L^x> + 2<S_R^x>]          (< 1 entangled)
  covariance_criterion min eig of PT(V) + (i/2) PT(Omega), scaled by N
                                                       (< 0 entangled)
  giovannetti          gain-optimized product criterion on the squeezed
                       quadratures                     (< 1 entangled)
  wineland_xi          N Var(S_tot^z') / <S_tot^x>^2   (< 1 squeezed)
  epr_steering         gain-optimized conditional-variance product
                       normalized by one well only     (< 1 steering)

The rotated quadratures use the one-axis-twisting squeezing angle
theta(t); Giovannetti gains are found on a coarse symmetric log grid
followed by deterministic Nelder-Mead refinement, while the steering
gains have the usual closed form cov/var.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .observables import MomentSet, rotate_moments

__all__ = [
    "WitnessResult",
    "UndefinedWitnessError",
    "OptimizerError",
    "dgcz",
    "hermitian_min_eigenvalue",
    "covariance_criterion",
    "squeezing_angle",
    "giovannetti",
    "wineland_xi",
    "epr_steering",
    "witness_suite",
]

# index order inside a MomentSet
_LX, _LY, _LZ, _RX, _RY, _RZ = range(6)


class UndefinedWitnessError(ValueError):
    """Raised when a witness denominator is too small to be meaningful."""


class OptimizerError(RuntimeError):
    """Gain optimization failed to converge; carries the best point seen."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class WitnessResult:
    """All witness values at one time point."""

    t: float
    e_dgcz: float
    e_cm: float
    e_g: float
    xi: float
    e_steer_lr: float
    e_steer_rl: float
    g_y: float
    g_z: float
    theta: float

    @property
    def entangled(self):
        return self.e_dgcz < 1.0 or self.e_cm < 0.0 or self.e_g < 1.0

    @property
    def steerable(self):
        return min(self.e_steer_lr, self.e_steer_rl) < 1.0


def _denominator_floor(ms):
    return 1e-9 * max(1.0, ms.n_total)


def _pair_variance(v, i, j):
    """Var(A_i + A_j) from the covariance matrix."""
    return v[i, i] + v[j, j] + 2.0 * v[i, j]


def dgcz(ms):
    """Sum criterion on the (y, z) cross quadratures; < 1 is entangled.

    Separable states obey Var(S_L^y+S_R^z) + Var(S_R^y+S_L^z) >=
    2<S_L^x> + 2<S_R^x> (per-well uncertainty relations plus convexity;
    the bound holds for either relative sign of the pair).  The + pair
    is the one squeezed by e^{+i(S^z)^2 t} with [S^y,S^z] = 2iS^x:
    Heisenberg evolution drifts S_L^y by -4N_L t (S_L^z + S_R^z), so
    the y-z cross covariance comes out negative and the summed pair has
    the suppressed variance 2N(4N^2t^2 - 2Nt + 1) at short times.
    """
    v = ms.V
    num = _pair_variance(v, _LY, _RZ) + _pair_variance(v, _RY, _LZ)
    den = 2.0 * (ms.means[_LX] + ms.means[_RX])
    if den <= _denominator_floor(ms):
        raise UndefinedWitnessError("mean transverse polarization too small")
    return num / den


def hermitian_min_eigenvalue(m, tol=1e-12, max_sweeps=60):
    """Smallest eigenvalue of a Hermitian matrix via cyclic Jacobi.

    Works on the 2d x 2d real symmetric embedding [[A, -B], [B, A]] of
    M = A + iB, whose spectrum is that of M doubled.  Sweeps rotate out
    every off-diagonal pair until the off-diagonal mass falls below
    tol relative to the Frobenius norm.
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    scale = max(1.0, float(np.abs(m).max()))
    if np.abs(m - m.conj().T).max() > 1e-10 * scale:
        raise ValueError("matrix must be Hermitian")
    d = m.shape[0]
    if d == 0:
        raise ValueError("matrix must be nonempty")
    a = np.block([[m.real, -m.imag], [m.imag, m.real]])
    n = 2 * d
    fro = math.sqrt(float(np.sum(a * a)))
    if fro == 0.0:
        return 0.0

    def off_diagonal():
        # summed directly; fro^2 - sum(diag^2) cancels catastrophically
        # once the off-diagonal mass is small
        mask = ~np.eye(n, dtype=bool)
        return math.sqrt(float(np.sum(a[mask] ** 2)))

    for _ in range(max_sweeps):
        if off_diagonal() <= tol * fro:
            return float(np.min(np.diag(a)))
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                # negligible pivots are zeroed, not rotated: dividing by
                # them overflows theta and stalls the sweep
                if abs(apq) <= 1e-16 * fro / n:
                    a[p, q] = a[q, p] = 0.0
                    continue
                theta = 0.5 * (a[q, q] - a[p, p]) / apq
                if abs(theta) > 1e8:
                    t = 0.5 / theta
                else:
                    t = math.copysign(1.0, theta) / (
                        abs(theta) + math.sqrt(1.0 + theta * theta)
                    )
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                rot_p = c * a[:, p] - s * a[:, q]
                rot_q = s * a[:, p] + c * a[:, q]
                a[:, p], a[:, q] = rot_p, rot_q
                a[p, :], a[q, :] = c * a[p, :] - s * a[q, :], s * a[p, :] + c * a[q, :]
                a[p, q] = a[q, p] = 0.0
    if off_diagonal() <= tol * fro:
        return float(np.min(np.diag(a)))
    raise OptimizerError(
        "Jacobi eigensolver did not converge", best=float(np.min(np.diag(a)))
    )


def covariance_criterion(ms, n=None):
    """Partial-transpose test on the 6x6 moment matrices; < 0 is entangled.

    The transpose of the right well flips the sign of S_R^y moments
    (Q = diag(1,1,1,1,-1,1)) and reverses right-well commutators, so the
    separability condition PT(V) + (i/2) PT(Omega) >= 0 is checked by
    the minimum eigenvalue, reported divided by N.
    """
    if n is None:
        n = ms.n_total
    q = np.diag([1.0, 1.0, 1.0, 1.0, -1.0, 1.0])
    ptv = q @ ms.V @ q
    pto = q @ ms.Omega @ q
    pto[3:, 3:] *= -1.0
    matrix = ptv + 0.5j * pto
    return hermitian_min_eigenvalue(matrix) / n


def squeezing_angle(n, t):
    """Optimal analysis angle of the squeezed quadrature,
    tan(2 theta) = 4 sin(4t) cos^(N-2)(4t) / (1 - cos^(N-2)(8t)).

    Returns theta in [0, pi/2); the t -> 0 limit is pi/4.  At the
    degenerate points sin(4t) = 0 (t > 0) the numerator vanishes and the
    angle collapses to the coordinate axes; a warning is emitted there.
    """
    if n < 3:
        raise ValueError("squeezing angle needs at least 3 atoms")
    if t == 0.0:
        return 0.25 * math.pi
    num = 4.0 * math.sin(4.0 * t) * math.cos(4.0 * t) ** (n - 2)
    den = 1.0 - math.cos(8.0 * t) ** (n - 2)
    if abs(math.sin(4.0 * t)) < 1e-12:
        # num is exactly zero in exact arithmetic; snap the roundoff
        # residue so the degenerate angle lands on an axis
        warnings.warn(
            "squeezing angle is degenerate where sin(4t) = 0", RuntimeWarning
        )
        num = 0.0
    theta = 0.5 * math.atan2(num, den)
    if theta < 0.0:
        theta += 0.5 * math.pi
    return theta


def _gain_variance(v, steer, target, g):
    """Var(g A_steer - A_target)."""
    return g * g * v[steer, steer] - 2.0 * g * v[steer, target] + v[target, target]


def _giovannetti_objective(ms):
    v = ms.V
    mx_l = ms.means[_LX]
    mx_r = ms.means[_RX]

    def objective(g):
        g_y, g_z = g
        var_z = _gain_variance(v, _LZ, _RZ, g_z)
        var_y = _gain_variance(v, _LY, _RY, g_y)
        den = abs(g_z * g_y) * mx_l + mx_r
        if den <= 0.0:
            return math.inf
        return math.sqrt(max(var_z, 0.0) * max(var_y, 0.0)) / den

    return objective


def _gain_grid():
    mags = np.exp(np.linspace(math.log(1e-3), math.log(4.0), 20))
    return np.concatenate([-mags[::-1], [0.0], mags])


def _grid_objective(ms, grid):
    """The Giovannetti objective on grid x grid, g_y by row and g_z by
    column.  Each entry repeats the scalar objective's operations in the
    same order, so it is bit-identical to objective((g_y, g_z))."""
    v = ms.V
    var_z = _gain_variance(v, _LZ, _RZ, grid)
    var_y = _gain_variance(v, _LY, _RY, grid)
    # np.where(x < 0, 0, x) is max(x, 0.0), NaN and -0.0 included
    var_z = np.where(var_z < 0.0, 0.0, var_z)
    var_y = np.where(var_y < 0.0, 0.0, var_y)
    den = np.abs(np.multiply.outer(grid, grid)) * ms.means[_LX] + ms.means[_RX]
    with np.errstate(divide="ignore", invalid="ignore"):
        values = np.sqrt(np.multiply.outer(var_y, var_z)) / den
    return np.where(den <= 0.0, math.inf, values)


def _grid_minimum(ms, grid):
    """Best grid point in scan order (g_y outer, g_z inner): a value more
    than 1e-12 below the lead takes it, and within 1e-12 of the lead the
    smaller |g_y| + |g_z| wins."""
    flat = _grid_objective(ms, grid).ravel()
    # each tie moves the lead up by at most 1e-12, so the lead never
    # sits more than (flat.size + 1) * 1e-12 plus roundoff above the
    # running minimum; entries further up can never take it and are
    # skipped
    floor = np.fmin.accumulate(flat)
    reachable = flat <= floor + 1e-8 * np.maximum(1.0, np.abs(floor))
    best_val = math.inf
    best_g = (0.0, 0.0)
    for index in np.flatnonzero(reachable).tolist():
        val = float(flat[index])
        g_y, g_z = grid[index // grid.size], grid[index % grid.size]
        better = val < best_val - 1e-12
        tied = abs(val - best_val) <= 1e-12
        if better or (
            tied and abs(g_y) + abs(g_z) < abs(best_g[0]) + abs(best_g[1])
        ):
            best_val = val
            best_g = (g_y, g_z)
    return best_val, best_g


def giovannetti(ms):
    """Gain-optimized product criterion; returns (value, g_y, g_z).

    E = sqrt(Var(g_z S_L^z' - S_R^z') Var(g_y S_L^y' - S_R^y')) /
        (|g_z g_y| <S_L^x> + <S_R^x>), minimized over both gains
    (41 x 41 signed log grid, then Nelder-Mead refinement; exact ties
    resolve toward smaller |g|).  Values below 1 certify entanglement.
    """
    if ms.means[_RX] <= _denominator_floor(ms):
        raise UndefinedWitnessError("mean transverse polarization too small")
    objective = _giovannetti_objective(ms)
    best_val, best_g = _grid_minimum(ms, _gain_grid())
    step = max(0.05, 0.1 * max(abs(best_g[0]), abs(best_g[1])))
    simplex = np.array(
        [
            best_g,
            (best_g[0] + step, best_g[1]),
            (best_g[0], best_g[1] + step),
        ]
    )
    res = optimize.minimize(
        objective,
        np.asarray(best_g),
        method="Nelder-Mead",
        options={
            "initial_simplex": simplex,
            "xatol": 1e-9,
            "fatol": 1e-13,
            "maxiter": 2000,
        },
    )
    if not res.success:
        raise OptimizerError(
            "gain refinement did not converge", best=(best_val, best_g)
        )
    if res.fun < best_val - 1e-12:
        best_val = float(res.fun)
        best_g = (float(res.x[0]), float(res.x[1]))
    elif abs(res.fun - best_val) <= 1e-12 and abs(res.x[0]) + abs(res.x[1]) < abs(
        best_g[0]
    ) + abs(best_g[1]):
        best_g = (float(res.x[0]), float(res.x[1]))
        best_val = float(res.fun)
    return best_val, best_g[0], best_g[1]


def wineland_xi(ms, n=None):
    """Squeezing parameter N Var(S_tot^z') / <S_tot^x>^2; < 1 is squeezed."""
    if n is None:
        n = ms.n_total
    v = ms.V
    var_tot = v[_LZ, _LZ] + v[_RZ, _RZ] + 2.0 * v[_LZ, _RZ]
    mx = ms.means[_LX] + ms.means[_RX]
    if abs(mx) <= _denominator_floor(ms):
        raise UndefinedWitnessError("mean transverse polarization too small")
    return n * var_tot / (mx * mx)


def epr_steering(ms, direction="lr"):
    """Conditional-variance steering criterion; returns (value, g_y, g_z).

    E^{A->B} = sqrt(Var(g_z S_A^z' - S_B^z') Var(g_y S_A^y' - S_B^y')) /
    <S_B^x>, with each gain at its closed-form optimum cov/var.  Values
    below 1 certify steering of B by measurements on A.
    """
    v = ms.V
    if direction == "lr":
        steer_z, target_z = _LZ, _RZ
        steer_y, target_y = _LY, _RY
        mx = ms.means[_RX]
    elif direction == "rl":
        steer_z, target_z = _RZ, _LZ
        steer_y, target_y = _RY, _LY
        mx = ms.means[_LX]
    else:
        raise ValueError("direction must be 'lr' or 'rl'")
    if mx <= _denominator_floor(ms):
        raise UndefinedWitnessError("mean transverse polarization too small")
    g_z = v[steer_z, target_z] / v[steer_z, steer_z]
    g_y = v[steer_y, target_y] / v[steer_y, steer_y]
    var_z = _gain_variance(v, steer_z, target_z, g_z)
    var_y = _gain_variance(v, steer_y, target_y, g_y)
    return math.sqrt(max(var_z, 0.0) * max(var_y, 0.0)) / mx, g_y, g_z


def witness_suite(ms, t):
    """Evaluate every witness from one unrotated MomentSet.

    dgcz and the covariance criterion use the bare (x, y, z) axes; the
    rest are evaluated on the quadratures rotated by the squeezing angle
    theta(t).
    """
    theta = squeezing_angle(ms.n_total, t)
    rotated = rotate_moments(ms, theta)
    e_g, g_y, g_z = giovannetti(rotated)
    e_lr, _, _ = epr_steering(rotated, "lr")
    e_rl, _, _ = epr_steering(rotated, "rl")
    return WitnessResult(
        t=float(t),
        e_dgcz=float(dgcz(ms)),
        e_cm=float(covariance_criterion(ms)),
        e_g=float(e_g),
        xi=float(wineland_xi(rotated)),
        e_steer_lr=float(e_lr),
        e_steer_rl=float(e_rl),
        g_y=float(g_y),
        g_z=float(g_z),
        theta=float(theta),
    )
