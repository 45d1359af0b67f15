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
theta(t).  Both gain-optimized criteria are closed forms: the steering
gains are cov/var, and the Giovannetti gains are the best of a fixed
candidate set (the nonnegative roots of one quadratic in |g_y|, the
origin, the axis minima and the points where a clipped variance is
exactly 0), with ties going to the smallest |g_y| + |g_z|.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .observables import MomentSet, _cos_power, _cos_power_m1, _turn_yz_blocks

__all__ = [
    "WitnessResult",
    "UndefinedWitnessError",
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

# the partial transpose Q m Q, Q = diag(1, 1, 1, 1, -1, 1), as a sign
# mask; for Omega the right-well block also flips
_Q = np.array([1.0, 1.0, 1.0, 1.0, -1.0, 1.0])
_PT_V = np.outer(_Q, _Q)
_PT_OMEGA = _PT_V * np.kron([[1.0, 1.0], [1.0, -1.0]], np.ones((3, 3)))
_PT_V.setflags(write=False)
_PT_OMEGA.setflags(write=False)


class UndefinedWitnessError(ValueError):
    """Raised when a witness denominator is too small to be meaningful."""


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
    """Var(A_i + A_j) from the covariance matrix (a list of lists)."""
    return v[i][i] + v[j][j] + 2.0 * v[i][j]


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
    v, means = ms.V.tolist(), ms.means.tolist()
    num = _pair_variance(v, _LY, _RZ) + _pair_variance(v, _RY, _LZ)
    den = 2.0 * (means[_LX] + means[_RX])
    if den <= _denominator_floor(ms):
        raise UndefinedWitnessError("mean transverse polarization too small")
    return num / den


def hermitian_min_eigenvalue(m):
    """Smallest eigenvalue of a nonempty Hermitian matrix (LAPACK eigvalsh)."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if m.shape[0] == 0:
        raise ValueError("matrix must be nonempty")
    scale = max(1.0, float(np.abs(m).max()))
    # written so that a NaN or inf entry fails it
    if not np.abs(m - m.conj().T).max() <= 1e-10 * scale:
        raise ValueError("matrix must be Hermitian")
    return float(np.linalg.eigvalsh(m)[0])


def covariance_criterion(ms):
    """Partial-transpose test on the 6x6 moment matrices; < 0 is entangled.

    The transpose of the right well flips the sign of S_R^y moments
    (Q = diag(1,1,1,1,-1,1)) and reverses right-well commutators, so the
    separability condition PT(V) + (i/2) PT(Omega) >= 0 is checked by
    the minimum eigenvalue, reported divided by N.
    """
    # + 0.0 turns the -0.0 the mask makes of a 0.0 entry back into the
    # 0.0 that the products Q V Q form, so LAPACK reads the same bits
    matrix = (ms.V * _PT_V + 0.0) + 0.5j * (ms.Omega * _PT_OMEGA)
    return hermitian_min_eigenvalue(matrix) / ms.n_total


def squeezing_angle(n, t):
    """Optimal analysis angle of the squeezed quadrature,
    tan(2 theta) = 4 sin(4t) cos^(N-2)(4t) / (1 - cos^(N-2)(8t)).

    Returns theta in [0, pi/2); the t -> 0 limit is pi/4.  At the
    degenerate points sin(4t) = 0 (t > 0) the numerator vanishes and the
    angle collapses to the coordinate axes; a warning is emitted there.
    Both powers come from observables._cos_power and _cos_power_m1, as
    in the closed-form moments: 1 - cos^(N-2)(8t) is formed without
    cancellation, where the plain power is 8.9e-11 (relative) off the
    angle at N = 500 and 1.2e-8 at N = 1e5.
    """
    if n < 3:
        raise ValueError("squeezing angle needs at least 3 atoms")
    if t == 0.0:
        return 0.25 * math.pi
    s4 = math.sin(4.0 * t)
    num = 4.0 * s4 * _cos_power(n - 2, s4, math.cos(4.0 * t))
    den = -_cos_power_m1(n - 2, math.sin(8.0 * t), math.cos(8.0 * t))
    if abs(s4) < 1e-12:
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
    """Var(g A_steer - A_target) from the covariance matrix (a list of lists)."""
    return g * g * v[steer][steer] - 2.0 * g * v[steer][target] + v[target][target]


def _descent_point(a2, p, a0):
    """An x >= 0 where max(a2 x^2 - 2 p x + a0, 0), p >= 0, is least: 0
    if it never falls, the vertex p / a2 if its minimum is positive,
    else the smaller of a0 / p and (for a2 < 0) sqrt(-2 a0 / a2), where
    it is a0 (a2 a0 / p^2 - 1) <= 0 and <= -a0: the clip gives 0."""
    if a0 <= 0.0 or (p == 0.0 and a2 >= 0.0):
        return 0.0
    if p * p < a2 * a0:
        return p / a2
    x = a0 / p if p > 0.0 else math.inf
    return min(x, math.sqrt(-2.0 * a0 / a2)) if a2 < 0.0 else x


def _real_roots(alpha, beta, gamma):
    """Real roots of alpha x^2 + beta x + gamma, free of cancellation."""
    if alpha == 0.0:
        return [-gamma / beta] if beta != 0.0 else []
    disc = beta * beta - 4.0 * alpha * gamma
    if disc < 0.0:
        return []
    q = -0.5 * (beta + math.copysign(math.sqrt(disc), beta))
    return [q / alpha, gamma / q] if q != 0.0 else [0.0]


def giovannetti(ms):
    """Gain-optimized product criterion; returns (value, g_y, g_z).

    E = sqrt(Var(g_z S_L^z' - S_R^z') Var(g_y S_L^y' - S_R^y')) /
        (|g_z g_y| <S_L^x> + <S_R^x>), minimized over both gains in
    closed form.  Values below 1 certify entanglement.

    Each gain takes the sign of its cross covariance.  With x = |g_y|,
    y = |g_z|, Var_y = a2 x^2 - 2|a1| x + a0, Var_z = b2 y^2 - 2|b1| y
    + b0, c = <S_L^x> and d = <S_R^x>, the two stationarity conditions
    eliminate to c(d|b1| a2 + c|a1| b0) x^2 + (d^2 a2 b2 - c^2 a0 b0) x
    - d(d|a1| b2 + c|b1| a0) = 0 with y = (c b0 x + d|b1|) / (d b2 +
    c|b1| x).  The candidates are its nonnegative roots, the origin,
    the axes and the pair of _descent_point minima, and infinite gain,
    scored by its limit (with c > 0: 0 if a2 <= 0 or b2 <= 0, and
    sqrt(a2 b2) / c if a1 = b1 = 0).  A denominator <= 0 scores inf,
    which covers c <= 0.  Among candidates within 1e-12 (relative) of
    the least value the smallest |g_y| + |g_z| wins, so the exact t = 0
    product, flat along |g_y| = |g_z|, reports gains 0; when infinite
    gain wins, there is no minimizer and UndefinedWitnessError is
    raised.  A minimizer beyond the float range (moments some 1e300
    apart) is out of reach; the best candidate is returned instead.
    """
    means, v = ms.means.tolist(), ms.V.tolist()
    if means[_RX] <= _denominator_floor(ms):
        raise UndefinedWitnessError("mean transverse polarization too small")
    c, d = means[_LX], means[_RX]
    a2, a1, a0 = v[_LY][_LY], v[_LY][_RY], v[_RY][_RY]
    b2, b1, b0 = v[_LZ][_LZ], v[_LZ][_RZ], v[_RZ][_RZ]
    p, q = abs(a1), abs(b1)
    x_a, y_b = _descent_point(a2, p, a0), _descent_point(b2, q, b0)
    points = [(0.0, 0.0), (x_a, 0.0), (0.0, y_b), (x_a, y_b), (math.inf, math.inf)]
    for x in _real_roots(
        c * (d * q * a2 + c * p * b0),
        d * d * a2 * b2 - c * c * a0 * b0,
        -d * (d * p * b2 + c * q * a0),
    ):
        den = d * b2 + c * q * x
        if den != 0.0:
            points.append((x, (c * b0 * x + d * q) / den))
    scored = []
    for x, y in points:
        if not (x >= 0.0 and y >= 0.0):
            continue
        # Var_y / X^2, Var_z / Y^2 and the denominator / (X Y) with X =
        # max(1, x), Y = max(1, y): no overflow, and x = inf scores its limit
        s, r = 1.0 / max(1.0, x), 1.0 / max(1.0, y)
        xs, yr = min(x, 1.0), min(y, 1.0)
        var_y = (a2 * xs - 2.0 * p * s) * xs + a0 * s * s
        var_z = (b2 * yr - 2.0 * q * r) * yr + b0 * r * r
        den = c * xs * yr + d * s * r
        val = math.sqrt(max(var_y, 0.0) * max(var_z, 0.0)) / den if den > 0.0 else math.inf
        scored.append((val, (-x if a1 < 0.0 else x) + 0.0, (-y if b1 < 0.0 else y) + 0.0))
    best = min(val for val, _, _ in scored)
    tied = [entry for entry in scored if entry[0] <= best + 1e-12 * best]
    val, g_y, g_z = min(tied, key=lambda entry: abs(entry[1]) + abs(entry[2]))
    if math.inf in (abs(g_y), abs(g_z)):
        raise UndefinedWitnessError("product criterion has its infimum at infinite gain")
    return val, g_y, g_z


def wineland_xi(ms):
    """Squeezing parameter N Var(S_tot^z') / <S_tot^x>^2; < 1 is squeezed."""
    v, means = ms.V.tolist(), ms.means.tolist()
    var_tot = v[_LZ][_LZ] + v[_RZ][_RZ] + 2.0 * v[_LZ][_RZ]
    mx = means[_LX] + means[_RX]
    if abs(mx) <= _denominator_floor(ms):
        raise UndefinedWitnessError("mean transverse polarization too small")
    return ms.n_total * var_tot / (mx * mx)


def _steering_gain(v, steer, target):
    """The gain cov/var minimizing Var(g A_steer - A_target)."""
    var = v[steer][steer]
    return v[steer][target] / var if var > 0.0 else 0.0


def epr_steering(ms, direction="lr"):
    """Conditional-variance steering criterion; returns (value, g_y, g_z).

    E^{A->B} = sqrt(Var(g_z S_A^z' - S_B^z') Var(g_y S_A^y' - S_B^y')) /
    <S_B^x>, with each gain at its closed-form optimum cov/var.  A
    steering quadrature without variance (an empty well A) has cov = 0
    by Cauchy-Schwarz and gets gain 0.  Values below 1 certify steering
    of B by measurements on A.
    """
    v, means = ms.V.tolist(), ms.means.tolist()
    if direction == "lr":
        steer_z, target_z = _LZ, _RZ
        steer_y, target_y = _LY, _RY
        mx = means[_RX]
    elif direction == "rl":
        steer_z, target_z = _RZ, _LZ
        steer_y, target_y = _RY, _LY
        mx = means[_LX]
    else:
        raise ValueError("direction must be 'lr' or 'rl'")
    if mx <= _denominator_floor(ms):
        raise UndefinedWitnessError("mean transverse polarization too small")
    g_z = _steering_gain(v, steer_z, target_z)
    g_y = _steering_gain(v, steer_y, target_y)
    var_z = _gain_variance(v, steer_z, target_z, g_z)
    var_y = _gain_variance(v, steer_y, target_y, g_y)
    return math.sqrt(max(var_z, 0.0) * max(var_y, 0.0)) / mx, g_y, g_z


def witness_suite(ms, t):
    """Evaluate every witness from one unrotated MomentSet.

    dgcz and the covariance criterion use the bare (x, y, z) axes; the
    rest are evaluated on the quadratures rotated by the squeezing angle
    theta(t).  A witness that is undefined on these moments
    (UndefinedWitnessError: its mean polarization is below the floor)
    reports NaN in its own fields only; for giovannetti those are e_g,
    g_y and g_z, also when its infimum lies at infinite gain.

    The rotated witnesses read <S_L^x>, <S_R^x> and the (y, z) blocks
    of V only, so only those blocks are turned, bit for bit as
    rotate_moments turns them; the x means are the same on both axes.
    The MomentSet they get is not rotated in its x rows and columns of
    V, its y and z means, or Omega.
    """
    theta = squeezing_angle(ms.n_total, t)
    c, s = math.cos(theta), math.sin(theta)
    turned = np.array(_turn_yz_blocks(ms.V.tolist(), c, s), dtype=float)
    rotated = MomentSet(ms.n_total, ms.means, turned, ms.Omega)

    def guard(witness):
        try:
            return witness()
        except UndefinedWitnessError:
            return math.nan

    try:
        e_g, g_y, g_z = giovannetti(rotated)
    except UndefinedWitnessError:
        e_g = g_y = g_z = math.nan
    return WitnessResult(
        t=float(t),
        e_dgcz=float(guard(lambda: dgcz(ms))),
        e_cm=float(covariance_criterion(ms)),
        e_g=float(e_g),
        xi=float(guard(lambda: wineland_xi(rotated))),
        e_steer_lr=float(guard(lambda: epr_steering(rotated, "lr")[0])),
        e_steer_rl=float(guard(lambda: epr_steering(rotated, "rl")[0])),
        g_y=float(g_y),
        g_z=float(g_z),
        theta=float(theta),
    )
