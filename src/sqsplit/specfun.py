"""Special functions used throughout the package.

Everything here is exact-combinatorics plumbing: log-factorials and
log-binomials (with a -inf sentinel so closed-form sums can run over
out-of-range Fock indices and pick up exact zeros), Wigner 3j symbols
evaluated from the Racah single-sum formula in log-factorial space,
orthonormal spherical harmonics built from a stable normalized
associated-Legendre recurrence, and a Gauss-Legendre quadrature rule on
the unit sphere.
"""

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "log_factorial",
    "log_binomial",
    "wigner_3j",
    "spherical_harmonic",
    "legendre_table",
    "QuadratureRule",
    "gauss_legendre_sphere",
]

_LN2 = math.log(2.0)

# Growable table of log(n!).  Never mutated in place: a larger array is
# built and the module reference swapped, so concurrent readers always
# see a consistent table.
_log_fact_table = np.zeros(64)
_log_fact_table[1:] = np.cumsum(np.log(np.arange(1, 64)))


def _log_facts(n_max):
    global _log_fact_table
    table = _log_fact_table
    if n_max < table.size:
        return table
    size = max(2 * table.size, n_max + 1)
    new = np.zeros(size)
    new[1:] = np.cumsum(np.log(np.arange(1, size)))
    _log_fact_table = new
    return new


def log_factorial(n):
    """log(n!) for integer n >= 0 (scalar or array)."""
    arr = np.asarray(n)
    if np.any(arr < 0):
        raise ValueError("factorial argument must be nonnegative")
    table = _log_facts(int(arr.max()) if arr.size else 0)
    out = table[arr]
    return float(out) if np.isscalar(n) else out


def log_binomial(n, k):
    """log of the binomial coefficient C(n, k).

    n and k broadcast like numpy arrays; n must be nonnegative.  Out of
    range k (k < 0 or k > n) returns -inf, so exp() of the result gives
    an exact zero.  This sentinel is what lets closed-form sums over
    Fock indices run over their natural rectangular ranges.
    """
    n_arr = np.asarray(n, dtype=np.int64)
    k_arr = np.asarray(k, dtype=np.int64)
    if np.any(n_arr < 0):
        raise ValueError("binomial upper index must be nonnegative")
    table = _log_facts(int(n_arr.max()) if n_arr.size else 0)
    valid = (k_arr >= 0) & (k_arr <= n_arr)
    k_safe = np.where(valid, k_arr, 0)
    out = np.where(valid, table[n_arr] - table[k_safe] - table[n_arr - k_safe], -np.inf)
    if np.isscalar(n) and np.isscalar(k):
        return float(out)
    return out


def _as_two_j(x, name):
    two = 2.0 * x
    rounded = round(two)
    if abs(two - rounded) > 1e-9:
        raise ValueError(f"{name} = {x} is not an integer or half-integer")
    return int(rounded)


def wigner_3j(j1, j2, j3, m1, m2, m3):
    """Wigner 3j symbol (j1 j2 j3; m1 m2 m3).

    Arguments may be integers or half-integers; j_i + m_i must be an
    integer for each column.  Selection-rule violations (m1+m2+m3 != 0,
    triangle condition) return 0.0.  Evaluated from the Racah single-sum
    closed form with all factorials taken in log space and explicit sign
    bookkeeping, so large j do not overflow.  The alternating sum still
    cancels: against sympy's exact values on symbols (j k j; -m q m')
    the relative error measured 2.3e-11 at 2j = 36, 1.2e-6 at 2j = 80
    and 2.6e-5 at 2j = 120.  The `wigner` module therefore builds its
    symbols with the three-term recursion (`wigner._threej_table`,
    within 4e-14 on the same symbols) and keeps this scalar only as an
    oracle.
    """
    tj = [_as_two_j(j, f"j{i+1}") for i, j in enumerate((j1, j2, j3))]
    tm = [_as_two_j(m, f"m{i+1}") for i, m in enumerate((m1, m2, m3))]
    for i in range(3):
        if tj[i] < 0:
            raise ValueError("angular momenta must be nonnegative")
        if (tj[i] + tm[i]) % 2 != 0:
            raise ValueError(f"j{i+1} + m{i+1} must be an integer")
    if any(abs(tm[i]) > tj[i] for i in range(3)):
        return 0.0
    if tm[0] + tm[1] + tm[2] != 0:
        return 0.0
    tj1, tj2, tj3 = tj
    tm1, tm2, tm3 = tm
    if tj3 < abs(tj1 - tj2) or tj3 > tj1 + tj2:
        return 0.0
    if (tj1 + tj2 + tj3) % 2 != 0:
        return 0.0

    lf = _log_facts((tj1 + tj2 + tj3) // 2 + 1)
    # triangle coefficient and m-dependent prefactor, all halved in log space
    pre = 0.5 * (
        lf[(tj1 + tj2 - tj3) // 2]
        + lf[(tj1 - tj2 + tj3) // 2]
        + lf[(-tj1 + tj2 + tj3) // 2]
        - lf[(tj1 + tj2 + tj3) // 2 + 1]
        + lf[(tj1 + tm1) // 2]
        + lf[(tj1 - tm1) // 2]
        + lf[(tj2 + tm2) // 2]
        + lf[(tj2 - tm2) // 2]
        + lf[(tj3 + tm3) // 2]
        + lf[(tj3 - tm3) // 2]
    )

    a1 = (tj1 + tj2 - tj3) // 2
    a2 = (tj1 - tm1) // 2
    a3 = (tj2 + tm2) // 2
    b1 = (tj2 - tj3 - tm1) // 2
    b2 = (tj1 - tj3 + tm2) // 2
    v_min = max(0, b1, b2)
    v_max = min(a1, a2, a3)
    if v_max < v_min:
        return 0.0

    logs = np.empty(v_max - v_min + 1)
    signs = np.empty(v_max - v_min + 1)
    for idx, v in enumerate(range(v_min, v_max + 1)):
        logs[idx] = -(
            lf[v]
            + lf[a1 - v]
            + lf[a2 - v]
            + lf[a3 - v]
            + lf[v - b1]
            + lf[v - b2]
        )
        signs[idx] = -1.0 if v % 2 else 1.0
    peak = logs.max()
    total = float(np.sum(signs * np.exp(logs - peak)))
    if total == 0.0:
        return 0.0
    phase = -1.0 if ((tj1 - tj2 - tm3) // 2) % 2 else 1.0
    return phase * math.copysign(math.exp(pre + peak + math.log(abs(total))), total)


def legendre_table(k_max, x):
    """Normalized associated Legendre values for spherical harmonics.

    Returns an array P of shape (k_max+1, k_max+1, len(x)) with
    P[k, q] such that Y_kq(theta, phi) = P[k, q, i] * exp(i q phi) at
    x_i = cos(theta), for 0 <= q <= k (Condon-Shortley phase included).
    Entries with q > k are zero.  Uses the standard stable upward
    recurrence in k at fixed q; the sectoral seed prefactor is formed in
    log space so large q cannot overflow.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    s = np.sqrt(np.clip(1.0 - x * x, 0.0, None))
    p = np.zeros((k_max + 1, k_max + 1, x.size))
    # sectoral values P[q, q]: (-1)^q sqrt((2q+1)/(4 pi) * (2q-1)!!/(2q)!!) s^q
    log_c = 0.5 * (math.log(1.0 / (4.0 * math.pi)))
    p[0, 0] = math.exp(log_c)
    with np.errstate(divide="ignore"):
        log_s = np.log(s)
    central = log_binomial(2 * np.arange(k_max + 1), np.arange(k_max + 1)).tolist()
    for q in range(1, k_max + 1):
        lc = 0.5 * (
            math.log((2 * q + 1) / (4.0 * math.pi))
            + central[q]
            - 2 * q * _LN2
        )
        sign = -1.0 if q % 2 else 1.0
        p[q, q] = sign * np.exp(lc + q * log_s)
    for q in range(0, k_max):
        p[q + 1, q] = math.sqrt(2 * q + 3) * x * p[q, q]
    # recurrence coefficients of every (k, q < k - 1) step, then one
    # vectorised step over all such q per k
    k, q = np.tril_indices(k_max + 1, -2)
    a = np.zeros((k_max + 1, k_max + 1, 1))
    b = np.zeros((k_max + 1, k_max + 1, 1))
    a[k, q, 0] = np.sqrt((4 * k * k - 1.0) / (k * k - q * q))
    b[k, q, 0] = np.sqrt(
        (2 * k + 1.0)
        * (k + q - 1.0)
        * (k - q - 1.0)
        / ((2 * k - 3.0) * (k * k - q * q))
    )
    for k in range(2, k_max + 1):
        lo = slice(0, k - 1)
        p[k, lo] = a[k, lo] * x * p[k - 1, lo] - b[k, lo] * p[k - 2, lo]
    return p


def spherical_harmonic(k, q, theta, phi):
    """Orthonormal spherical harmonic Y_kq(theta, phi) (Condon-Shortley)."""
    if k < 0 or k != int(k) or q != int(q):
        raise ValueError("k must be a nonnegative integer and q an integer")
    k = int(k)
    q = int(q)
    if abs(q) > k:
        raise ValueError("|q| must not exceed k")
    table = legendre_table(k, np.cos(theta))
    lam = table[k, abs(q), 0]
    if q >= 0:
        return lam * complex(np.exp(1j * q * phi))
    parity = -1.0 if q % 2 else 1.0
    return parity * lam * complex(np.exp(1j * q * phi))


@dataclass(frozen=True)
class QuadratureRule:
    """Product quadrature on the sphere: Gauss-Legendre in cos(theta),
    uniform in phi.  Sum of weights times the phi measure equals 4 pi."""

    nodes_costheta: np.ndarray
    weights: np.ndarray
    phi_count: int

    def __post_init__(self):
        if self.phi_count < 1:
            raise ValueError("phi_count must be positive")
        if abs(float(np.sum(self.weights)) - 2.0) > 1e-12:
            raise ValueError("quadrature weights must integrate cos(theta) over [-1, 1]")

    @property
    def thetas(self):
        return np.arccos(np.clip(self.nodes_costheta, -1.0, 1.0))

    @property
    def phis(self):
        return 2.0 * np.pi * np.arange(self.phi_count) / self.phi_count

    @property
    def phi_weight(self):
        return 2.0 * np.pi / self.phi_count


def gauss_legendre_sphere(order, phi_count):
    """Quadrature rule with `order` Gauss-Legendre nodes in cos(theta) and
    `phi_count` uniform azimuthal nodes.

    Exact for spherical-harmonic integrands of degree <= 2*order - 1 in
    cos(theta) and azimuthal orders |q| < phi_count.
    """
    if order < 1:
        raise ValueError("order must be positive")
    nodes, weights = np.polynomial.legendre.leggauss(int(order))
    return QuadratureRule(nodes, weights, int(phi_count))
