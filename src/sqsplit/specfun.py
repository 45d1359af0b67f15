"""Special functions used throughout the package.

Everything here is exact-combinatorics plumbing: log-binomials (with a
-inf sentinel so closed-form sums can run over out-of-range Fock
indices and pick up exact zeros) read from one growable log-factorial
table, the stable normalized associated-Legendre recurrence behind the
orthonormal spherical harmonics Y_kq = P[k, |q|] exp(i q phi), and a
Gauss-Legendre quadrature rule on the unit sphere.  The Racah 3j sum,
an independent check of wigner's recursive 3j table, lives in
sqsplit._oracles.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "log_binomial",
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
        nodes = np.asarray(self.nodes_costheta, dtype=float)
        if nodes.ndim != 1 or nodes.shape != np.shape(self.weights):
            raise ValueError("quadrature rule needs one cos(theta) node per weight")
        # each check is written so that a NaN or inf node or weight fails it
        if not np.all(np.abs(nodes) <= 1.0):
            raise ValueError("quadrature nodes cos(theta) must lie in [-1, 1]")
        if not abs(float(np.sum(self.weights)) - 2.0) <= 1e-12:
            raise ValueError("quadrature weights must integrate cos(theta) over [-1, 1]")

    @property
    def thetas(self):
        return np.arccos(self.nodes_costheta)

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
