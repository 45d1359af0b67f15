"""SU(2) Wigner functions of the left-well spin state.

A spin-j density matrix is expanded in multipoles
rho_kq = sum_{m,m'} (-1)^{j-m} sqrt(2k+1) (j k j; -m q m') <j m|rho|j m'>
and the Wigner function is the harmonic sum W = sum rho_kq Y_kq, so
integral(W dOmega) = sqrt(4 pi/(2j+1)) tr(rho).  Every Wigner function
goes through that one multipole expansion.  Its 3j symbols come as one
table from the three-term recursion in k (within 1e-13 relative of
sympy's exact values on sampled symbols up to 2j = 120); the scalar
Racah sum `sqsplit._oracles.wigner_3j`, whose cancellation costs it
about 1e-11 relative at 2j = 36, checks the table in `sqsplit verify`
and the tests.  The closed forms
build the left-well density matrix of the marginal (right well traced
out) and of the heralded state after a right-well Fock measurement
directly from binomial weights; agreement with the matrices traced or
projected out of the two-well state cross-validates the whole
construction chain.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .observables import DensityMatrix
from .specfun import (
    QuadratureRule,
    gauss_legendre_sphere,
    legendre_table,
    log_binomial,
)

__all__ = [
    "WignerGrid",
    "default_rule",
    "wigner_from_density",
    "marginal_wigner_closed",
    "conditional_wigner_closed",
    "sphere_integral",
    "negativity_volume",
    "display_lattice",
]

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class WignerGrid:
    """Wigner function sampled on a sphere quadrature rule.

    values[i, m] = W(theta_i, phi_m).  The multipole coefficients are
    kept so the same function can be re-evaluated on a display lattice.
    norm_constant records the trace normalization divided out when the
    underlying closed form is not unit trace by construction.
    """

    j: float
    rule: QuadratureRule
    values: np.ndarray
    coeffs: np.ndarray = field(repr=False)
    norm_constant: float = 1.0

    def __post_init__(self):
        expected = (self.rule.nodes_costheta.size, self.rule.phi_count)
        if self.values.shape != expected:
            raise ValueError("value grid shape does not match the rule")


def default_rule(j):
    """Quadrature rule sized for a spin-j Wigner function: 2j+2 nodes in
    cos(theta) and 4j+4 azimuthal nodes."""
    two_j = int(round(2 * j))
    return gauss_legendre_sphere(two_j + 2, 2 * two_j + 4)


@lru_cache(maxsize=None)
def _threej_table(two_j):
    """T[k, i, i'] = (j k j; -m_i, m_i - m_i', m_i') with m = -j + index.

    With q = m - m', f(k) = (k j j; q, -m, m') = (-1)^(2j+k) T[k, i, i']
    obeys, on |q| <= k <= 2j, the three-term recursion (Schulten & Gordon,
    J. Math. Phys. 16, 1961 (1975))
        k A(k+1) f(k+1) + B(k) f(k) + (k+1) A(k) f(k-1) = 0,
        A(k) = sqrt(k^2 ((2j+1)^2 - k^2) (k^2 - q^2)),
        B(k) = (2k+1) k (k+1) (m + m'),
    run for all (m, m') at once.  The backward pass from f(2j) = 1 is
    stable down to its largest |f|; the forward pass from f(|q|) = 1
    (f(1)/f(0) = -m/sqrt(j(j+1)) when q = 0) replaces it below that point,
    scaled to agree there.  sum_k (2k+1) f^2 = 1 and sgn f(2j) = (-1)^q
    fix the scale and sign.  Both passes write into the table itself and
    every other temporary is (dim, dim), so a build peaks at about 1.5
    tables.
    """
    dim = two_j + 1
    idx = np.arange(dim)
    q = np.subtract.outer(idx, idx)
    abs_q = np.abs(q)
    q2 = (q * q).astype(float)
    msum = (np.add.outer(idx, idx) - two_j).astype(float)

    def coef_a(k):
        # zero for k <= |q| and for k = 2j + 1
        return np.sqrt(np.maximum(k * k * (dim * dim - k * k) * (k * k - q2), 0.0))

    def coef_b(k):
        return (2 * k + 1.0) * k * (k + 1.0) * msum

    f = np.zeros((dim, dim, dim))
    f[two_j] = 1.0
    peak = np.ones((dim, dim))
    k_star = np.full((dim, dim), two_j)
    a_up = coef_a(two_j + 1.0)
    for k in range(two_j, 0, -1):
        a_k = coef_a(k)
        ahead = k * a_up * f[k + 1] if k < two_j else 0.0
        num = -(ahead + coef_b(k) * f[k])
        np.divide(num, (k + 1.0) * a_k, out=f[k - 1], where=k > abs_q)
        mag = np.abs(f[k - 1])
        np.copyto(k_star, k - 1, where=mag > peak)
        np.maximum(peak, mag, out=peak)
        a_up = a_k

    scale = np.ones((dim, dim))
    prev = np.zeros((dim, dim))
    cur = np.zeros((dim, dim))
    k_last = int(k_star.max())
    for k in range(k_last + 1):
        cur[abs_q == k] = 1.0
        np.divide(f[k], cur, out=scale, where=k_star == k)
        np.copyto(f[k], cur, where=k < k_star)
        if k == k_last:
            break
        nxt = np.zeros((dim, dim))
        if k == 0:
            nxt[q == 0] = -0.5 * msum[q == 0] / math.sqrt(0.25 * two_j * (two_j + 2.0))
        else:
            num = -(coef_b(k) * cur + (k + 1.0) * coef_a(k) * prev)
            np.divide(num, k * coef_a(k + 1.0), out=nxt, where=k >= abs_q)
        prev, cur = cur, nxt

    norm = np.zeros((dim, dim))
    for k in range(dim):
        np.multiply(f[k], scale, out=f[k], where=k < k_star)
        norm += (2 * k + 1.0) * f[k] * f[k]
    f *= np.where(q % 2, -1.0, 1.0) / np.sqrt(norm)
    f[(two_j + 1) % 2 :: 2] *= -1.0
    f.setflags(write=False)
    return f


def _multipoles(rho, two_j):
    """Multipole coefficients c[k, q + 2j] of a spin-j operator.

    c_kq = sqrt(2k+1) sum_i (-1)^(2j-i) T[k, i, i-q] rho[i, i-q]: the 4j+1
    diagonals of the table and of the signed matrix are gathered once
    and contracted in one einsum.
    """
    dim = two_j + 1
    table = _threej_table(two_j)
    rows = np.arange(dim)
    cols = rows - np.arange(-two_j, two_j + 1)[:, None]  # (q, i) -> i - q
    inside = (cols >= 0) & (cols < dim)
    cols = np.where(inside, cols, 0)
    signs = np.where((two_j - rows) % 2, -1.0, 1.0)
    diagonals = np.where(inside, signs * np.asarray(rho)[rows, cols], 0.0)
    # real and imaginary parts side by side keep the gathered table real
    parts = np.stack((diagonals.real, diagonals.imag))
    re, im = np.einsum("kqi,rqi->rkq", table[:, rows, cols], parts)
    return np.sqrt(2.0 * rows + 1.0)[:, None] * (re + 1j * im)


def _evaluate(coeffs, two_j, thetas, phis):
    """Harmonic sum W = sum_kq c_kq Y_kq on a (theta x phi) grid."""
    k_max = two_j
    lam = legendre_table(k_max, np.cos(thetas))
    f = np.zeros((2 * two_j + 1, thetas.size), dtype=complex)
    for q in range(-k_max, k_max + 1):
        col = lam[:, abs(q), :]
        scale = (-1.0) ** q if q < 0 else 1.0
        f[q + two_j] = scale * (coeffs[:, q + two_j] @ col)
    phase = np.exp(1j * np.outer(np.arange(-k_max, k_max + 1), phis))
    w = f.T @ phase
    residue = float(np.abs(w.imag).max())
    # written so that a NaN residue fails it
    if not residue <= 1e-10 * max(1.0, float(np.abs(w.real).max())):
        raise ValueError(f"Wigner values are not real (imaginary residue {residue})")
    return w.real


def wigner_from_density(rho, rule=None):
    """Wigner function of a spin-j density matrix (j = (dim-1)/2).

    Accepts a DensityMatrix or a raw Hermitian matrix whose row index is
    the mode-a count k = j + m.
    """
    entries = rho.entries if isinstance(rho, DensityMatrix) else np.asarray(rho)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise ValueError("density matrix must be square")
    scale = max(1.0, float(np.abs(entries).max()))
    # written so that a NaN or inf entry fails it
    if not np.abs(entries - entries.conj().T).max() <= 1e-10 * scale:
        raise ValueError("density matrix must be Hermitian")
    two_j = entries.shape[0] - 1
    if rule is None:
        rule = default_rule(0.5 * two_j)
    coeffs = _multipoles(entries, two_j)
    values = _evaluate(coeffs, two_j, rule.thetas, rule.phis)
    return WignerGrid(0.5 * two_j, rule, values, coeffs)


def marginal_wigner_closed(n_left, n_right, t, rule=None):
    """Closed-form Wigner function of the left well after tracing the right.

    The right-well trace collapses into the factor
    exp(i 4 (m-m')(m+m'-N_R) t) (1 + exp(i 8 (m-m') t))^{N_R}, so the
    left-well density matrix is built from binomial weights without
    forming the two-well state.  Unit trace by construction.
    """
    n = n_left + n_right
    two_j = n_left
    if rule is None:
        rule = default_rule(0.5 * two_j)
    k = np.arange(two_j + 1)
    m, log_binom = k - 0.5 * two_j, log_binomial(n_left, k)
    diff = np.subtract.outer(m, m)
    rho = (
        np.exp(0.5 * np.add.outer(log_binom, log_binom) - n * _LN2)
        * np.exp(4j * diff * (np.add.outer(m, m) - n_right) * t)
        * (1.0 + np.exp(8j * diff * t)) ** n_right
    )
    coeffs = _multipoles(rho, two_j)
    values = _evaluate(coeffs, two_j, rule.thetas, rule.phis)
    return WignerGrid(0.5 * two_j, rule, values, coeffs)


def conditional_wigner_closed(n_left, n_right, k_r, t, rule=None):
    """Closed-form Wigner function of the left well heralded on measuring
    k_r mode-a atoms in the right well.

    The left-well density matrix carries exp(i 4 (m-m')(2 k_r - N_R +
    m + m') t); its multipoles are divided by their trace constant so the
    result is unit trace, and the divisor is recorded as norm_constant.
    """
    if not 0 <= k_r <= n_right:
        raise ValueError("k_r out of range")
    n = n_left + n_right
    two_j = n_left
    if rule is None:
        rule = default_rule(0.5 * two_j)
    k = np.arange(two_j + 1)
    m, log_binom = k - 0.5 * two_j, log_binomial(n_left, k)
    rho = np.exp(
        0.5 * np.add.outer(log_binom, log_binom)
        + log_binomial(n_right, k_r)
        - n * _LN2
    ) * np.exp(
        4j * np.subtract.outer(m, m) * (2 * k_r - n_right + np.add.outer(m, m)) * t
    )
    coeffs = _multipoles(rho, two_j)
    # normalize to unit trace: a unit-trace operator has c_00 = 1/sqrt(2j+1)
    norm = float(coeffs[0, two_j].real) * math.sqrt(two_j + 1.0)
    if norm <= 0.0:
        raise ValueError("conditional state has zero probability")
    coeffs /= norm
    values = _evaluate(coeffs, two_j, rule.thetas, rule.phis)
    return WignerGrid(0.5 * two_j, rule, values, coeffs, norm_constant=norm)


def sphere_integral(grid):
    """Quadrature integral of W over the sphere."""
    row = grid.values.sum(axis=1) * grid.rule.phi_weight
    return float(np.dot(grid.rule.weights, row))


def negativity_volume(grid):
    """Integral of max(0, -W) over the sphere."""
    neg = np.clip(-grid.values, 0.0, None)
    row = neg.sum(axis=1) * grid.rule.phi_weight
    return float(np.dot(grid.rule.weights, row))


def display_lattice(grid, n_theta=181, n_phi=361):
    """Re-evaluate the Wigner function on a uniform plotting lattice.

    Returns (thetas, phis, values) with thetas spanning [0, pi] and phis
    [0, 2 pi], both endpoint-inclusive; values has shape
    (n_theta, n_phi) in theta-major order.
    """
    thetas = np.linspace(0.0, math.pi, n_theta)
    phis = np.linspace(0.0, 2.0 * math.pi, n_phi)
    two_j = int(round(2 * grid.j))
    values = _evaluate(grid.coeffs, two_j, thetas, phis)
    return thetas, phis, values
