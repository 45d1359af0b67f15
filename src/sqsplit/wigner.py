"""SU(2) Wigner functions of the left-well spin state.

A spin-j density matrix is expanded in multipoles
rho_kq = sum_{m,m'} (-1)^{j-m} sqrt(2k+1) (j k j; -m q m') <j m|rho|j m'>
and the Wigner function is the harmonic sum W = sum rho_kq Y_kq, so
integral(W dOmega) = sqrt(4 pi/(2j+1)) tr(rho).  Every Wigner function
goes through that one multipole expansion.  The closed forms build the
left-well density matrix of the marginal (right well traced out) and of
the heralded state after a right-well Fock measurement directly from
binomial weights; agreement with the matrices traced or projected out
of the two-well state cross-validates the whole construction chain.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .observables import DensityMatrix, reduced_density_left
from .specfun import (
    QuadratureRule,
    gauss_legendre_sphere,
    legendre_table,
    log_binomial,
    wigner_3j,
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
    """T[k, i, i'] = (j k j; -m_i, m_i - m_i', m_i') with m = -j + index."""
    dim = two_j + 1
    table = np.zeros((dim, dim, dim))
    for k in range(dim):
        for i in range(dim):
            m = -0.5 * two_j + i
            for ip in range(dim):
                mp = -0.5 * two_j + ip
                q = m - mp
                if abs(q) > k:
                    continue
                table[k, i, ip] = wigner_3j(0.5 * two_j, k, 0.5 * two_j, -m, q, mp)
    table.setflags(write=False)
    return table


def _multipoles(rho, two_j):
    """Multipole coefficients c[k, q + 2j] of a spin-j operator."""
    dim = two_j + 1
    table = _threej_table(two_j)
    signs = np.array([(-1.0) ** (two_j - i) for i in range(dim)])
    coeffs = np.zeros((dim, 2 * two_j + 1), dtype=complex)
    for k in range(dim):
        weighted = signs[:, None] * table[k] * rho
        for q in range(-k, k + 1):
            coeffs[k, q + two_j] = math.sqrt(2 * k + 1) * np.trace(weighted, offset=-q)
    return coeffs


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
    if residue > 1e-10 * max(1.0, float(np.abs(w.real).max())):
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
    if np.abs(entries - entries.conj().T).max() > 1e-10 * scale:
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
