"""Collective spin observables on two-well states.

Spin components per well follow the Schwinger convention
S^z |k> = (2k - N)|k>, S^x |k> = sqrt((k+1)(N-k))|k+1> + sqrt(k(N-k+1))|k-1>,
so [S^x, S^y] = 2i S^z and a fully polarized well has |<S>| = N.
Operators are applied as banded stencils on the amplitude matrix (no
operator matrices are ever materialized), which keeps everything
O(N^2) and exact.  First and second moments of the six components
(S_L^x, S_L^y, S_L^z, S_R^x, S_R^y, S_R^z) are collected into a
MomentSet: the symmetrized covariance matrix V and the commutator
matrix Omega that the entanglement witnesses consume.  The moments of
a beam-split state follow in O(N) from those of the single ensemble
that entered the splitter.
"""

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .statekit import ConditionalState, SplitFullState, SplitMixedState, StateVector

__all__ = [
    "SpinLabel",
    "MomentSet",
    "DensityMatrix",
    "apply_spin",
    "moments",
    "rotate_moments",
    "reduced_density_left",
    "project_right_fock",
    "right_outcome_distribution",
]

_COMPONENTS = ("x", "y", "z")
_WELLS = ("left", "right")


@dataclass(frozen=True)
class SpinLabel:
    """Which collective spin component to apply.

    axis is one of 'x', 'y', 'z', 'yprime', 'zprime'; the primed axes
    are the rotated quadratures y' = y cos(theta) - z sin(theta),
    z' = y sin(theta) + z cos(theta) and require theta.
    """

    axis: str
    well: str
    theta: float | None = None

    def __post_init__(self):
        if self.well not in _WELLS:
            raise ValueError(f"unknown well {self.well!r}")
        if self.axis not in ("x", "y", "z", "yprime", "zprime"):
            raise ValueError(f"unknown axis {self.axis!r}")
        if self.axis in ("yprime", "zprime") and self.theta is None:
            raise ValueError("primed axes need a rotation angle theta")


@lru_cache(maxsize=None)
def _ladder(n):
    """sqrt((k+1)(n-k)) for k = 0..n-1 (raising coefficients)."""
    k = np.arange(n)
    u = np.sqrt((k + 1.0) * (n - k))
    u.setflags(write=False)
    return u


def _apply_component(psi, axis, well, n_left, n_right):
    if well == "right":
        # the right well acts on the second index: the left-well body on psi.T
        return _apply_component(psi.T, axis, "left", n_right, n_left).T
    n = n_left
    if axis == "z":
        m = 2.0 * np.arange(n + 1) - n
        return m[:, None] * psi
    out = np.zeros_like(psi)
    if n == 0:
        return out
    u = _ladder(n)[:, None]
    if axis == "x":
        out[1:] += u * psi[:-1]
        out[:-1] += u * psi[1:]
    else:  # y
        out[1:] += -1j * u * psi[:-1]
        out[:-1] += 1j * u * psi[1:]
    return out


def apply_spin(label, state):
    """Apply one collective spin component to a ConditionalState.

    Returns the (unnormalized) amplitude matrix of the image.  Primed
    axes are formed as linear combinations of the y and z images, so a
    single code path serves every analysis angle.
    """
    psi = state.psi
    nl, nr = state.n_left, state.n_right
    if label.axis in ("x", "y", "z"):
        return _apply_component(psi, label.axis, label.well, nl, nr)
    sy = _apply_component(psi, "y", label.well, nl, nr)
    sz = _apply_component(psi, "z", label.well, nl, nr)
    c, s = math.cos(label.theta), math.sin(label.theta)
    if label.axis == "zprime":
        return s * sy + c * sz
    return c * sy - s * sz


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


def _gram(state):
    """Stack (psi, A_1 psi .. A_6 psi) and form all inner products at once."""
    psi = state.psi
    nl, nr = state.n_left, state.n_right
    stack = np.empty((7, psi.size), dtype=complex)
    stack[0] = psi.ravel()
    idx = 1
    for well in _WELLS:
        for axis in _COMPONENTS:
            stack[idx] = _apply_component(psi, axis, well, nl, nr).ravel()
            idx += 1
    g7 = stack.conj() @ stack.T
    means = g7[0, 1:].real.copy()
    return g7[1:, 1:], means


def _finalize(raw, means, n_total):
    v = raw.real - np.outer(means, means)
    omega = 2.0 * raw.imag
    # different wells commute exactly
    omega[:3, 3:] = 0.0
    omega[3:, :3] = 0.0
    v = 0.5 * (v + v.T)
    omega = 0.5 * (omega - omega.T)
    return MomentSet(n_total, means, v, omega)


def _split_moments(full):
    """MomentSet of a beam-split state from its source amplitudes, O(N).

    With vacuum in the unused port the splitter maps a_L, a_R to
    (a + v)/sqrt(2), (a - v)/sqrt(2) (likewise for b), and every term
    holding a vacuum operator vanishes once normally ordered.  With
    m = <S>, C the symmetrized covariance of the single ensemble and N
    its atom number this leaves
        <S_L> = <S_R> = m / 2,
        V_LL = V_RR = (C + N I) / 4,  V_LR = V_RL = (C - N I) / 4,
        Omega_LL = Omega_RR = eps_ijk m_k,  Omega_LR = 0.
    """
    source = full.source
    n = source.n_total
    a = source.amplitudes[:, None]
    images = [_apply_component(a, axis, "left", n, 0) for axis in _COMPONENTS]
    m = np.array([np.vdot(a, img).real for img in images])
    # C from centred images: <S^i S^j> - m_i m_j cancels terms of size
    # N^2 and leaves E_CM(t = 0) at -7e-10 instead of -7e-13 at N = 500
    centred = np.stack([(img - mi * a).ravel() for img, mi in zip(images, m)])
    c = (centred.conj() @ centred.T).real
    c = 0.5 * (c + c.T)
    local = 0.25 * (c + n * np.eye(3))
    cross = 0.25 * (c - n * np.eye(3))
    omega3 = np.array(
        [[0.0, m[2], -m[1]], [-m[2], 0.0, m[0]], [m[1], -m[0], 0.0]]
    )
    zero = np.zeros((3, 3))
    return MomentSet(
        n,
        np.concatenate([0.5 * m, 0.5 * m]),
        np.block([[local, cross], [cross, local]]),
        np.block([[omega3, zero], [zero, omega3]]),
    )


def moments(state, theta=None):
    """MomentSet of a ConditionalState, SplitFullState or SplitMixedState.

    With theta given, the returned moments are expressed on the rotated
    axes (x, y', z') of both wells.

    A SplitFullState (what split() returns) is handled in O(N) from the
    amplitudes of the ensemble that entered the splitter.  Every one of
    the six components conserves the left atom number, so these are
    also exactly the moments of the number-collapsed mixture over all
    left-well sectors: mixed_split_state(n, t, window=0) has the moments
    of split(one_axis_twist(spin_coherent(...), t)).

    A SplitMixedState is summed sector by sector in O(N^2 sqrt N);
    moments are normalized by the retained sector mass.
    """
    if isinstance(state, ConditionalState):
        raw, means = _gram(state)
        ms = _finalize(raw, means, state.n_total)
    elif isinstance(state, SplitFullState):
        ms = _split_moments(state)
    elif isinstance(state, SplitMixedState):
        agg_raw = np.zeros((6, 6), dtype=complex)
        agg_means = np.zeros(6)
        total = 0.0
        for weight, block in state.blocks:
            raw, means = _gram(block)
            agg_raw += weight * raw
            agg_means += weight * means
            total += weight
        if total <= 0.0:
            raise ValueError("mixture has no weight")
        ms = _finalize(agg_raw / total, agg_means / total, state.n_total)
    else:
        raise TypeError(
            "moments expects a ConditionalState, SplitFullState or SplitMixedState"
        )
    if theta is not None:
        ms = rotate_moments(ms, theta)
    return ms


def rotate_moments(ms, theta):
    """Express a MomentSet on the rotated axes (x, y', z') of both wells."""
    c, s = math.cos(theta), math.sin(theta)
    r3 = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    r = np.zeros((6, 6))
    r[:3, :3] = r3
    r[3:, 3:] = r3
    return MomentSet(ms.n_total, r @ ms.means, r @ ms.V @ r.T, r @ ms.Omega @ r.T)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix."""

    entries: np.ndarray

    def __post_init__(self):
        m = self.entries
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("density matrix must be square")
        scale = max(1.0, float(np.abs(m).max()))
        if np.abs(m - m.conj().T).max() > 1e-10 * scale:
            raise ValueError("density matrix is not Hermitian")
        if abs(np.trace(m).real - 1.0) > 1e-10:
            raise ValueError("density matrix trace must be 1")
        if float(np.linalg.eigvalsh(m).min()) < -1e-10:
            raise ValueError("density matrix is not positive semidefinite")

    @property
    def dim(self):
        return self.entries.shape[0]


def reduced_density_left(state):
    """Trace out the right well: rho_L = psi psi^dagger."""
    rho = state.psi @ state.psi.conj().T
    return DensityMatrix(rho)


def right_outcome_distribution(state):
    """Probabilities of measuring k_r atoms of mode a in the right well.

    These are the squared-amplitude column masses C(N_R,k_r)/2^{N_R} for
    canonically split states; summing the closed-form conditional
    amplitudes is the only definition consistent with normalization and
    with project_right_fock probabilities.
    """
    return (np.abs(state.psi) ** 2).sum(axis=0)


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
