"""Independent routes kept only to check the fast ones.

No production path calls into this module.  `sqsplit verify`
(cli.run_equivalence_suite, which imports it inside the function) and
the tests hold each fast path against the route here that pins it:

- Sector, a hand-built (n_left, n_right, psi) amplitude matrix, is
  what the routes here build and the tests hand them;
- split_sector, the 50/50 beam-splitter expansion of the StateVector
  that enters the splitter, and project_left_number, which collapses it
  on a left atom number, pin effective_evolution (split-then-project
  equals squeezing each cloud plus the entangler) and the binomial
  sector law;
- sector_moments, the O(N^2) Gram matrix of the spin-component
  stencils on one amplitude matrix, pins the closed-form moments of a
  ConditionalState;
- split_moments, O(N) from the amplitudes that enter the splitter, and
  mixture_moments, _gram summed sector by sector, pin the closed-form
  moments of twisted_split (and with them the moments of the number
  collapsed mixture, which conserve N_L);
- wigner_3j, the Racah single sum, pins the recursive 3j table
  wigner._threej_table;
- log_negativity_dense, the explicit partial transpose, pins
  log_negativity_pure, log_negativity_mixed and log_negativity_bracket;
- schmidt_svd and log_negativity_svd, the complex SVD of one amplitude
  matrix, and block_trace_norms, one per block of any list of
  (weight, state), pin the real C/S decomposition that schmidt,
  log_negativity_pure and _block_trace_norms make.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .entangle import SchmidtSpectrum
from .observables import MomentSet, _vacuum_port
from .specfun import _log_facts, log_binomial
from .statekit import (
    _LN2,
    _NORM_TOL,
    _PER_N_CACHE,
    ConditionalState,
    SplitMixedState,
    StateVector,
)


class ZeroProbabilityError(ValueError):
    """Raised when projecting on a measurement outcome of zero probability."""


@dataclass(frozen=True)
class Sector:
    """Hand-built normalized two-well pure state at fixed left atom number.

    psi[k_l, k_r] is the amplitude for k_l atoms of mode a in the left
    well and k_r in the right well.  Every route here that reads .psi
    takes a Sector or a ConditionalState record alike.
    """

    n_left: int
    n_right: int
    psi: np.ndarray

    def __post_init__(self):
        if self.n_left < 0 or self.n_right < 0:
            raise ValueError("well populations must be nonnegative")
        if self.psi.shape != (self.n_left + 1, self.n_right + 1):
            raise ValueError("amplitude matrix shape must be (n_left+1, n_right+1)")
        norm = float(np.vdot(self.psi, self.psi).real)
        # written so that a NaN norm fails too
        if not abs(norm - 1.0) <= _NORM_TOL:
            raise ValueError(f"conditional state is not normalized (norm^2 = {norm})")

    @property
    def n_total(self):
        return self.n_left + self.n_right


_COMPONENTS = ("x", "y", "z")
_WELLS = ("left", "right")


@lru_cache(maxsize=_PER_N_CACHE)
def _ladder(n):
    """sqrt((k+1)(n-k)) for k = 0..n-1 (raising coefficients)."""
    k = np.arange(n)
    u = np.sqrt((k + 1.0) * (n - k))
    u.setflags(write=False)
    return u


def _apply_component(psi, axis, well, n_left, n_right):
    """S^axis of one well applied to the amplitude matrix psi as a
    banded stencil (no operator matrix is built)."""
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


def _gram(state):
    """Stack (psi, A_1 psi .. A_6 psi) and form all inner products at once,
    each divided by <psi|psi>: a state is accepted with its squared norm
    within 1e-9 of 1, and its moments are those of the normalized state."""
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
    norm = g7[0, 0].real
    return g7[1:, 1:] / norm, g7[0, 1:].real / norm


def _finalize(raw, means, n_total):
    v = raw.real - np.outer(means, means)
    omega = 2.0 * raw.imag
    # different wells commute exactly
    omega[:3, 3:] = 0.0
    omega[3:, :3] = 0.0
    v = 0.5 * (v + v.T)
    omega = 0.5 * (omega - omega.T)
    return MomentSet(n_total, means, v, omega)


def sector_moments(state):
    """MomentSet of one Sector or ConditionalState from its amplitude
    matrix, the Gram matrix of the stencil images (_gram, looked up at
    call time), O(N^2)."""
    return _finalize(*_gram(state), state.n_total)


def _nuclear_norm(psi):
    return float(np.sum(np.linalg.svd(psi, compute_uv=False)))


def schmidt_svd(state):
    """Schmidt spectrum of a Sector or ConditionalState from the complex
    SVD of its amplitude matrix."""
    return SchmidtSpectrum(np.linalg.svd(state.psi, compute_uv=False))


def log_negativity_svd(state):
    """2 log2 of the summed singular values of the complex amplitude
    matrix of a Sector or ConditionalState."""
    return 2.0 * math.log2(_nuclear_norm(state.psi))


def split_sector(source, n_left):
    """Unnormalized amplitude matrix of the n_left sector of the
    StateVector source after the 50/50 beam splitter.

    For input amplitudes c_k the split amplitude is
    2^{-N/2} sqrt(C(k, k_l) C(N-k, N_L-k_l)) c_k with k = k_l + k_r,
    which is the generic 50/50 beam splitter expansion for any
    state, not just twisted coherent ones.
    """
    n = source.n_total
    if not 0 <= n_left <= n:
        raise ValueError("n_left out of range")
    n_right = n - n_left
    k_l = np.arange(n_left + 1)[:, None]
    k_r = np.arange(n_right + 1)[None, :]
    k = k_l + k_r
    logw = 0.5 * (
        log_binomial(k, k_l) + log_binomial(n - k, n_left - k_l)
    ) - 0.5 * n * _LN2
    return np.exp(logw) * source.amplitudes[k]


def project_left_number(source, n_left):
    """Split the StateVector source and project on left atom number n_left.

    Returns (probability, normalized Sector).  A zero-mass sector is an
    impossible measurement outcome and raises.
    """
    a = split_sector(source, n_left)
    mass = float(np.vdot(a, a).real)
    if mass <= 1e-300:
        raise ZeroProbabilityError(
            f"sector n_left = {n_left} has zero probability; cannot condition on it"
        )
    return mass, Sector(n_left, source.n_total - n_left, a / math.sqrt(mass))


def split_moments(source):
    """MomentSet of the StateVector source after the beam splitter, O(N)
    from its amplitudes, taken of the normalized source (every product
    divided by <a|a>)."""
    n = source.n_total
    a = source.amplitudes[:, None]
    norm = np.vdot(a, a).real
    images = [_apply_component(a, axis, "left", n, 0) for axis in "xyz"]
    m = np.array([np.vdot(a, img).real for img in images]) / norm
    # C from centred images: <S^i S^j> - m_i m_j cancels terms of size
    # N^2 and leaves E_CM(t = 0) at -7e-10 instead of -7e-13 at N = 500
    centred = np.stack([(img - mi * a).ravel() for img, mi in zip(images, m)])
    c = (centred.conj() @ centred.T).real / norm
    return _vacuum_port(n, m, 0.5 * (c + c.T))


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
    and 2.6e-5 at 2j = 120, where the recursive table is within 4e-14.
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
    explicitly, and sums the absolute eigenvalues.  A ConditionalState,
    Sector or SplitMixedState only occupies fixed-(N_L, N_R) subspaces,
    and the left transpose maps each onto itself, so each subspace is
    diagonalised on its own.  A StateVector stands for its own split
    state, which is coherent across sectors and needs the full tensor
    product of the two well spaces.  Refuses n_total beyond max_n
    (default 8).
    """
    if not isinstance(state, (ConditionalState, Sector, SplitMixedState, StateVector)):
        raise TypeError(
            "expected a ConditionalState, Sector, SplitMixedState or the StateVector to split"
        )
    n = state.n_total
    if n > max_n:
        raise ValueError(f"dense route limited to n_total <= {max_n}")
    if isinstance(state, StateVector):
        # coherent superposition over sectors, still one pure vector
        index = _dense_basis(n)
        d = len(index)
        vec = np.zeros(d * d, dtype=complex)
        for n_left in range(n + 1):
            psi = split_sector(state, n_left)
            for k_l in range(n_left + 1):
                il = index[(n_left, k_l)]
                for k_r in range(n - n_left + 1):
                    vec[il * d + index[(n - n_left, k_r)]] = psi[k_l, k_r]
        return math.log2(_partial_transpose_trace_norm(np.outer(vec, vec.conj()), d, d))
    blocks = state.blocks if isinstance(state, SplitMixedState) else [(1.0, state)]
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


def _check_blocks(blocks):
    """n_total of a list of (weight, state) with weights in
    (0, 1] and one total atom number."""
    if not blocks:
        raise ValueError("a mixture needs at least one block")
    n_total = blocks[0][1].n_total
    for weight, block in blocks:
        if not 0.0 < weight <= 1.0:
            raise ValueError("block weights must lie in (0, 1]")
        if block.n_total != n_total:
            raise ValueError("block particle numbers must sum to one n_total")
    return n_total


def mixture_moments(blocks):
    """MomentSet of the mixture of (weight, Sector or ConditionalState)
    blocks, sector by sector in O(N^2) per block.

    Raw second moments (_gram, looked up at call time) are
    weight-averaged first and then centered on the aggregate means, and
    everything is normalized by the summed weight.
    """
    n_total = _check_blocks(blocks)
    agg_raw = np.zeros((6, 6), dtype=complex)
    agg_means = np.zeros(6)
    total = 0.0
    for weight, block in blocks:
        raw, means = _gram(block)
        agg_raw += weight * raw
        agg_means += weight * means
        total += weight
    return _finalize(agg_raw / total, agg_means / total, n_total)


def block_trace_norms(blocks):
    """(weight, ||psi||_*, 0.0) per (weight, state) block, in
    the form entangle._block_trace_norms gives: each block decomposed
    whole by a complex SVD, so the slack is 0."""
    _check_blocks(blocks)
    return [(w, _nuclear_norm(b.psi), 0.0) for w, b in blocks]
