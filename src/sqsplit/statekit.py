"""State preparation and splitting for two-component ensembles.

A single ensemble of N atoms in two internal modes (a, b) lives in the
symmetric Fock basis |k> with k atoms in mode a, k = 0..N.  States are
prepared as spin coherent states, squeezed by one-axis twisting (a pure
phase map in this basis), and distributed over two spatial wells by a
50/50 beam splitter acting on both internal modes.  Measuring the atom
number N_L in the left well collapses the split state onto a sector;
the conditional two-well states and the binomial mixture over sectors
are the objects every downstream module consumes.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .specfun import log_binomial

__all__ = [
    "StateVector",
    "SplitFullState",
    "ConditionalState",
    "SplitMixedState",
    "ZeroProbabilityError",
    "spin_coherent",
    "one_axis_twist",
    "split",
    "twisted_split",
    "project_left_number",
    "effective_evolution",
    "mixed_split_state",
]

_LN2 = math.log(2.0)
_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# Entries of each cache keyed by one well's atom number: the 155 of an
# N = 500 mixture fit; unbounded, the 3799 sectors of one N = 10^4
# mixture pinned a vector each (peak RSS 30 -> 181 MB; 43 MB at 256).
_PER_N_CACHE = 256


class ZeroProbabilityError(ValueError):
    """Raised when projecting on a measurement outcome of zero probability."""


@dataclass(frozen=True)
class StateVector:
    """Pure state of one N-atom ensemble, amplitudes[k] on Fock state |k>."""

    n_total: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.n_total < 0:
            raise ValueError("n_total must be nonnegative")
        if self.amplitudes.shape != (self.n_total + 1,):
            raise ValueError("amplitude vector must have length n_total + 1")
        norm = float(np.vdot(self.amplitudes, self.amplitudes).real)
        # written so that a NaN norm fails too
        if not abs(norm - 1.0) <= 1e-9:
            raise ValueError(f"state vector is not normalized (norm^2 = {norm})")


@dataclass(frozen=True)
class ConditionalState:
    """Normalized two-well pure state at fixed left atom number.

    psi[k_l, k_r] is the amplitude for k_l atoms of mode a in the left
    well and k_r in the right well.
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
        if not abs(norm - 1.0) <= 1e-9:
            raise ValueError(f"conditional state is not normalized (norm^2 = {norm})")

    @property
    def n_total(self):
        return self.n_left + self.n_right


class SplitMixedState:
    """Classical mixture of conditional states over left-well sectors.

    blocks is a list of (weight, ConditionalState) sorted by n_left;
    weights are the untruncated sector probabilities, so they sum to at
    most one (less when a truncation window was applied).  sectors
    lists the (weight, n_left) pairs and t is None.

    mixed_split_state returns a mixture that records its twisting time
    t and its sectors instead, and builds blocks only on first access,
    so a consumer that needs only (n_left, n_right, t) never pays for
    the amplitude matrices.
    """

    def __init__(self, n_total, blocks):
        for _, state in blocks:
            if state.n_left + state.n_right != n_total:
                raise ValueError("block particle numbers must sum to n_total")
        self.n_total = n_total
        self.t = None
        self.sectors = [(weight, state.n_left) for weight, state in blocks]
        self.blocks = blocks
        self._check_sectors()

    @classmethod
    def _twisted(cls, n_total, t, sectors):
        mixture = cls.__new__(cls)
        mixture.n_total = n_total
        mixture.t = t
        mixture.sectors = sectors
        mixture._check_sectors()
        return mixture

    def _check_sectors(self):
        total = 0.0
        seen = set()
        for weight, n_left in self.sectors:
            if not 0.0 < weight <= 1.0:
                raise ValueError("block weights must lie in (0, 1]")
            if not 0 <= n_left <= self.n_total:
                raise ValueError("sector n_left out of range")
            if n_left in seen:
                raise ValueError("duplicate sector in mixture")
            seen.add(n_left)
            total += weight
        if total > 1.0 + 1e-9:
            raise ValueError("mixture weights exceed 1")

    @cached_property
    def blocks(self):
        # only reached for a recorded-t mixture; the public constructor
        # sets blocks on the instance
        n = self.n_total
        low = {}
        blocks = []
        for weight, l in self.sectors:
            mirror = n - l
            if l <= mirror:
                state = effective_evolution(l, mirror, self.t)
                low[l] = state
            else:
                state = ConditionalState(l, mirror, low[mirror].psi.T)
            blocks.append((weight, state))
        return blocks

    @property
    def retained_mass(self):
        return float(sum(w for w, _ in self.sectors))


class SplitFullState:
    """Lazy view of a beam-split state, organized by left atom number.

    Sector matrices are materialized one at a time (O(N^2) memory per
    call); nothing quadratic in the number of sectors is ever stored.

    split() records the StateVector that entered the splitter, and t is
    None.  twisted_split(n, t) records only n and the twisting time t of
    the x-polarized coherent state and builds its source amplitudes on
    first access, so a consumer that needs only (n, t) never pays for
    (or, at very large n, fails on) the amplitude vector.
    """

    def __init__(self, source):
        self.source = source
        self.n_total = source.n_total
        self.t = None

    @classmethod
    def _twisted(cls, n_total, t):
        full = cls.__new__(cls)
        full.n_total = n_total
        full.t = t
        return full

    @cached_property
    def source(self):
        """The StateVector that entered the beam splitter."""
        # only reached for a recorded-t split; __init__ sets source on
        # the instance
        coherent = spin_coherent(_INV_SQRT2, _INV_SQRT2, self.n_total)
        return one_axis_twist(coherent, self.t)

    def sector(self, n_left):
        """Unnormalized amplitude matrix of the n_left sector.

        For input amplitudes c_k the split amplitude is
        2^{-N/2} sqrt(C(k, k_l) C(N-k, N_L-k_l)) c_k with k = k_l + k_r,
        which is the generic 50/50 beam splitter expansion for any
        state, not just twisted coherent ones.
        """
        n = self.n_total
        if not 0 <= n_left <= n:
            raise ValueError("n_left out of range")
        n_right = n - n_left
        k_l = np.arange(n_left + 1)[:, None]
        k_r = np.arange(n_right + 1)[None, :]
        k = k_l + k_r
        logw = 0.5 * (
            log_binomial(k, k_l) + log_binomial(n - k, n_left - k_l)
        ) - 0.5 * n * _LN2
        return np.exp(logw) * self.source.amplitudes[k]


def spin_coherent(alpha, beta, n):
    """Spin coherent state with amplitudes sqrt(C(n,k)) alpha^k beta^(n-k).

    (alpha, beta) are the single-atom mode amplitudes; |alpha|^2 + |beta|^2
    must equal 1 within 1e-10.  Assembled in log space so it stays finite
    for any n.
    """
    alpha = complex(alpha)
    beta = complex(beta)
    if abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) > 1e-10:
        raise ValueError("mode amplitudes must satisfy |alpha|^2 + |beta|^2 = 1")
    if n < 0:
        raise ValueError("atom number must be nonnegative")
    k = np.arange(n + 1)
    log_mag = 0.5 * log_binomial(n, k)
    phase = np.zeros(n + 1)
    with np.errstate(divide="ignore"):
        if abs(alpha) > 0.0:
            log_mag = log_mag + k * math.log(abs(alpha))
            phase = phase + k * np.angle(alpha)
        else:
            log_mag = np.where(k == 0, log_mag, -np.inf)
        if abs(beta) > 0.0:
            log_mag = log_mag + (n - k) * math.log(abs(beta))
            phase = phase + (n - k) * np.angle(beta)
        else:
            log_mag = np.where(k == n, log_mag, -np.inf)
    amps = np.exp(log_mag) * np.exp(1j * phase)
    return StateVector(n, amps)


def one_axis_twist(state, t):
    """One-axis twisting for time t: amplitude phases exp(i (2k - N)^2 t)."""
    n = state.n_total
    k = np.arange(n + 1)
    phases = np.exp(1j * t * (2 * k - n) ** 2)
    return StateVector(n, state.amplitudes * phases)


def split(state):
    """Send the ensemble through a 50/50 beam splitter into two wells."""
    return SplitFullState(state)


def twisted_split(n, t):
    """split(one_axis_twist(spin_coherent(1/sqrt(2), 1/sqrt(2), n), t)),
    recorded as (n, t).

    moments() reads this state in closed form, O(1) at any n; sector()
    and project_left_number build the source amplitudes on first use.
    """
    if n < 0:
        raise ValueError("atom number must be nonnegative")
    if not math.isfinite(t):
        raise ValueError("twisting time must be finite")
    return SplitFullState._twisted(int(n), float(t))


def project_left_number(full, n_left):
    """Project the split state on left atom number n_left.

    Returns (probability, normalized ConditionalState).  A zero-mass
    sector is an impossible measurement outcome and raises.
    """
    a = full.sector(n_left)
    mass = float(np.vdot(a, a).real)
    if mass <= 1e-300:
        raise ZeroProbabilityError(
            f"sector n_left = {n_left} has zero probability; cannot condition on it"
        )
    return mass, ConditionalState(n_left, full.n_total - n_left, a / math.sqrt(mass))


@lru_cache(maxsize=_PER_N_CACHE)
def _coherent_half_weights(n):
    """sqrt(C(n,k)/2^n) as a read-only vector."""
    k = np.arange(n + 1)
    w = np.exp(0.5 * (log_binomial(n, k) - n * _LN2))
    w.setflags(write=False)
    return w


@lru_cache(maxsize=_PER_N_CACHE)
def _imbalance_sq(n):
    m2 = (2.0 * np.arange(n + 1) - n) ** 2
    m2.setflags(write=False)
    return m2


def effective_evolution(n_left, n_right, t):
    """Conditional state built directly from its closed form.

    Equals exp(i (S_L^z + S_R^z)^2 t) applied to the product of two
    x-polarized coherent states: amplitudes
    sqrt(C(N_L,k_l) C(N_R,k_r) / 2^N) exp(i (2 k_l + 2 k_r - N)^2 t).
    Identical (to 1e-12) to split-then-project on the twisted coherent
    state; that equivalence is what run_equivalence_suite certifies.
    """
    if n_left < 0 or n_right < 0:
        raise ValueError("well populations must be nonnegative")
    n = n_left + n_right
    mag = np.outer(_coherent_half_weights(n_left), _coherent_half_weights(n_right))
    phase = np.exp(1j * t * _imbalance_sq(n))
    # psi[k_l, k_r] takes phase[k_l + k_r]: a zero-copy Hankel view
    psi = mag * sliding_window_view(phase, n_right + 1)
    return ConditionalState(n_left, n_right, psi)


def _window_order(n):
    """Sector indices from the center of the binomial outwards, in
    symmetric pairs (center block alone for even n)."""
    groups = []
    if n % 2 == 0:
        groups.append((n // 2,))
        for d in range(1, n // 2 + 1):
            groups.append((n // 2 - d, n // 2 + d))
    else:
        for d in range(0, (n + 1) // 2):
            groups.append(((n - 1) // 2 - d, (n + 1) // 2 + d))
    return groups


def mixed_split_state(n, t, window=1e-12):
    """Binomial mixture of conditional states after splitting.

    Sector n_left carries weight C(n, n_left)/2^n.  `window` is the
    truncation epsilon: the smallest centered window of sectors with
    total weight >= 1 - window is retained (window = 0 keeps all).
    The window also stops before the first pair of sectors with a
    weight that underflows to 0.0 (from n = 1075 on): from n = 1350 on
    the float weights often sum short of 1 by more than the default
    window (by 1.2e-11 at n = 2000), and the sum alone never stops it.

    The mixture records t and its (weight, n_left) sectors; its blocks
    are built on first access.  Opposite sectors are exact transposes
    of each other, so the high half of the window is stored as
    transposed views of the low half.  Nothing else needs the blocks:
    with u = 2k_l - N_L and v = 2k_r - N_R the sector phase is
    (u + v)^2 t = u^2 t + v^2 t + 2uv t, that is, squeezing each cloud
    on its own followed by the entangler exp(2i t uv).  The local
    squeezings are diagonal unitaries, and the entangler's amplitudes
    a_u b_v exp(2i t uv) split over mirror-paired Fock states into two
    real matrices, which is all the negativity decomposes.
    """
    if n < 0:
        raise ValueError("atom number must be nonnegative")
    if window < 0:
        raise ValueError("truncation window must be nonnegative")
    if not math.isfinite(t):
        raise ValueError("twisting time must be finite")
    weights = np.exp(log_binomial(n, np.arange(n + 1)) - n * _LN2).tolist()
    retained = []
    cum = 0.0
    for group in _window_order(n):
        group_weights = [weights[l] for l in group]
        if 0.0 in group_weights:
            break
        retained.extend(group)
        cum += sum(group_weights)
        if window > 0.0 and cum >= 1.0 - window:
            break
    retained.sort()
    return SplitMixedState._twisted(n, t, [(weights[l], l) for l in retained])
