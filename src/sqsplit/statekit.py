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
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .specfun import log_binomial

__all__ = [
    "StateVector",
    "SplitFullState",
    "ConditionalState",
    "SplitMixedState",
    "spin_coherent",
    "one_axis_twist",
    "twisted_split",
    "effective_evolution",
    "mixed_split_state",
]

_LN2 = math.log(2.0)

# Entries of each cache keyed by one well's atom number: the 155 of an
# N = 500 mixture fit; unbounded, the 3799 sectors of one N = 10^4
# mixture pinned a vector each (peak RSS 30 -> 181 MB; 43 MB at 256).
_PER_N_CACHE = 256

# Largest |norm^2 - 1| a pure state may carry, one tolerance for every
# check of it: StateVector, a hand-built sector (_oracles.Sector), a
# Schmidt spectrum and the real entangler parts of one sector.
_NORM_TOL = 1e-9


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
        if not abs(norm - 1.0) <= _NORM_TOL:
            raise ValueError(f"state vector is not normalized (norm^2 = {norm})")


@dataclass(frozen=True)
class ConditionalState:
    """The two-well state effective_evolution(n_left, n_right, t),
    recorded as those three numbers; moments() and the negativity read
    nothing else.  psi[k_l, k_r], the amplitude for k_l atoms of mode a
    in the left well and k_r in the right well, is built on first access.
    """

    n_left: int
    n_right: int
    t: float

    def __post_init__(self):
        for n in (self.n_left, self.n_right):
            if not (isinstance(n, int) and n >= 0):
                raise ValueError("well populations must be nonnegative integers")
        if not math.isfinite(self.t):
            raise ValueError("twisting time must be finite")

    @property
    def n_total(self):
        return self.n_left + self.n_right

    @cached_property
    def psi(self):
        """sqrt(C(N_L,k_l) C(N_R,k_r) / 2^N) exp(i (2 k_l + 2 k_r - N)^2 t)."""
        mag = np.outer(
            _coherent_half_weights(self.n_left), _coherent_half_weights(self.n_right)
        )
        phase = np.exp(1j * self.t * _imbalance_sq(self.n_total))
        # psi[k_l, k_r] takes phase[k_l + k_r]: a zero-copy Hankel view
        return mag * sliding_window_view(phase, self.n_right + 1)


class SplitMixedState:
    """Classical mixture of conditional states over left-well sectors.

    It has one construction path, the one mixed_split_state takes: the
    mixture records its atom number n_total, its twisting time t and its
    sectors, the (weight, n_left) pairs sorted by n_left.  The weights are the
    untruncated sector probabilities, so they sum to at most one (less
    when a truncation window was applied).  blocks is the list of
    (weight, ConditionalState) records; none builds its amplitudes until
    they are read.
    """

    def __init__(self, n_total, t, sectors):
        if not math.isfinite(t):
            raise ValueError("twisting time must be finite")
        total = 0.0
        seen = set()
        for weight, n_left in sectors:
            if not 0.0 < weight <= 1.0:
                raise ValueError("block weights must lie in (0, 1]")
            if not 0 <= n_left <= n_total:
                raise ValueError("sector n_left out of range")
            if n_left in seen:
                raise ValueError("duplicate sector in mixture")
            seen.add(n_left)
            total += weight
        if total > 1.0 + 1e-9:
            raise ValueError("mixture weights exceed 1")
        self.n_total = n_total
        self.t = t
        self.sectors = sectors

    @cached_property
    def blocks(self):
        n, t = self.n_total, self.t
        return [(weight, ConditionalState(l, n - l, t)) for weight, l in self.sectors]

    @property
    def retained_mass(self):
        return float(sum(w for w, _ in self.sectors))


@dataclass(frozen=True)
class SplitFullState:
    """The x-polarized coherent state of n_total atoms, twisted for time
    t and sent through the 50/50 beam splitter, recorded as (n_total, t).

    twisted_split builds it, and moments() reads it in closed form, O(1)
    at any n_total; no amplitude is ever built.  The literal splitter
    expansion and the projection on a left atom number, which pin that
    closed form and effective_evolution, are oracles in sqsplit._oracles.
    """

    n_total: int
    t: float

    def __post_init__(self):
        if not (isinstance(self.n_total, int) and self.n_total >= 0):
            raise ValueError("atom number must be a nonnegative integer")
        if not math.isfinite(self.t):
            raise ValueError("twisting time must be finite")


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


def twisted_split(n, t):
    """one_axis_twist(spin_coherent(1/sqrt(2), 1/sqrt(2), n), t) after
    the beam splitter, as the record SplitFullState(n, t).

    An integral float n such as 500.0 is taken as that integer; any
    other n is refused, not truncated.
    """
    return SplitFullState(_atom_count(n), float(t))


def _atom_count(n):
    """n as an int when it is integral; a NaN or infinite n fails too."""
    if not float(n).is_integer():
        raise ValueError("atom number must be an integer")
    return int(n)


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
    """The conditional state as the record ConditionalState(n_left,
    n_right, t); an integral float population is taken as that integer.

    Its amplitudes are exp(i (S_L^z + S_R^z)^2 t) applied to the product
    of two x-polarized coherent states, identical (to 1e-12) to
    split-then-project on the twisted coherent state; that equivalence
    is what run_equivalence_suite certifies.
    """
    return ConditionalState(_atom_count(n_left), _atom_count(n_right), float(t))


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

    An integral float n such as 500.0 is taken as that integer.  The
    mixture records t and its (weight, n_left) sectors; its blocks,
    (weight, ConditionalState) records, are built on first access.
    Nothing else needs them: with u = 2k_l - N_L and v = 2k_r - N_R the
    sector phase is (u + v)^2 t = u^2 t + v^2 t + 2uv t, that is,
    squeezing each cloud on its own followed by the entangler
    exp(2i t uv).  The local squeezings are diagonal unitaries, and the
    entangler's amplitudes a_u b_v exp(2i t uv) split over mirror-paired
    Fock states into two real matrices, which is all the negativity
    decomposes.
    """
    n = _atom_count(n)
    if n < 0:
        raise ValueError("atom number must be nonnegative")
    # written so that a NaN window fails too; it would keep every sector
    if not 0.0 <= window < math.inf:
        raise ValueError("truncation window must be finite and nonnegative")
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
    return SplitMixedState(n, t, [(weights[l], l) for l in retained])
