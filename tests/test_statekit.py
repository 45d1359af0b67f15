import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqsplit import observables, statekit
from sqsplit.statekit import (
    ConditionalState,
    SplitMixedState,
    StateVector,
    ZeroProbabilityError,
    effective_evolution,
    mixed_split_state,
    one_axis_twist,
    project_left_number,
    spin_coherent,
    split,
    twisted_split,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _random_state(n, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    amps /= np.linalg.norm(amps)
    return StateVector(n, amps)


def test_state_vector_guards():
    with pytest.raises(ValueError):
        StateVector(2, np.array([1.0, 0.0]))  # wrong length
    with pytest.raises(ValueError):
        StateVector(1, np.array([1.0, 1.0]))  # not normalized
    with pytest.raises(ValueError):
        StateVector(-1, np.array([]))


def test_conditional_state_guards():
    psi = np.zeros((3, 2), dtype=complex)
    psi[0, 0] = 1.0
    ConditionalState(2, 1, psi)
    with pytest.raises(ValueError):
        ConditionalState(1, 1, psi)
    with pytest.raises(ValueError):
        ConditionalState(2, 1, 2.0 * psi)


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_twist_rejects_non_finite_time(t):
    # the amplitudes come out NaN; the normalization check must see it
    with np.errstate(invalid="ignore"), pytest.raises(ValueError):
        one_axis_twist(spin_coherent(INV_SQRT2, INV_SQRT2, 6), t)


def test_constructors_reject_nan_amplitudes():
    with pytest.raises(ValueError):
        StateVector(1, np.array([math.nan, 1.0]))
    with pytest.raises(ValueError):
        ConditionalState(1, 1, np.full((2, 2), math.nan, dtype=complex))


# ---------------------------------------------------------------------------
# preparation and twisting


def test_spin_coherent_single_atom():
    alpha, beta = 0.6 + 0.0j, 0.8j
    state = spin_coherent(alpha, beta, 1)
    assert np.allclose(state.amplitudes, [beta, alpha], atol=1e-15)


def test_spin_coherent_two_atoms_balanced():
    state = spin_coherent(INV_SQRT2, INV_SQRT2, 2)
    assert np.allclose(state.amplitudes, [0.5, INV_SQRT2, 0.5], atol=1e-15)


def test_spin_coherent_normalized_and_matches_direct_formula():
    rng = np.random.default_rng(3)
    z = rng.normal(size=2) + 1j * rng.normal(size=2)
    alpha, beta = z / np.linalg.norm(z)
    n = 15
    state = spin_coherent(alpha, beta, n)
    direct = np.array(
        [math.sqrt(math.comb(n, k)) * alpha**k * beta ** (n - k) for k in range(n + 1)]
    )
    assert np.allclose(state.amplitudes, direct, atol=1e-13)
    assert abs(np.vdot(state.amplitudes, state.amplitudes) - 1.0) < 1e-12
    big = spin_coherent(INV_SQRT2, INV_SQRT2, 20)
    assert abs(np.linalg.norm(big.amplitudes) - 1.0) < 1e-12


def test_spin_coherent_pole_states():
    north = spin_coherent(0.0, 1.0, 6)
    assert np.allclose(north.amplitudes, np.eye(7)[0], atol=1e-15)
    south = spin_coherent(1.0, 0.0, 6)
    assert np.allclose(south.amplitudes, np.eye(7)[6], atol=1e-15)


def test_spin_coherent_rejects_bad_input():
    with pytest.raises(ValueError):
        spin_coherent(1.0, 1.0, 4)
    with pytest.raises(ValueError):
        spin_coherent(INV_SQRT2, INV_SQRT2, -1)


def test_one_axis_twist_phases():
    state = _random_state(2, seed=5)
    t = 0.37
    out = one_axis_twist(state, t)
    phases = np.exp(1j * np.array([4 * t, 0.0, 4 * t]))
    assert np.allclose(out.amplitudes, state.amplitudes * phases, atol=1e-15)
    # t = 0 is the identity, and moduli never change
    same = one_axis_twist(state, 0.0)
    assert np.array_equal(same.amplitudes, state.amplitudes)
    anytime = one_axis_twist(_random_state(11, seed=6), 2.13)
    assert np.allclose(
        np.abs(anytime.amplitudes), np.abs(_random_state(11, seed=6).amplitudes)
    )


# ---------------------------------------------------------------------------
# splitting


def _split_oracle_sector(state, n_left):
    """Expand |k> under a -> (aL+aR)/sqrt2, b -> (bL+bR)/sqrt2 symbolically.

    Completely independent of the log-binomial closed form used by the
    package: sympy multiplies out the operator polynomial and the Fock
    amplitudes are read off monomial by monomial.
    """
    import sympy as sp

    n = state.n_total
    n_right = n - n_left
    a_l, a_r, b_l, b_r = sp.symbols("a_l a_r b_l b_r")
    poly = sp.Integer(0)
    for k in range(n + 1):
        c = complex(state.amplitudes[k])
        term = (
            ((a_l + a_r) / sp.sqrt(2)) ** k
            * ((b_l + b_r) / sp.sqrt(2)) ** (n - k)
            / sp.sqrt(sp.factorial(k) * sp.factorial(n - k))
        )
        poly += (sp.Float(c.real, 20) + sp.I * sp.Float(c.imag, 20)) * term
    poly = sp.expand(poly)
    out = np.zeros((n_left + 1, n_right + 1), dtype=complex)
    for k_l in range(n_left + 1):
        for k_r in range(n_right + 1):
            j_l, j_r = n_left - k_l, n_right - k_r
            mono = a_l**k_l * a_r**k_r * b_l**j_l * b_r**j_r
            coeff = poly.coeff(a_l, k_l).coeff(a_r, k_r).coeff(b_l, j_l).coeff(b_r, j_r)
            norm = sp.sqrt(
                sp.factorial(k_l) * sp.factorial(k_r) * sp.factorial(j_l) * sp.factorial(j_r)
            )
            out[k_l, k_r] = complex((coeff * norm).evalf())
    return out


def _sector_masses(full):
    """Squared norm of every left-atom-number sector of a split state."""
    return np.array(
        [np.vdot(a, a).real for a in map(full.sector, range(full.n_total + 1))]
    )


def test_split_single_atom():
    state = StateVector(1, np.array([0.0, 1.0], dtype=complex))
    full = split(state)
    masses = _sector_masses(full)
    assert abs(masses[0] - 0.5) < 1e-15
    assert abs(masses[1] - 0.5) < 1e-15


def test_split_total_mass_random_input():
    full = split(_random_state(9, seed=8))
    assert abs(_sector_masses(full).sum() - 1.0) < 1e-12


def test_split_matches_symbolic_expansion():
    for n in range(1, 6):
        state = _random_state(n, seed=100 + n)
        full = split(state)
        for n_left in range(n + 1):
            got = full.sector(n_left)
            want = _split_oracle_sector(state, n_left)
            assert np.allclose(got, want, atol=1e-12), (n, n_left)


def test_split_sector_masses_binomial_for_twisted_coherent():
    n = 12
    weights = np.array([math.comb(n, l) / 2**n for l in range(n + 1)])
    for t in (0.0, 0.37, math.pi / 8):
        full = split(one_axis_twist(spin_coherent(INV_SQRT2, INV_SQRT2, n), t))
        assert np.allclose(_sector_masses(full), weights, atol=1e-13)


def test_split_sector_range_check():
    full = split(_random_state(3, seed=1))
    with pytest.raises(ValueError):
        full.sector(4)
    with pytest.raises(ValueError):
        full.sector(-1)


# ---------------------------------------------------------------------------
# projection


def test_project_probability_and_normalization():
    n = 10
    full = split(one_axis_twist(spin_coherent(INV_SQRT2, INV_SQRT2, n), 0.3))
    p, cond = project_left_number(full, 5)
    assert abs(p - 252 / 1024) < 1e-13
    assert abs(np.vdot(cond.psi, cond.psi).real - 1.0) < 1e-12
    for n_left in range(n + 1):
        _, c = project_left_number(full, n_left)
        assert abs(np.vdot(c.psi, c.psi).real - 1.0) < 1e-12


def test_project_at_zero_time_is_product_coherent():
    full = split(spin_coherent(INV_SQRT2, INV_SQRT2, 8))
    _, cond = project_left_number(full, 3)
    left = spin_coherent(INV_SQRT2, INV_SQRT2, 3).amplitudes
    right = spin_coherent(INV_SQRT2, INV_SQRT2, 5).amplitudes
    assert np.allclose(cond.psi, np.outer(left, right), atol=1e-13)


def test_project_zero_probability_sector():
    # a silent all-zero source models an impossible measurement record
    dead = split(types.SimpleNamespace(n_total=2, amplitudes=np.zeros(3)))
    with pytest.raises(ZeroProbabilityError):
        project_left_number(dead, 1)


# ---------------------------------------------------------------------------
# effective evolution (split-then-evolve = evolve-then-split)


def test_effective_evolution_equals_pipeline():
    for n in range(1, 9):
        for t in (0.05, 0.3, 1.0):
            full = split(one_axis_twist(spin_coherent(INV_SQRT2, INV_SQRT2, n), t))
            for n_left in range(n + 1):
                _, cond = project_left_number(full, n_left)
                direct = effective_evolution(n_left, n - n_left, t)
                assert np.allclose(cond.psi, direct.psi, atol=1e-12), (n, n_left, t)


def test_effective_evolution_zero_time():
    cond = effective_evolution(2, 3, 0.0)
    left = spin_coherent(INV_SQRT2, INV_SQRT2, 2).amplitudes
    right = spin_coherent(INV_SQRT2, INV_SQRT2, 3).amplitudes
    assert np.allclose(cond.psi, np.outer(left, right), atol=1e-14)


def test_effective_evolution_moduli_are_time_independent():
    n_left, n_right = 4, 6
    n = n_left + n_right
    ref = np.abs(effective_evolution(n_left, n_right, 0.9).psi) ** 2
    again = np.abs(effective_evolution(n_left, n_right, 0.17).psi) ** 2
    assert np.allclose(ref, again, atol=1e-14)
    want = np.array(
        [
            [
                math.comb(n_left, k_l) * math.comb(n_right, k_r) / 2**n
                for k_r in range(n_right + 1)
            ]
            for k_l in range(n_left + 1)
        ]
    )
    assert np.allclose(ref, want, atol=1e-15)


def test_effective_evolution_cat_state_at_pi_over_eight():
    """At t = pi/8 (even wells) the state is a two-branch coherent cat."""
    for n_left, n_right in ((2, 2), (4, 6), (6, 6)):
        n = n_left + n_right
        psi = effective_evolution(n_left, n_right, math.pi / 8).psi
        plus = np.outer(
            spin_coherent(INV_SQRT2, INV_SQRT2, n_left).amplitudes,
            spin_coherent(INV_SQRT2, INV_SQRT2, n_right).amplitudes,
        )
        minus = np.outer(
            spin_coherent(-INV_SQRT2, INV_SQRT2, n_left).amplitudes,
            spin_coherent(-INV_SQRT2, INV_SQRT2, n_right).amplitudes,
        )
        rel = -1j * (-1.0) ** (n // 2)
        cat = (plus + rel * minus) / math.sqrt(2.0)
        overlap = np.vdot(cat, psi)
        assert abs(abs(overlap) - 1.0) < 1e-12  # equal up to a global phase


def test_effective_evolution_exchange_transpose():
    a = effective_evolution(3, 7, 0.41).psi
    b = effective_evolution(7, 3, 0.41).psi
    assert np.array_equal(a, b.T)


def test_phase_periodicity():
    # phases e^{i m^2 t}: m^2 steps by multiples of 4 at fixed parity, so a
    # quarter revolution t -> t + pi/2 is the identity for even N and a
    # global factor i for odd N
    for n in range(1, 11):
        n_left = n // 2
        t = 0.23
        a = effective_evolution(n_left, n - n_left, t).psi
        b = effective_evolution(n_left, n - n_left, t + math.pi / 2).psi
        if n % 2 == 0:
            assert np.allclose(a, b, atol=1e-12)
        else:
            assert np.allclose(1j * a, b, atol=1e-12)


def test_unitarity_chain():
    state = one_axis_twist(spin_coherent(INV_SQRT2, INV_SQRT2, 20), 0.77)
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12
    assert abs(_sector_masses(split(state)).sum() - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# the post-measurement mixture


def test_mixture_untruncated():
    mix = mixed_split_state(10, 0.3, window=0.0)
    assert len(mix.blocks) == 11
    assert abs(mix.retained_mass - 1.0) < 1e-12
    for weight, block in mix.blocks:
        assert abs(weight - math.comb(10, block.n_left) / 1024) < 1e-14


def test_mixture_truncation_window():
    mix = mixed_split_state(500, 1e-4, window=1e-12)
    assert mix.retained_mass >= 1.0 - 1e-12
    # central O(sqrt(N)) sectors are enough at N=500
    assert 100 <= len(mix.blocks) <= 260
    lefts = [b.n_left for _, b in mix.blocks]
    assert lefts == sorted(lefts)
    assert lefts[0] + lefts[-1] == 500  # centered window


def test_mixture_mirror_sectors_are_transposed_views():
    mix = mixed_split_state(8, 0.19, window=0.0)
    by_left = {b.n_left: b for _, b in mix.blocks}
    for l in range(4):
        lo, hi = by_left[l], by_left[8 - l]
        assert np.array_equal(hi.psi, lo.psi.T)
        assert np.shares_memory(hi.psi, lo.psi)


def test_mixture_input_validation():
    with pytest.raises(ValueError):
        mixed_split_state(-1, 0.1)
    with pytest.raises(ValueError):
        mixed_split_state(4, 0.1, window=-1e-3)


def test_mixed_state_type_guards():
    good = effective_evolution(1, 1, 0.1)
    with pytest.raises(ValueError):
        SplitMixedState(2, [(0.0, good)])
    with pytest.raises(ValueError):
        SplitMixedState(3, [(0.5, good)])  # particle numbers do not sum
    with pytest.raises(ValueError):
        SplitMixedState(2, [(0.5, good), (0.25, good)])  # duplicate sector
    with pytest.raises(ValueError):
        SplitMixedState(2, [(0.9, good), (0.9, effective_evolution(2, 0, 0.1))])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(0, 60), t=st.floats(0.0, math.pi / 4))
def test_sector_masses_sum_to_one(n, t):
    full = split(one_axis_twist(spin_coherent(INV_SQRT2, INV_SQRT2, n), t))
    masses = _sector_masses(full)
    assert abs(float(np.sum(masses)) - 1.0) < 1e-12
    weights = [w for w, _ in mixed_split_state(n, t, window=0.0).blocks]
    assert np.allclose(masses, weights, rtol=1e-10, atol=0.0)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(0, 60), t=st.floats(0.0, math.pi / 4))
def test_high_blocks_are_mirror_transposes(n, t):
    # log_negativity_mixed and log_negativity_bracket decompose one block
    # per mirror pair only because this holds elementwise
    blocks = {b.n_left: b for _, b in mixed_split_state(n, t, window=0.0).blocks}
    assert sorted(blocks) == list(range(n + 1))
    for l, block in blocks.items():
        if l > n - l:
            assert np.array_equal(block.psi, blocks[n - l].psi.T)


@pytest.mark.parametrize("n", [1, 2, 7, 40, 500])
@pytest.mark.parametrize("t", [0.0, 0.0037, 0.3, 1.1])
def test_effective_evolution_hankel_phases_bit_identical(n, t):
    # the sliding-window phase view gathers exactly phase[k_l + k_r]
    lefts = range(n + 1) if n < 500 else (0, 1, 137, 250, 499, 500)
    phase = np.exp(1j * t * (2.0 * np.arange(n + 1) - n) ** 2)
    for n_left in lefts:
        n_right = n - n_left
        mag = np.outer(
            statekit._coherent_half_weights(n_left), statekit._coherent_half_weights(n_right)
        )
        want = mag * phase[np.add.outer(np.arange(n_left + 1), np.arange(n_right + 1))]
        assert np.array_equal(effective_evolution(n_left, n_right, t).psi, want)


def test_mixture_records_sectors_without_blocks(monkeypatch):
    def refuse(*args):
        raise AssertionError("a sector block was built")

    monkeypatch.setattr(statekit, "effective_evolution", refuse)
    mix = mixed_split_state(500, 0.0037)
    assert mix.t == 0.0037
    assert len(mix.sectors) == 155
    assert [l for _, l in mix.sectors] == sorted(l for _, l in mix.sectors)
    assert 1.0 - 1e-12 <= mix.retained_mass <= 1.0 + 1e-9
    # a hand-built mixture records no time and its own sectors
    good = SplitMixedState(2, [(0.5, ConditionalState(1, 1, np.full((2, 2), 0.5 + 0j)))])
    assert good.t is None and good.sectors == [(0.5, 1)]


def test_recorded_mixture_validates_sectors():
    with pytest.raises(ValueError):
        SplitMixedState._twisted(4, 0.1, [(0.0, 1)])
    with pytest.raises(ValueError):
        SplitMixedState._twisted(4, 0.1, [(0.5, 1), (0.25, 1)])  # duplicate sector
    with pytest.raises(ValueError):
        SplitMixedState._twisted(4, 0.1, [(0.6, 1), (0.6, 3)])  # weights exceed 1
    with pytest.raises(ValueError):
        SplitMixedState._twisted(4, 0.1, [(0.5, 5)])  # no such sector


@pytest.mark.parametrize("n", [1350, 2000, 10000])
@pytest.mark.parametrize("window", [1e-12, 0.0])
def test_mixture_window_stops_before_underflowed_weights(n, window):
    # from n = 1350 the float weights sum short of 1 by more than the
    # default window, and from n = 1075 the outermost underflow to 0.0;
    # the window stops at the first of those instead of raising
    mix = mixed_split_state(n, 0.01, window=window)
    lefts = [l for _, l in mix.sectors]
    assert all(w > 0.0 for w, _ in mix.sectors)
    assert lefts == list(range(lefts[0], lefts[-1] + 1))
    assert lefts[0] + lefts[-1] == n
    assert lefts[0] > 0
    assert 1.0 - 1e-9 <= mix.retained_mass <= 1.0 + 1e-9


def test_mixture_keeps_every_sector_while_no_weight_underflows():
    assert len(mixed_split_state(1074, 0.3, window=0.0).sectors) == 1075
    assert len(mixed_split_state(1075, 0.3, window=0.0).sectors) < 1076


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_mixture_rejects_non_finite_time(t):
    with pytest.raises(ValueError):
        mixed_split_state(6, t)


def test_twisted_split_records_n_and_t_and_builds_its_source_lazily(monkeypatch):
    def refuse(*args):
        raise AssertionError("the source amplitudes were built")

    monkeypatch.setattr(statekit, "spin_coherent", refuse)
    full = twisted_split(100000, 0.0037)
    assert (full.n_total, full.t) == (100000, 0.0037)
    monkeypatch.undo()
    # a consumer that asks for the amplitudes gets split(one_axis_twist(...))
    n, t = 9, 0.41
    full = twisted_split(n, t)
    want = split(one_axis_twist(spin_coherent(INV_SQRT2, INV_SQRT2, n), t))
    assert np.array_equal(full.source.amplitudes, want.source.amplitudes)
    assert full.source is full.source
    for n_left in range(n + 1):
        assert np.array_equal(full.sector(n_left), want.sector(n_left))
    prob, cond = project_left_number(full, 4)
    assert abs(prob - math.comb(n, 4) / 2**n) < 1e-14
    assert np.abs(cond.psi - effective_evolution(4, 5, t).psi).max() < 1e-12
    # split() records its source and no time
    assert want.t is None


@pytest.mark.parametrize("n, t", [(-1, 0.1), (4, math.nan), (4, math.inf)])
def test_twisted_split_rejects_bad_input(n, t):
    with pytest.raises(ValueError):
        twisted_split(n, t)


def test_per_n_caches_are_bounded():
    # one N = 500 mixture's distinct well populations fit the caches
    mixture = mixed_split_state(500, 0.01)
    wells = {l for _, l in mixture.sectors} | {500 - l for _, l in mixture.sectors}
    assert 150 <= len(wells) <= statekit._PER_N_CACHE
    # more distinct n than the bound leave at most the bound cached
    caches = (statekit._coherent_half_weights, statekit._imbalance_sq, observables._ladder)
    for cache in caches:
        for n in range(statekit._PER_N_CACHE + 64):
            cache(n)
        info = cache.cache_info()
        assert info.maxsize == statekit._PER_N_CACHE
        assert info.currsize <= info.maxsize
