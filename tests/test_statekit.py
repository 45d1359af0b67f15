import dataclasses
import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqsplit import _oracles, observables, statekit
from sqsplit._oracles import Sector, ZeroProbabilityError, project_left_number, split_sector
from sqsplit.statekit import (
    ConditionalState,
    SplitMixedState,
    StateVector,
    effective_evolution,
    mixed_split_state,
    one_axis_twist,
    spin_coherent,
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
    Sector(2, 1, psi)
    with pytest.raises(ValueError):
        Sector(1, 1, psi)
    with pytest.raises(ValueError):
        Sector(2, 1, 2.0 * psi)


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_twist_rejects_non_finite_time(t):
    # the amplitudes come out NaN; the normalization check must see it
    with np.errstate(invalid="ignore"), pytest.raises(ValueError):
        one_axis_twist(spin_coherent(INV_SQRT2, INV_SQRT2, 6), t)


def test_constructors_reject_nan_amplitudes():
    with pytest.raises(ValueError):
        StateVector(1, np.array([math.nan, 1.0]))
    with pytest.raises(ValueError):
        Sector(1, 1, np.full((2, 2), math.nan, dtype=complex))


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


def _sector_masses(source):
    """Squared norm of every left-atom-number sector of a split state."""
    sectors = (split_sector(source, l) for l in range(source.n_total + 1))
    return np.array([np.vdot(a, a).real for a in sectors])


def test_split_single_atom():
    state = StateVector(1, np.array([0.0, 1.0], dtype=complex))
    masses = _sector_masses(state)
    assert abs(masses[0] - 0.5) < 1e-15
    assert abs(masses[1] - 0.5) < 1e-15


def test_split_total_mass_random_input():
    assert abs(_sector_masses(_random_state(9, seed=8)).sum() - 1.0) < 1e-12


def test_split_matches_symbolic_expansion():
    for n in range(1, 6):
        state = _random_state(n, seed=100 + n)
        for n_left in range(n + 1):
            got = split_sector(state, n_left)
            want = _split_oracle_sector(state, n_left)
            assert np.allclose(got, want, atol=1e-12), (n, n_left)


def test_split_sector_masses_binomial_for_twisted_coherent():
    n = 12
    weights = np.array([math.comb(n, l) / 2**n for l in range(n + 1)])
    for t in (0.0, 0.37, math.pi / 8):
        state = one_axis_twist(spin_coherent(INV_SQRT2, INV_SQRT2, n), t)
        assert np.allclose(_sector_masses(state), weights, atol=1e-13)


def test_split_sector_range_check():
    state = _random_state(3, seed=1)
    with pytest.raises(ValueError):
        split_sector(state, 4)
    with pytest.raises(ValueError):
        split_sector(state, -1)


# ---------------------------------------------------------------------------
# projection


def test_project_probability_and_normalization():
    n = 10
    state = one_axis_twist(spin_coherent(INV_SQRT2, INV_SQRT2, n), 0.3)
    p, cond = project_left_number(state, 5)
    assert abs(p - 252 / 1024) < 1e-13
    assert abs(np.vdot(cond.psi, cond.psi).real - 1.0) < 1e-12
    for n_left in range(n + 1):
        _, c = project_left_number(state, n_left)
        assert abs(np.vdot(c.psi, c.psi).real - 1.0) < 1e-12


def test_project_at_zero_time_is_product_coherent():
    _, cond = project_left_number(spin_coherent(INV_SQRT2, INV_SQRT2, 8), 3)
    left = spin_coherent(INV_SQRT2, INV_SQRT2, 3).amplitudes
    right = spin_coherent(INV_SQRT2, INV_SQRT2, 5).amplitudes
    assert np.allclose(cond.psi, np.outer(left, right), atol=1e-13)


def test_project_zero_probability_sector():
    # a silent all-zero source models an impossible measurement record
    dead = types.SimpleNamespace(n_total=2, amplitudes=np.zeros(3))
    with pytest.raises(ZeroProbabilityError):
        project_left_number(dead, 1)


# ---------------------------------------------------------------------------
# effective evolution (split-then-evolve = evolve-then-split)


def test_effective_evolution_equals_pipeline():
    for n in range(1, 9):
        for t in (0.05, 0.3, 1.0):
            state = one_axis_twist(spin_coherent(INV_SQRT2, INV_SQRT2, n), t)
            for n_left in range(n + 1):
                _, cond = project_left_number(state, n_left)
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
    assert abs(_sector_masses(state).sum() - 1.0) < 1e-12


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


def test_mixture_blocks_are_records_that_build_no_amplitudes():
    # len(mixture.blocks) took 0.16 s and 76 MB at N = 500 while every
    # block built its amplitude matrix; the blocks are now the records
    mix = mixed_split_state(500, 0.01)
    assert len(mix.blocks) == len(mix.sectors) == 155
    for (weight, block), (w, n_left) in zip(mix.blocks, mix.sectors):
        assert weight == w
        assert block == ConditionalState(n_left, 500 - n_left, 0.01)
        assert "psi" not in vars(block)


def test_mixture_input_validation():
    with pytest.raises(ValueError):
        mixed_split_state(-1, 0.1)
    with pytest.raises(ValueError):
        mixed_split_state(4, 0.1, window=-1e-3)
    # a NaN window compared false both ways and kept all 501 sectors of
    # N = 500, where the default keeps 155
    for window in (math.nan, math.inf):
        with pytest.raises(ValueError):
            mixed_split_state(500, 0.01, window=window)


def test_mixed_state_type_guards():
    # a mixture is built only from recorded (n_total, t, sectors), never
    # from a list of hand-built blocks
    good = effective_evolution(1, 1, 0.1)
    with pytest.raises(TypeError):
        SplitMixedState(2, [(0.5, good)])
    with pytest.raises(ValueError):
        SplitMixedState(2, 0.1, [(0.0, 1)])
    with pytest.raises(ValueError):
        SplitMixedState(1, 0.1, [(0.5, 2)])  # sector beyond n_total
    with pytest.raises(ValueError):
        SplitMixedState(2, 0.1, [(0.5, 1), (0.25, 1)])  # duplicate sector
    with pytest.raises(ValueError):
        SplitMixedState(2, 0.1, [(0.9, 1), (0.9, 2)])
    with pytest.raises(ValueError):
        SplitMixedState(2, math.nan, [(0.5, 1)])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(0, 60), t=st.floats(0.0, math.pi / 4))
def test_sector_masses_sum_to_one(n, t):
    masses = _sector_masses(one_axis_twist(spin_coherent(INV_SQRT2, INV_SQRT2, n), t))
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
    # the constructor records its time and sectors and builds nothing
    good = SplitMixedState(2, 0.1, [(0.5, 1)])
    assert good.t == 0.1 and good.sectors == [(0.5, 1)]


def test_recorded_mixture_validates_sectors():
    with pytest.raises(ValueError):
        SplitMixedState(4, 0.1, [(0.0, 1)])
    with pytest.raises(ValueError):
        SplitMixedState(4, 0.1, [(0.5, 1), (0.25, 1)])  # duplicate sector
    with pytest.raises(ValueError):
        SplitMixedState(4, 0.1, [(0.6, 1), (0.6, 3)])  # weights exceed 1
    with pytest.raises(ValueError):
        SplitMixedState(4, 0.1, [(0.5, 5)])  # no such sector


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


def test_twisted_split_records_n_and_t_and_builds_no_source(monkeypatch):
    def refuse(*args):
        raise AssertionError("the source amplitudes were built")

    monkeypatch.setattr(statekit, "spin_coherent", refuse)
    monkeypatch.setattr(statekit, "one_axis_twist", refuse)
    full = twisted_split(100000, 0.0037)
    assert (full.n_total, full.t) == (100000, 0.0037)
    # the closed-form moments are all a consumer reads; the record is
    # (n, t) and nothing else
    assert observables.moments(full).n_total == 100000
    assert dataclasses.astuple(full) == (100000, 0.0037)
    with pytest.raises(dataclasses.FrozenInstanceError):
        full.t = 0.1
    # an integral float n is that integer; the record refuses any other
    assert twisted_split(100000.0, 0.0037) == full
    assert type(twisted_split(100000.0, 0.0037).n_total) is int
    with pytest.raises(ValueError):
        statekit.SplitFullState(10.7, 0.0037)


@pytest.mark.parametrize(
    "n, t",
    [(-1, 0.1), (4, math.nan), (4, math.inf), (10.7, 0.01), (math.nan, 0.1), (math.inf, 0.1)],
)
def test_twisted_split_rejects_bad_input(n, t):
    # 10.7 atoms is refused, not truncated to the n = 10 record
    with pytest.raises(ValueError):
        twisted_split(n, t)


def test_per_n_caches_are_bounded():
    # one N = 500 mixture's distinct well populations fit the caches
    mixture = mixed_split_state(500, 0.01)
    wells = {l for _, l in mixture.sectors} | {500 - l for _, l in mixture.sectors}
    assert 150 <= len(wells) <= statekit._PER_N_CACHE
    # more distinct n than the bound leave at most the bound cached
    caches = (statekit._coherent_half_weights, statekit._imbalance_sq, _oracles._ladder)
    for cache in caches:
        for n in range(statekit._PER_N_CACHE + 64):
            cache(n)
        info = cache.cache_info()
        assert info.maxsize == statekit._PER_N_CACHE
        assert info.currsize <= info.maxsize


def test_conditional_state_is_the_recorded_n_left_n_right_t():
    state = effective_evolution(3, 4, 0.25)
    assert dataclasses.astuple(state) == (3, 4, 0.25)
    assert "psi" not in vars(state)
    with pytest.raises(dataclasses.FrozenInstanceError):
        state.t = 0.1
    # psi is built on first access, the same Hankel view every time
    psi = state.psi
    assert psi is state.psi
    assert psi.shape == (4, 5)
    assert abs(np.vdot(psi, psi).real - 1.0) < 1e-14
    # an integral float population is that integer
    assert effective_evolution(3.0, 4.0, 0.25) == state
    assert type(effective_evolution(3.0, 4.0, 0.25).n_left) is int


@pytest.mark.parametrize(
    "n_left, n_right, t",
    [
        (10.7, 3, 0.1),
        (3, 10.7, 0.1),
        (math.nan, 3, 0.1),
        (3, math.inf, 0.1),
        (-1, 3, 0.1),
        (3, 4, math.nan),
        (3, 4, math.inf),
        (3, 4, -math.inf),
    ],
)
def test_conditional_state_rejects_bad_input(n_left, n_right, t):
    # 10.7 atoms failed only on the amplitude shape, and a NaN time only
    # on the norm, with a RuntimeWarning; the record refuses both at once
    with pytest.raises(ValueError):
        effective_evolution(n_left, n_right, t)
    with pytest.raises(ValueError):
        ConditionalState(n_left, n_right, t)
