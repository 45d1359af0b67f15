import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqsplit.entangle import (
    _TRIM_BUDGET,
    SchmidtSpectrum,
    _block_trace_norms,
    _nuclear_norm_bounds,
    log_negativity_bracket,
    log_negativity_dense,
    log_negativity_mixed,
    log_negativity_pure,
    schmidt,
)
from sqsplit.statekit import (
    ConditionalState,
    SplitMixedState,
    effective_evolution,
    mixed_split_state,
    one_axis_twist,
    spin_coherent,
    split,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def test_schmidt_spectrum_guards():
    with pytest.raises(ValueError):
        SchmidtSpectrum(np.array([0.5, -0.1]))
    with pytest.raises(ValueError):
        SchmidtSpectrum(np.array([0.3, 0.9]))  # not sorted
    with pytest.raises(ValueError):
        SchmidtSpectrum(np.array([0.9, 0.3]))  # squares sum to 0.9


def test_schmidt_product_state():
    lam = schmidt(effective_evolution(4, 6, 0.0)).coefficients
    assert abs(lam[0] - 1.0) < 1e-12
    assert np.all(lam[1:] < 1e-12)
    assert lam.size <= 5


def test_schmidt_normalization_random_times():
    for t in (0.07, 0.4, 1.3):
        lam = schmidt(effective_evolution(5, 7, t)).coefficients
        assert abs(np.sum(lam**2) - 1.0) < 1e-10
        assert np.all(np.diff(lam) <= 1e-12)


def test_maximally_entangled_spectrum():
    psi = np.zeros((6, 6), dtype=complex)
    np.fill_diagonal(psi, 1.0 / math.sqrt(6.0))
    state = ConditionalState(5, 5, psi)
    lam = schmidt(state).coefficients
    assert np.allclose(lam, 1.0 / math.sqrt(6.0), atol=1e-13)
    assert abs(log_negativity_pure(state) - math.log2(6)) < 1e-12


def test_log_negativity_zero_at_product_times():
    # the twisting phases factor into single-well flips at every multiple
    # of pi/4, so entanglement vanishes exactly there
    for t in (0.0, math.pi / 4, math.pi / 2):
        for n_left, n_right in ((3, 7), (5, 5), (4, 5)):
            assert abs(log_negativity_pure(effective_evolution(n_left, n_right, t))) < 1e-10
        assert abs(log_negativity_mixed(mixed_split_state(10, t, window=0.0))) < 1e-10


def test_log_negativity_nonnegative_and_bounded():
    ts = np.linspace(0.0, math.pi / 4, 23)
    for t in ts:
        e = log_negativity_pure(effective_evolution(4, 8, float(t)))
        assert -1e-12 <= e <= math.log2(5) + 1e-12
        em = log_negativity_mixed(mixed_split_state(8, float(t), window=0.0))
        assert -1e-12 <= em <= math.log2(5) + 1e-12


def test_log_negativity_exchange_symmetry():
    for t in (0.11, 0.5):
        a = log_negativity_pure(effective_evolution(3, 9, t))
        b = log_negativity_pure(effective_evolution(9, 3, t))
        assert abs(a - b) < 1e-12


def test_log_negativity_local_unitary_invariance():
    # e^{i s (S_L^z)^2} acts on the left well only and cannot change E
    state = effective_evolution(5, 6, 0.23)
    base = log_negativity_pure(state)
    for s in (0.4, 1.9):
        phases = np.exp(1j * s * (2.0 * np.arange(6) - 5) ** 2)
        rotated = ConditionalState(5, 6, phases[:, None] * state.psi)
        assert abs(log_negativity_pure(rotated) - base) < 1e-12


def test_pure_against_dense_partial_transpose():
    cases = [(2, 3, 0.3), (4, 4, 0.2), (3, 5, math.pi / 8), (1, 7, 1.0)]
    for n_left, n_right, t in cases:
        state = effective_evolution(n_left, n_right, t)
        fast = log_negativity_pure(state)
        slow = log_negativity_dense(state)
        assert abs(fast - slow) < 1e-9, (n_left, n_right, t)


def test_mixed_against_dense_partial_transpose():
    for t in (0.1, 0.3, math.pi / 8):
        mix = mixed_split_state(6, t, window=0.0)
        fast = log_negativity_mixed(mix)
        slow = log_negativity_dense(mix)
        assert abs(fast - slow) < 1e-9, t


def test_dense_handles_coherent_superposition_of_sectors():
    # the unprojected split state is pure; its trace norm is the
    # weighted union of the sector Schmidt spectra
    t = 0.3
    full = split(one_axis_twist(spin_coherent(INV_SQRT2, INV_SQRT2, 6), t))
    dense = log_negativity_dense(full)
    union = 0.0
    for l in range(7):
        a = full.sector(l)
        p = float(np.vdot(a, a).real)
        lam = np.linalg.svd(a / math.sqrt(p), compute_uv=False)
        union += math.sqrt(p) * float(np.sum(lam))
    assert abs(dense - 2.0 * math.log2(union)) < 1e-9
    # conditioning destroys the cross-sector coherence, so the mixture
    # can only be less entangled
    assert dense >= log_negativity_mixed(mixed_split_state(6, t, window=0.0)) - 1e-12


def test_dense_refuses_large_systems():
    with pytest.raises(ValueError):
        log_negativity_dense(effective_evolution(5, 5, 0.1))
    with pytest.raises(TypeError):
        log_negativity_dense(np.eye(3))
    # the cap is adjustable
    with pytest.raises(ValueError):
        log_negativity_dense(effective_evolution(2, 2, 0.1), max_n=3)


def test_bracket_bounds_truncated_mixture():
    exact = log_negativity_mixed(mixed_split_state(12, 0.3, window=0.0))
    trimmed = mixed_split_state(12, 0.3, window=1e-3)
    assert trimmed.retained_mass < 1.0
    low, high = log_negativity_bracket(trimmed)
    assert low <= exact <= high
    assert high - low < 0.1
    # an untruncated mixture brackets to the exact value on both sides
    low0, high0 = log_negativity_bracket(mixed_split_state(12, 0.3, window=0.0))
    assert abs(low0 - exact) < 1e-12
    assert abs(high0 - exact) < 1e-12


def test_mixed_rejects_truncated_input():
    trimmed = mixed_split_state(12, 0.3, window=1e-3)
    with pytest.raises(ValueError):
        log_negativity_mixed(trimmed)


def test_entanglement_curves_over_one_period():
    """Orderings of the N=10 sweep curves on a 200-point grid.

    The equal-split conditional dominates every other conditional and the
    mixture; the mixture tracks the N_L=3 curve from above except for
    dips of at most 0.01 at the exact revival times t = pi/16, pi/8.
    """
    ts = np.linspace(0.0, math.pi / 4, 200, endpoint=False)
    e_cond = {
        l: np.array([log_negativity_pure(effective_evolution(l, 10 - l, float(t))) for t in ts])
        for l in range(1, 6)
    }
    e_mix = np.array(
        [log_negativity_mixed(mixed_split_state(10, float(t), window=0.0)) for t in ts]
    )
    for l in range(1, 5):
        assert np.all(e_cond[5] >= e_cond[l] - 1e-9)
    assert np.all(e_mix <= e_cond[5] + 1e-9)
    assert np.all(e_mix >= e_cond[3] - 0.01)
    assert np.mean(e_mix > e_cond[3]) > 0.95
    assert e_cond[5].max() <= math.log2(6) + 1e-12


def _nuclear_norm(psi):
    return float(np.sum(np.linalg.svd(psi, compute_uv=False)))


def test_trimmed_nuclear_norm_bounds_random_matrices():
    # rows and columns scaled towards zero get trimmed; the kept
    # submatrix bounds the nuclear norm from below and the slack
    # sqrt(r d) closes the gap from above
    rng = np.random.default_rng(2002)
    trimmed = 0
    for _ in range(300):
        m, n = (int(x) for x in rng.integers(1, 30, size=2))
        psi = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
        rows = rng.random(m) < 0.3
        cols = rng.random(n) < 0.3
        psi[rows] *= 10.0 ** rng.uniform(-18.0, -1.0, size=(int(rows.sum()), 1))
        psi[:, cols] *= 10.0 ** rng.uniform(-18.0, -1.0, size=int(cols.sum()))
        budget = 10.0 ** rng.uniform(-32.0, -1.0)
        full = _nuclear_norm(psi)
        s, slack = _nuclear_norm_bounds(psi, budget)
        assert s <= full * (1.0 + 1e-12)
        assert full <= (s + slack) * (1.0 + 1e-12)
        assert slack <= math.sqrt(min(m, n) * budget)
        trimmed += slack > 0.0
    assert trimmed > 100
    # the slack is tight when each dropped row holds one singular value
    eps = 1e-3
    psi = np.diag([1.0, eps, eps, eps]).astype(complex)
    s, slack = _nuclear_norm_bounds(psi, 3.5 * eps**2)
    assert s == 1.0
    assert abs(slack - 3.0 * eps) < 1e-15
    assert abs(_nuclear_norm(psi) - (s + slack)) < 1e-15
    # no budget, no trim: the plain singular-value sum
    psi = rng.normal(size=(5, 7)) + 1j * rng.normal(size=(5, 7))
    assert _nuclear_norm_bounds(psi, 0.0) == (_nuclear_norm(psi), 0.0)


@pytest.mark.parametrize("n", [120, 200])
@pytest.mark.parametrize("t", [0.0, 4e-3, 0.02, 0.3])
def test_bracket_contains_untruncated_negativity(n, t):
    exact = log_negativity_mixed(mixed_split_state(n, t, window=0.0))
    low, high = log_negativity_bracket(mixed_split_state(n, t))
    assert low <= exact <= high


def test_mirror_reuse_needs_transposed_amplitudes():
    # high blocks twisted for another time have the mirror's shape but
    # not its amplitudes, so each needs its own decomposition
    n, t_low, t_high = 9, 0.13, 0.31
    blocks = [
        (w, b if b.n_left <= b.n_right else effective_evolution(b.n_left, b.n_right, t_high))
        for w, b in mixed_split_state(n, t_low, window=0.0).blocks
    ]
    mixture = SplitMixedState(n, blocks)
    per_block = sum(w * _nuclear_norm(b.psi) ** 2 for w, b in blocks)
    got = log_negativity_mixed(mixture)
    assert abs(got - math.log2(per_block)) < 1e-12
    assert abs(got - log_negativity_mixed(mixed_split_state(n, t_low, window=0.0))) > 1e-3
    for (w, b), (w_got, s, slack) in zip(blocks, _block_trace_norms(mixture)):
        assert w_got == w and slack == 0.0
        assert abs(s - _nuclear_norm(b.psi)) < 1e-12


def test_bracket_n500_one_svd_per_mirror_pair(monkeypatch):
    calls = []
    real_svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(args[0].shape)
        return real_svd(*args, **kwargs)

    mixture = mixed_split_state(500, 0.0)
    assert len(mixture.blocks) == 155
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    low, high = log_negativity_bracket(mixture)
    assert len(calls) <= 78
    # the trim shrinks the decompositions and keeps the bracket narrow
    assert max(max(shape) for shape in calls) < 251
    assert 0.0 <= high - low <= 1e-9
    assert abs(low) < 1e-10


def test_trimmed_block_bounds_n200():
    mixture = mixed_split_state(200, 0.02)
    exact = _block_trace_norms(mixture)
    trimmed = _block_trace_norms(mixture, _TRIM_BUDGET)
    assert all(slack == 0.0 for _, _, slack in exact)
    assert any(slack > 0.0 for _, _, slack in trimmed)
    for (w, s, _), (w_t, s_t, slack) in zip(exact, trimmed):
        assert w_t == w
        assert s_t <= s * (1.0 + 1e-13)
        assert s <= (s_t + slack) * (1.0 + 1e-13)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(0, 60), t=st.floats(0.0, math.pi / 4))
def test_schmidt_spectra_normalized(n, t):
    for _, block in mixed_split_state(n, t, window=0.0).blocks:
        lam = schmidt(block).coefficients
        assert abs(float(np.sum(lam * lam)) - 1.0) < 1e-12
