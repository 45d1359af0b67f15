import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqsplit import entangle, statekit
from sqsplit._oracles import (
    Sector,
    block_trace_norms,
    log_negativity_dense,
    log_negativity_svd,
    schmidt_svd,
    split_sector,
)
from sqsplit.entangle import (
    _TRIM_BUDGET,
    _TRIM_CAP,
    SchmidtSpectrum,
    _absent_sectors,
    _block_trace_norms,
    _entangler_bounds,
    _leading_axis,
    _trim_budgets,
    log_negativity_bracket,
    log_negativity_mixed,
    log_negativity_pure,
    schmidt,
)
from sqsplit.specfun import log_binomial
from sqsplit.statekit import (
    _coherent_half_weights,
    effective_evolution,
    mixed_split_state,
    one_axis_twist,
    spin_coherent,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def test_schmidt_spectrum_guards():
    with pytest.raises(ValueError):
        SchmidtSpectrum(np.array([0.5, -0.1]))
    with pytest.raises(ValueError):
        SchmidtSpectrum(np.array([0.3, 0.9]))  # not sorted
    with pytest.raises(ValueError):
        SchmidtSpectrum(np.array([0.9, 0.3]))  # squares sum to 0.9


def test_schmidt_spectrum_accepts_what_the_state_accepted():
    # one norm tolerance: a state Sector accepts has a Schmidt spectrum
    # SchmidtSpectrum accepts (it checked 1e-10 against 1e-9)
    base = effective_evolution(3, 4, 0.1)
    state = Sector(3, 4, base.psi * math.sqrt(1.0 + 5e-10))
    assert statekit._NORM_TOL == 1e-9
    got = log_negativity_svd(state)
    assert abs(got - log_negativity_pure(base)) <= 1e-9
    with pytest.raises(ValueError):
        Sector(3, 4, base.psi * math.sqrt(1.0 + 2e-9))


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
    state = Sector(5, 5, psi)
    lam = schmidt_svd(state).coefficients
    assert np.allclose(lam, 1.0 / math.sqrt(6.0), atol=1e-13)
    assert abs(log_negativity_svd(state) - math.log2(6)) < 1e-12


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
        rotated = Sector(5, 6, phases[:, None] * state.psi)
        assert abs(log_negativity_svd(rotated) - base) < 1e-12


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
    source = one_axis_twist(spin_coherent(INV_SQRT2, INV_SQRT2, 6), t)
    dense = log_negativity_dense(source)
    union = 0.0
    for l in range(7):
        a = split_sector(source, l)
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


@pytest.mark.parametrize("n", [120, 200])
@pytest.mark.parametrize("t", [0.0, 4e-3, 0.02, 0.3])
def test_bracket_contains_untruncated_negativity(n, t):
    exact = log_negativity_mixed(mixed_split_state(n, t, window=0.0))
    low, high = log_negativity_bracket(mixed_split_state(n, t))
    assert low <= exact <= high


@pytest.mark.parametrize("n", [300, 500])
def test_bracket_contains_product_negativity_at_zero_time(n):
    # at t = 0 every sector is a product and the trim drops nothing that
    # matters, so only the roundoff margin decides whether the exact
    # value lies inside the bracket
    exact = log_negativity_mixed(mixed_split_state(n, 0.0, window=0.0))
    for mixture in (mixed_split_state(n, 0.0), mixed_split_state(n, 0.0, window=0.0)):
        low, high = log_negativity_bracket(mixture)
        assert low <= exact <= high
        assert high - low <= 1e-9


def test_mirror_reuse_needs_transposed_amplitudes():
    # high blocks twisted for another time have the mirror's shape but
    # not its amplitudes, so each needs its own decomposition: only the
    # whole-block oracle takes such blocks, and it reuses nothing
    n, t_low, t_high = 9, 0.13, 0.31
    blocks = [
        (w, b if b.n_left <= b.n_right else effective_evolution(b.n_left, b.n_right, t_high))
        for w, b in mixed_split_state(n, t_low, window=0.0).blocks
    ]
    terms = block_trace_norms(blocks)
    per_block = sum(w * _nuclear_norm(b.psi) ** 2 for w, b in blocks)
    got = math.log2(sum(w * s**2 for w, s, _ in terms))
    assert abs(got - math.log2(per_block)) < 1e-12
    assert abs(got - log_negativity_mixed(mixed_split_state(n, t_low, window=0.0))) > 1e-3
    for (w, b), (w_got, s, slack) in zip(blocks, terms):
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


def _psi_exact_phases(n_left, n_right, t):
    """effective_evolution(n_left, n_right, t).psi with each phase
    t m^2 evaluated from an exact split t = t_hi + t_lo (Veltkamp, t_hi
    of 26 bits), so t_hi m^2 and t_lo m^2 carry no rounding for m^2 <
    2^26.  effective_evolution rounds t m^2 once; at t = pi/4 and
    N_L = N_R = 250 that alone moves the nuclear norm by 1.7e-13."""
    m = 2.0 * np.add.outer(np.arange(n_left + 1), np.arange(n_right + 1)) - (n_left + n_right)
    m2 = m * m
    c = 134217729.0 * t
    t_hi = c - (c - t)
    t_lo = t - t_hi
    mag = np.abs(effective_evolution(n_left, n_right, t).psi)
    return mag * (np.exp(1j * t_hi * m2) * np.exp(1j * t_lo * m2))


@pytest.mark.parametrize(
    "n_left, n_right",
    [(0, 0), (0, 5), (1, 1), (2, 3), (7, 8), (33, 40), (120, 130), (249, 251), (250, 250)],
)
@pytest.mark.parametrize("t", [0.0, 1e-4, 0.0037, 0.3, 1.1, math.pi / 4])
def test_entangler_parts_match_complex_svd(n_left, n_right, t):
    # local squeezing plus entangler: the real C and S carry the
    # singular values of the complex amplitude matrix
    full = _nuclear_norm(_psi_exact_phases(n_left, n_right, t))
    for a, b in ((n_left, n_right), (n_right, n_left)):
        s, slack = _entangler_bounds(a, b, t, 0.0)
        assert slack == 0.0
        assert abs(s - full) <= 1e-13 * full
        # a coarse budget trims C and S visibly; both slacks must cover it
        for budget in (_TRIM_BUDGET, 1e-4):
            s, slack = _entangler_bounds(a, b, t, budget)
            assert s <= full * (1.0 + 1e-13)
            assert full <= (s + slack) * (1.0 + 1e-13)


def test_entangler_parts_check_the_norm():
    # the norm check a hand-built Sector makes of its amplitudes, made
    # here of the C/S parts
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="not normalized"):
        _entangler_bounds(5, 7, math.inf, 0.0)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(0, 60),
    t=st.floats(0.0, math.pi / 4),
    window=st.sampled_from([0.0, 1e-12, 1e-6]),
)
def test_recorded_time_norms_match_block_svds(n, t, window):
    mixture = mixed_split_state(n, t, window=window)
    terms = _block_trace_norms(mixture)
    assert len(terms) == len(mixture.sectors)
    for (w, block), (w_got, s, slack) in zip(mixture.blocks, terms):
        assert w_got == w and slack == 0.0
        assert abs(s - _nuclear_norm(block.psi)) <= 1e-12 * s


def test_negativity_never_builds_a_block(monkeypatch):
    def refuse(*args):
        raise AssertionError("a sector block was built")

    # a block is a record; building it means building its amplitudes
    monkeypatch.setattr(statekit.ConditionalState, "psi", property(refuse))
    low, high = log_negativity_bracket(mixed_split_state(500, 0.0037))
    assert 0.0 < high - low <= 1e-9
    assert log_negativity_mixed(mixed_split_state(60, 0.3, window=0.0)) > 1.0
    # the patch bites as soon as something asks for a block's amplitudes
    with pytest.raises(AssertionError):
        mixed_split_state(4, 0.1).blocks[0][1].psi


def test_recorded_time_svds_are_real(monkeypatch):
    dtypes = []
    real_svd = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        dtypes.append(np.asarray(a).dtype)
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    log_negativity_bracket(mixed_split_state(200, 0.02))
    log_negativity_mixed(mixed_split_state(41, 0.3, window=0.0))
    assert len(dtypes) == 51 + 21
    assert all(dtype == np.float64 for dtype in dtypes)


def test_dense_sector_route_n12():
    for t in (0.05, 0.3):
        mixture = mixed_split_state(12, t, window=0.0)
        dense = log_negativity_dense(mixture, max_n=12)
        assert abs(dense - log_negativity_mixed(mixture)) < 1e-9, t
        state = effective_evolution(5, 7, t)
        dense = log_negativity_dense(state, max_n=12)
        assert abs(dense - log_negativity_pure(state)) < 1e-9, t


def test_mixed_negativity_counts_dropped_sectors_as_product():
    # at t = 0 every sector is a product state, so counting the dropped
    # ones as products gives the untruncated value
    mixture = mixed_split_state(100, 0.0)
    assert 1.0 - mixture.retained_mass > 1e-13
    exact = log_negativity_mixed(mixed_split_state(100, 0.0, window=0.0))
    assert abs(log_negativity_mixed(mixture) - exact) < 1e-15


def _entangler_factors(n):
    """(u, w_u a_u) over u = 2k - n >= 0, w = 1 at u = 0, sqrt(2) elsewhere."""
    u = np.arange(n % 2, n + 1, 2)
    a = _coherent_half_weights(n)[(n + 1) // 2 :]
    return u, np.where(u > 0, math.sqrt(2.0), 1.0) * a


def _entangler_parts_per_entry(n_left, n_right, t):
    """C and S stacked, each entry's cos and sin evaluated on its own
    from float(u v) (2t), the construction the phase table replaces."""
    u, wa = _entangler_factors(n_left)
    v, wb = _entangler_factors(n_right)
    x = np.multiply.outer(u, v).astype(float) * (2.0 * t)
    parts = np.stack((np.cos(x), np.sin(x)))
    parts *= wa[:, None]
    parts *= wb
    return parts


def _svd_inputs(monkeypatch):
    """Copies of every matrix stack np.linalg.svd is called on."""
    seen = []
    real_svd = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        seen.append(np.array(a))
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    return seen


@pytest.mark.parametrize(
    "n_left, n_right", [(0, 0), (1, 1), (7, 8), (249, 251), (250, 250), (400, 400)]
)
@pytest.mark.parametrize("t", [0.0, 1e-4, 0.0037, 0.3, 1.1, math.pi / 4])
def test_phase_table_gathers_the_per_entry_parts(monkeypatch, n_left, n_right, t):
    direct = _entangler_parts_per_entry(n_left, n_right, t)
    seen = _svd_inputs(monkeypatch)
    s, slack = _entangler_bounds(n_left, n_right, t, 0.0)
    assert len(seen) == 1
    assert np.array_equal(seen[0], direct)
    assert slack == 0.0
    assert s == float(np.sum(np.linalg.svd(direct, compute_uv=False)))


@pytest.mark.parametrize("t", [0.0, 0.0037, 0.3, 1.1])
def test_entangler_row_and_column_norms_are_the_weights(monkeypatch, t):
    # the identity the t-free trim rests on: cos^2 + sin^2 = 1 leaves
    # row u with w_u^2 a_u^2 times the column mass sum_v w_v^2 b_v^2,
    # and column v likewise; the masses are 1 up to the drift of the
    # binomial weights (1.5e-13 at n = 131), so they are kept here
    seen = _svd_inputs(monkeypatch)
    for n_left, n_right in ((7, 8), (120, 131), (250, 250)):
        _entangler_bounds(n_left, n_right, t, 0.0)
        sq = seen.pop() ** 2
        wa2 = _entangler_factors(n_left)[1] ** 2
        wb2 = _entangler_factors(n_right)[1] ** 2
        assert abs(wa2.sum() - 1.0) <= 1e-9 and abs(wb2.sum() - 1.0) <= 1e-9
        assert np.abs(sq.sum(axis=(0, 2)) - wa2 * wb2.sum()).max() <= 1e-15
        assert np.abs(sq.sum(axis=(0, 1)) - wb2 * wa2.sum()).max() <= 1e-15


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    n_left=st.integers(0, 300),
    n_right=st.integers(0, 300),
    t=st.floats(0.0, math.pi / 4),
    budget=st.sampled_from([1e-30, 1e-12, 1e-4]),
)
def test_leading_trim_certifies_the_untrimmed_norm(n_left, n_right, t, budget):
    full, _ = _entangler_bounds(n_left, n_right, t, 0.0)
    s, slack = _entangler_bounds(n_left, n_right, t, budget)
    assert s <= full * (1.0 + 1e-13)
    assert full <= (s + slack) * (1.0 + 1e-13)


def test_one_phase_table_per_mixture_sized_to_the_kept_block(monkeypatch):
    tops = []
    real_table = entangle._phase_table

    def recording_table(top, t):
        tops.append(top)
        return real_table(top, t)

    monkeypatch.setattr(entangle, "_phase_table", recording_table)
    log_negativity_bracket(mixed_split_state(500, 0.0037))
    assert len(tops) == 1
    assert tops[0] < 180 * 180  # 175^2 kept of the untrimmed 250^2
    log_negativity_mixed(mixed_split_state(500, 0.0037, window=0.0))
    assert tops[1:] == [250 * 250]


@pytest.mark.parametrize(
    "n, window", [(0, 0.0), (9, 1e-2), (100, 1e-12), (500, 1e-12), (800, 1e-6)]
)
def test_absent_sectors_match_the_scalar_loop(n, window):
    mixture = mixed_split_state(n, 0.01, window=window)
    present = {l for _, l in mixture.sectors}
    expected = [
        (math.exp(log_binomial(n, l) - n * math.log(2.0)), l)
        for l in range(n + 1)
        if l not in present
    ]
    assert (len(expected) > 0) == (window > 0.0)
    assert _absent_sectors(mixture) == expected


def _uniform_trim_norms(mixture, budget=0.0):
    """_block_trace_norms under the uniform rule: every mirror pair of a
    recorded-t mixture trimmed to _TRIM_BUDGET, whatever its weight."""
    n = mixture.n_total
    done = {}
    for _, n_left in mixture.sectors:
        low = min(n_left, n - n_left)
        if low not in done:
            done[low] = _entangler_bounds(low, n - low, mixture.t, _TRIM_BUDGET)
    return [(w, *done[min(l, n - l)]) for w, l in mixture.sectors]


def _uniform_bracket(monkeypatch, mixture):
    with monkeypatch.context() as patch:
        patch.setattr(entangle, "_block_trace_norms", _uniform_trim_norms)
        return log_negativity_bracket(mixture)


@pytest.mark.parametrize("n", [120, 200, 500, 800])
@pytest.mark.parametrize("t", [0.0, 4e-3, 0.02, 0.3])
def test_weighted_trim_keeps_the_uniform_bracket(monkeypatch, untruncated_log_negativity, n, t):
    # each pair's weighted slack w sqrt(d) stays at the heaviest pair's,
    # so the bracket barely widens and still holds the exact value
    exact = untruncated_log_negativity(n, t)
    for window in (1e-12, 0.0):
        mixture = mixed_split_state(n, t, window=window)
        low, high = log_negativity_bracket(mixture)
        low_u, high_u = _uniform_bracket(monkeypatch, mixture)
        assert low <= exact <= high
        assert high - low <= 1.01 * (high_u - low_u)
        assert abs(low - low_u) <= 1e-14


def test_weighted_trim_shrinks_the_svds(monkeypatch):
    mixture = mixed_split_state(500, 0.0037)
    work = []
    for bracket in (log_negativity_bracket, lambda m: _uniform_bracket(monkeypatch, m)):
        with monkeypatch.context() as patch:
            seen = _svd_inputs(patch)
            bracket(mixture)
        work.append(sum(m * n * min(m, n) for _, m, n in (a.shape for a in seen)))
    assert len(seen) == 78
    assert work[0] <= 0.75 * work[1]


def test_trim_budgets_scale_with_weight():
    weights = [0.5, 0.05, 1e-20, 1e-241, 5e-324]
    # no float ** on the way: (w_max / w)^2 overflows to inf, the cap wins
    assert _trim_budgets(weights, 1e-30) == [
        1e-30, 1e-30 * 10.0 * 10.0, _TRIM_CAP, _TRIM_CAP, _TRIM_CAP
    ]
    assert _trim_budgets(weights, 0.0) == [0.0] * 5
    # a budget above the cap is never cut below itself
    assert _trim_budgets([1.0, 1e-3], 1e-4) == [1e-4, 1e-4]


def test_weighted_trim_certifies_every_block_at_n800():
    # window 0 keeps sectors of weight 1e-241, whose (w_max / w)^2
    # overflows the float range
    mixture = mixed_split_state(800, 0.02, window=0.0)
    assert min(w for w, _ in mixture.sectors) < 1e-240
    exact = _block_trace_norms(mixture)
    trimmed = _block_trace_norms(mixture, _TRIM_BUDGET)
    for (w, s, _), (w_t, s_t, slack) in zip(exact, trimmed):
        assert w_t == w
        assert s_t <= s * (1.0 + 1e-13)
        assert s <= (s_t + slack) * (1.0 + 1e-13)
        assert slack <= math.sqrt(2 * 201 * _TRIM_CAP)
    low, high = log_negativity_bracket(mixture)
    # log_negativity_mixed of a mixture that leaves no sector out
    assert low <= math.log2(sum(w * s**2 for w, s, _ in exact)) <= high


def test_arbitrary_blocks_are_decomposed_whole():
    # the whole-block oracle never trims: each block's s is its exact
    # nuclear norm and its slack is 0, and the certified bracket of the
    # recorded mixture holds the value it gives
    mixture = mixed_split_state(40, 0.3, window=0.0)
    blocks = mixture.blocks
    terms = block_trace_norms(blocks)
    for (w, b), (w_got, s, slack) in zip(blocks, terms):
        assert w_got == w
        assert (s, slack) == (_nuclear_norm(b.psi), 0.0)
    exact = math.log2(sum(w * s**2 for w, s, _ in terms))
    assert abs(exact - log_negativity_mixed(mixture)) < 1e-12
    low, high = log_negativity_bracket(mixture)
    assert low <= exact <= high


@pytest.mark.parametrize("n, t", [(0, 0.1), (41, 0.3), (60, 0.0037), (500, 0.02)])
def test_mixed_negativity_is_the_untrimmed_pair_sum(n, t):
    # budget 0 trims nothing under the weighted rule: the value is, bit
    # for bit, the sum of the untrimmed per-pair decompositions
    mixture = mixed_split_state(n, t, window=0.0)
    norms = {}
    total = 0.0
    for w, l in mixture.sectors:
        low = min(l, n - l)
        if low not in norms:
            s, slack = _entangler_bounds(low, n - low, t, 0.0)
            assert slack == 0.0
            norms[low] = s
        total += w * norms[low] ** 2
    assert log_negativity_mixed(mixture) == math.log2(total)


def test_cached_axis_trims_are_read_only():
    _leading_axis.cache_clear()
    for n, budget in ((250, 5e-31), (251, 1e-9), (7, 0.0)):
        u, wa, _, _ = _leading_axis(n, budget)
        assert _leading_axis(n, budget)[0] is u
        for vector in (u, wa):
            assert not vector.flags.writeable
            with pytest.raises(ValueError):
                vector[0] = 1
    assert _leading_axis.cache_info().maxsize is not None


_SMALL_SECTORS = [(n_left, n - n_left) for n in range(7) for n_left in range(n + 1)]


@pytest.mark.parametrize("t", [0.0, 0.05, 0.3, math.pi / 8])
def test_pure_negativity_and_schmidt_match_the_complex_svd(t):
    # the real C/S route against the complex SVD of the amplitude matrix,
    # at every (N_L, N_R) with N <= 6
    for n_left, n_right in _SMALL_SECTORS:
        state = effective_evolution(n_left, n_right, t)
        assert abs(log_negativity_pure(state) - log_negativity_svd(state)) <= 1e-13
        got, want = schmidt(state).coefficients, schmidt_svd(state).coefficients
        assert got.shape == want.shape == (min(n_left, n_right) + 1,)
        assert np.abs(got - want).max() <= 1e-13, (n_left, n_right)


def test_pure_negativity_builds_no_amplitudes():
    state = effective_evolution(300, 200, 0.01)
    assert log_negativity_pure(state) > 0.0
    assert schmidt(state).coefficients.size == 201
    assert "psi" not in vars(state)
