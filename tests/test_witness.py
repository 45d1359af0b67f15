import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import optimize

from sqsplit._oracles import Sector, mixture_moments, sector_moments, split_moments
from sqsplit.observables import MomentSet, moments, rotate_moments
from sqsplit.statekit import (
    effective_evolution,
    mixed_split_state,
    one_axis_twist,
    spin_coherent,
    twisted_split,
)
from sqsplit.witness import (
    UndefinedWitnessError,
    WitnessResult,
    covariance_criterion,
    dgcz,
    epr_steering,
    giovannetti,
    hermitian_min_eigenvalue,
    squeezing_angle,
    wineland_xi,
    witness_suite,
)


def _split_moments(n, t):
    """Moments of the number-collapsed mixture by the O(N) split-state
    route, which tests/test_observables.py pins to the sector route."""
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    return split_moments(one_axis_twist(spin_coherent(inv_sqrt2, inv_sqrt2, n), t))


def _random_hermitian(d, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return 0.5 * (m + m.conj().T)


def _cubic_min_eigenvalue(m):
    """Smallest eigenvalue of a 3x3 Hermitian matrix from the
    trigonometric closed form of the characteristic cubic."""
    q = np.trace(m).real / 3.0
    b = m - q * np.eye(3)
    p = math.sqrt(max(np.trace(b @ b.conj().T).real / 6.0, 0.0))
    if p == 0.0:
        return q
    r = np.linalg.det(b / p).real / 2.0
    phi = math.acos(min(1.0, max(-1.0, r))) / 3.0
    return q + 2.0 * p * math.cos(phi + 2.0 * math.pi / 3.0)


def test_min_eigenvalue_simple_cases():
    assert abs(hermitian_min_eigenvalue(np.eye(6)) - 1.0) < 1e-12
    assert abs(hermitian_min_eigenvalue(np.diag([3.0, -2.0, 5.0])) + 2.0) < 1e-12
    assert hermitian_min_eigenvalue(np.zeros((4, 4))) == 0.0


def test_min_eigenvalue_against_cubic_formula():
    for seed in range(12):
        m = _random_hermitian(3, seed)
        got = hermitian_min_eigenvalue(m)
        want = _cubic_min_eigenvalue(m)
        assert abs(got - want) < 1e-10


def test_min_eigenvalue_against_lapack():
    for seed in range(20):
        d = 2 + seed % 7
        m = _random_hermitian(d, 100 + seed)
        got = hermitian_min_eigenvalue(m)
        want = float(np.linalg.eigvalsh(m)[0])
        assert abs(got - want) < 1e-10 * max(1.0, abs(want))


def test_min_eigenvalue_tiny_pivots():
    # off-diagonal entries far below the diagonal's roundoff
    m = np.diag([1.0, 2.0, 3.0]).astype(complex)
    m[0, 1] = m[1, 0] = 1e-200
    assert abs(hermitian_min_eigenvalue(m) - 1.0) < 1e-12


def test_min_eigenvalue_input_checks():
    with pytest.raises(ValueError):
        hermitian_min_eigenvalue(np.ones((2, 3)))
    with pytest.raises(ValueError):
        hermitian_min_eigenvalue(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        hermitian_min_eigenvalue(np.zeros((0, 0)))


# ---------------------------------------------------------------------------
# witnesses on physical states


def _z_polarized():
    psi = np.zeros((3, 3), dtype=complex)
    psi[0, 0] = 1.0
    return sector_moments(Sector(2, 2, psi))


def test_dgcz_saturates_at_zero_time():
    ms = mixture_moments(mixed_split_state(500, 0.0).blocks)
    assert abs(dgcz(ms) - 1.0) < 1e-10


def test_dgcz_detection_window():
    n = 500
    early = dgcz(_split_moments(n, 1.0 / (4 * n)))
    late = dgcz(_split_moments(n, 2.0 / n))
    assert early < 1.0
    assert late > 1.0


def test_dgcz_undefined_without_polarization():
    with pytest.raises(UndefinedWitnessError):
        dgcz(_z_polarized())


def test_covariance_criterion_zero_time():
    for build in (lambda: mixture_moments(mixed_split_state(500, 0.0).blocks),
                  lambda: moments(effective_evolution(5, 5, 0.0))):
        val = build()
        e = covariance_criterion(val)
        assert e > -1e-8  # separable: no detection beyond roundoff


def test_covariance_criterion_detects():
    n = 500
    assert covariance_criterion(mixture_moments(mixed_split_state(n, 1.0 / n).blocks)) < 0.0


def test_covariance_window_edge_scaling():
    # upper edge of the detection window sits near 1/sqrt(12 N)
    for n in (100, 200, 500):
        lo, hi = 1.0 / n, 3.0 / math.sqrt(12.0 * n)
        f_lo = covariance_criterion(_split_moments(n, lo))
        f_hi = covariance_criterion(_split_moments(n, hi))
        assert f_lo < 0.0 < f_hi
        for _ in range(12):
            mid = 0.5 * (lo + hi)
            if covariance_criterion(_split_moments(n, mid)) < 0.0:
                lo = mid
            else:
                hi = mid
        edge = 0.5 * (lo + hi)
        want = 1.0 / math.sqrt(12.0 * n)
        assert abs(edge - want) <= 0.10 * want, (n, edge, want)


def test_squeezing_angle_small_time_limit():
    assert squeezing_angle(20, 0.0) == 0.25 * math.pi
    assert abs(squeezing_angle(500, 1e-9) - 0.25 * math.pi) < 1e-5


def test_squeezing_angle_matches_variance_minimum():
    n, t = 20, 0.02
    ms = moments(effective_evolution(10, 10, t))
    theta = squeezing_angle(n, t)
    grid = np.arange(0.0, 0.5 * math.pi, 2e-4)
    variances = []
    for th in grid:
        v = rotate_moments(ms, float(th)).V
        variances.append(v[2, 2] + v[5, 5] + 2.0 * v[2, 5])
    best = grid[int(np.argmin(variances))]
    assert abs(theta - best) < 1e-3


def test_squeezing_angle_degenerate_point():
    with pytest.warns(RuntimeWarning):
        theta = squeezing_angle(10, 0.25 * math.pi)
    assert theta == 0.0
    with pytest.warns(RuntimeWarning):
        squeezing_angle(11, 0.5 * math.pi)


def test_squeezing_angle_needs_three_atoms():
    with pytest.raises(ValueError):
        squeezing_angle(2, 0.1)


def test_giovannetti_zero_time():
    ms = rotate_moments(moments(effective_evolution(5, 5, 0.0)), 0.25 * math.pi)
    val, g_y, g_z = giovannetti(ms)
    assert abs(val - 1.0) < 1e-10
    assert g_y == 0.0 and g_z == 0.0


# ---------------------------------------------------------------------------
# the search oracle for giovannetti: a 41 x 41 signed log grid, refined by
# Nelder-Mead from its best point (the production route before the
# closed form)


def _giovannetti_objective(ms):
    v = ms.V
    mx_l = ms.means[0]
    mx_r = ms.means[3]

    def objective(g):
        g_y, g_z = g
        var_z = g_z * g_z * v[2, 2] - 2.0 * g_z * v[2, 5] + v[5, 5]
        var_y = g_y * g_y * v[1, 1] - 2.0 * g_y * v[1, 4] + v[4, 4]
        den = abs(g_z * g_y) * mx_l + mx_r
        if den <= 0.0:
            return math.inf
        return math.sqrt(max(var_z, 0.0) * max(var_y, 0.0)) / den

    return objective


def _gain_grid():
    mags = np.exp(np.linspace(math.log(1e-3), math.log(4.0), 20))
    return np.concatenate([-mags[::-1], [0.0], mags])


def _grid_objective(ms, grid):
    """The objective on grid x grid, g_y by row and g_z by column, each
    entry bit-identical to objective((g_y, g_z))."""
    v = ms.V
    var_z = grid * grid * v[2, 2] - 2.0 * grid * v[2, 5] + v[5, 5]
    var_y = grid * grid * v[1, 1] - 2.0 * grid * v[1, 4] + v[4, 4]
    # np.where(x < 0, 0, x) is max(x, 0.0), NaN and -0.0 included
    var_z = np.where(var_z < 0.0, 0.0, var_z)
    var_y = np.where(var_y < 0.0, 0.0, var_y)
    den = np.abs(np.multiply.outer(grid, grid)) * ms.means[0] + ms.means[3]
    with np.errstate(divide="ignore", invalid="ignore"):
        values = np.sqrt(np.multiply.outer(var_y, var_z)) / den
    return np.where(den <= 0.0, math.inf, values)


def _grid_minimum(ms, grid):
    """Best grid point in scan order (g_y outer, g_z inner): a value more
    than 1e-12 below the lead takes it, and within 1e-12 of the lead the
    smaller |g_y| + |g_z| wins."""
    flat = _grid_objective(ms, grid).ravel()
    # each tie moves the lead up by at most 1e-12, so entries more than
    # 1e-8 above the running minimum can never take it and are skipped
    floor = np.fmin.accumulate(flat)
    reachable = flat <= floor + 1e-8 * np.maximum(1.0, np.abs(floor))
    best_val = math.inf
    best_g = (0.0, 0.0)
    for index in np.flatnonzero(reachable).tolist():
        val = float(flat[index])
        g_y, g_z = grid[index // grid.size], grid[index % grid.size]
        better = val < best_val - 1e-12
        tied = abs(val - best_val) <= 1e-12
        if better or (
            tied and abs(g_y) + abs(g_z) < abs(best_g[0]) + abs(best_g[1])
        ):
            best_val = val
            best_g = (g_y, g_z)
    return best_val, best_g


def _search_oracle(ms):
    """Least objective value seen by the grid and by the Nelder-Mead
    refinement started from its best point."""
    best_val, best_g = _grid_minimum(ms, _gain_grid())
    step = max(0.05, 0.1 * max(abs(best_g[0]), abs(best_g[1])))
    simplex = np.array(
        [best_g, (best_g[0] + step, best_g[1]), (best_g[0], best_g[1] + step)]
    )
    res = optimize.minimize(
        _giovannetti_objective(ms),
        np.asarray(best_g),
        method="Nelder-Mead",
        options={
            "initial_simplex": simplex,
            "xatol": 1e-9,
            "fatol": 1e-13 * max(1.0, abs(best_val)),
            "maxiter": 2000,
        },
    )
    return min(best_val, float(res.fun))


def _scalar_grid_scan(ms):
    """Reference for the oracle's grid stage: the scalar objective
    called at every point in scan order (g_y outer, g_z inner)."""
    objective = _giovannetti_objective(ms)
    grid = _gain_grid()
    best_val = math.inf
    best_g = (0.0, 0.0)
    for g_y in grid:
        for g_z in grid:
            val = objective((g_y, g_z))
            better = val < best_val - 1e-12
            tied = abs(val - best_val) <= 1e-12
            if better or (
                tied and abs(g_y) + abs(g_z) < abs(best_g[0]) + abs(best_g[1])
            ):
                best_val = val
                best_g = (g_y, g_z)
    return best_val, best_g


def _random_moment_set(rng):
    """Symmetric V, PSD or not, and means of either sign, so that clipped
    variances and nonpositive denominators both occur."""
    a = rng.normal(size=(6, 6)) * rng.uniform(0.1, 50.0)
    v = a @ a.T if rng.random() < 0.5 else 0.5 * (a + a.T)
    means = rng.normal(size=6) * rng.uniform(0.1, 50.0)
    return MomentSet(int(rng.integers(3, 500)), means, v, np.zeros((6, 6)))


def _coherent_products():
    """The coherent product at t = 0, whose objective is flat along
    |g_y| = |g_z|, at N = 8 and 500."""
    cases = []
    for n in (8, 500):
        coherent = spin_coherent(1 / math.sqrt(2), 1 / math.sqrt(2), n)
        ms = split_moments(one_axis_twist(coherent, 0.0))
        cases.append(rotate_moments(ms, squeezing_angle(n, 0.0)))
    return cases


def test_grid_minimum_matches_scalar_scan():
    rng = np.random.default_rng(1808)
    cases = [_random_moment_set(rng) for _ in range(200)] + _coherent_products()
    for ms in cases:
        want_val, want_g = _scalar_grid_scan(ms)
        got_val, got_g = _grid_minimum(ms, _gain_grid())
        assert float(got_val).hex() == float(want_val).hex()
        assert [float(g).hex() for g in got_g] == [float(g).hex() for g in want_g]


def _assert_not_above(value, bound):
    assert value <= bound + 1e-12 * max(1.0, value), (value, bound)


def test_giovannetti_not_above_search_oracle():
    rng = np.random.default_rng(1808)
    cases = [_random_moment_set(rng) for _ in range(200)] + _coherent_products()
    # the criteria-n500 sweep: criteria --n 500 --steps 21 --t-max 0.02
    for t in np.linspace(0.0, 0.02, 21).tolist():
        cases.append(rotate_moments(_split_moments(500, t), squeezing_angle(500, t)))
    defined = 0
    for ms in cases:
        if ms.means[3] <= 1e-9 * max(1.0, ms.n_total):
            with pytest.raises(UndefinedWitnessError):
                giovannetti(ms)
            continue
        val, g_y, g_z = giovannetti(ms)
        _assert_not_above(val, _search_oracle(ms))
        # the reported gains attain the reported value
        assert abs(_giovannetti_objective(ms)((g_y, g_z)) - val) <= 1e-12 * max(1.0, val)
        defined += 1
    assert defined >= 100


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(
    entries=st.lists(st.floats(-50.0, 50.0), min_size=21, max_size=21),
    means=st.lists(st.floats(-50.0, 50.0), min_size=6, max_size=6),
    psd=st.booleans(),
)
def test_no_grid_point_beats_closed_form(entries, means, psd):
    a = np.zeros((6, 6))
    a[np.triu_indices(6)] = entries
    v = a @ a.T if psd else a + np.triu(a, 1).T
    ms = MomentSet(100, np.array(means), v, np.zeros((6, 6)))
    if ms.means[3] <= 1e-9 * ms.n_total:
        return
    try:
        val, _, _ = giovannetti(ms)
    except UndefinedWitnessError:
        # the infimum lies at infinite gain, which only a denominator
        # that grows with the gains allows
        assert ms.means[0] > 0.0
        return
    _assert_not_above(val, float(_grid_objective(ms, _gain_grid()).min()))


def _diagonal_moments(means, diag, cross=(0.0, 0.0)):
    v = np.diag(diag)
    v[1, 4] = v[4, 1] = cross[0]
    v[2, 5] = v[5, 2] = cross[1]
    return MomentSet(4, np.array(means), v, np.zeros((6, 6)))


def test_giovannetti_tie_rule_and_degenerate_cases():
    # exact moments of the t = 0 product: the whole valley |g_y| = |g_z|
    # ties and the smallest gains win
    val, g_y, g_z = giovannetti(_coherent_products()[0])
    assert abs(val - 1.0) < 1e-12 and (g_y, g_z) == (0.0, 0.0)
    # Var(g_y S_L^y - S_R^y) does not depend on g_y and <S_L^x> > 0: the
    # objective falls towards 0 as |g_y| grows, and no gain attains it
    flat = [1.0, 0.0, 1.0, 1.0, 1.0, 1.0]
    with pytest.raises(UndefinedWitnessError):
        giovannetti(_diagonal_moments([1.0, 0, 0, 1.0, 0, 0], flat))
    # the same variances with <S_L^x> = 0: no gain helps, gains 0
    assert giovannetti(_diagonal_moments([0.0, 0, 0, 2.0, 0, 0], flat)) == (0.5, 0.0, 0.0)
    # <S_L^x> < 0: the denominator shrinks as |g_y g_z| grows
    neg = _diagonal_moments([-0.3, 0, 0, 1.0, 0, 0], [1.0] * 6, (0.5, -0.5))
    val, g_y, g_z = giovannetti(neg)
    _assert_not_above(val, _search_oracle(neg))
    assert g_y > 0.0 > g_z
    # a gain that drives a variance negative is clipped to exactly 0:
    # g_y^2 - 4 g_y + 1 at g_y = 1/2
    clipped = _diagonal_moments([1.0, 0, 0, 1.0, 0, 0], [1.0] * 6, (2.0, 0.0))
    assert giovannetti(clipped) == (0.0, 0.5, 0.0)


def test_giovannetti_gain_stationarity():
    n, t = 120, 1.0 / 240.0
    ms = mixture_moments(mixed_split_state(n, t).blocks)
    theta = squeezing_angle(n, t)
    rot = rotate_moments(ms, theta)
    val, g_y, g_z = giovannetti(rot)
    assert val < 1.0  # detection inside the window

    v, mean = rot.V, rot.means

    def objective(gy, gz):
        var_z = gz * gz * v[2, 2] - 2.0 * gz * v[2, 5] + v[5, 5]
        var_y = gy * gy * v[1, 1] - 2.0 * gy * v[1, 4] + v[4, 4]
        return math.sqrt(var_z * var_y) / (abs(gz * gy) * mean[0] + mean[3])

    h = 1e-5
    grad_y = (objective(g_y + h, g_z) - objective(g_y - h, g_z)) / (2 * h)
    grad_z = (objective(g_y, g_z + h) - objective(g_y, g_z - h)) / (2 * h)
    assert abs(grad_y) < 1e-6
    assert abs(grad_z) < 1e-6


def test_giovannetti_undefined_without_polarization():
    with pytest.raises(UndefinedWitnessError):
        giovannetti(_z_polarized())


def test_wineland_xi_shape():
    assert abs(wineland_xi(rotate_moments(moments(effective_evolution(5, 5, 0.0)), 0.25 * math.pi)) - 1.0) < 1e-12
    n = 500
    values = []
    for t in (1e-4, 8e-4, 5e-2):
        ms = _split_moments(n, t)
        values.append(wineland_xi(rotate_moments(ms, squeezing_angle(n, t))))
    assert values[1] < values[0] < 1.0  # squeezing deepens initially
    assert values[2] > values[1]  # and is eventually lost
    with pytest.raises(UndefinedWitnessError):
        wineland_xi(_z_polarized())


def test_epr_steering_zero_time():
    for wells in ((5, 5), (4, 6)):
        ms = rotate_moments(moments(effective_evolution(*wells, 0.0)), 0.25 * math.pi)
        for direction in ("lr", "rl"):
            val, g_y, g_z = epr_steering(ms, direction)
            assert abs(val - 1.0) < 1e-10
            assert abs(g_y) < 1e-12 and abs(g_z) < 1e-12


def test_epr_steering_from_empty_well():
    # an empty steering well has no variance and, by Cauchy-Schwarz, no
    # covariance: the gains are 0 rather than 0/0, and E_LR reduces to
    # the right well's own uncertainty product
    n, t = 10, 0.02
    rot = rotate_moments(moments(effective_evolution(0, n, t)), squeezing_angle(n, t))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val, g_y, g_z = epr_steering(rot, "lr")
    assert g_y == 0.0 and g_z == 0.0
    assert math.isfinite(val) and val >= 1.0
    v = rot.V
    assert val == math.sqrt(v[5, 5] * v[4, 4]) / rot.means[3]


def test_epr_steering_direction_symmetry():
    n, t = 10, 0.01
    ms = rotate_moments(mixture_moments(mixed_split_state(n, t).blocks), squeezing_angle(n, t))
    lr, _, _ = epr_steering(ms, "lr")
    rl, _, _ = epr_steering(ms, "rl")
    assert abs(lr - rl) < 1e-10
    with pytest.raises(ValueError):
        epr_steering(ms, "sideways")


def test_steering_implies_giovannetti_detection():
    n = 100
    for t in np.linspace(1e-4, 0.02, 25):
        ms = mixture_moments(mixed_split_state(n, float(t)).blocks)
        rot = rotate_moments(ms, squeezing_angle(n, float(t)))
        e_g, _, _ = giovannetti(rot)
        lr, _, _ = epr_steering(rot, "lr")
        rl, _, _ = epr_steering(rot, "rl")
        if min(lr, rl) < 1.0:
            assert e_g < 1.0, t


def test_witnesses_symmetric_under_well_exchange():
    state = effective_evolution(8, 8, 0.03)
    swapped = Sector(8, 8, state.psi.T)
    a, b = moments(state), sector_moments(swapped)
    assert abs(dgcz(a) - dgcz(b)) < 1e-10
    assert abs(covariance_criterion(a) - covariance_criterion(b)) < 1e-10
    theta = squeezing_angle(16, 0.03)
    ra, rb = rotate_moments(a, theta), rotate_moments(b, theta)
    assert abs(giovannetti(ra)[0] - giovannetti(rb)[0]) < 1e-8
    assert abs(wineland_xi(ra) - wineland_xi(rb)) < 1e-10


def test_witness_suite_bundle():
    n, t = 20, 0.01
    ms = mixture_moments(mixed_split_state(n, t, window=0.0).blocks)
    result = witness_suite(ms, t)
    assert isinstance(result, WitnessResult)
    for name in ("e_dgcz", "e_cm", "e_g", "xi", "e_steer_lr", "e_steer_rl",
                 "g_y", "g_z", "theta"):
        value = getattr(result, name)
        assert isinstance(value, float) and math.isfinite(value)
    assert result.theta == squeezing_angle(n, t)
    assert abs(result.e_cm - covariance_criterion(ms)) < 1e-14
    assert result.entangled == (result.e_dgcz < 1.0 or result.e_cm < 0.0 or result.e_g < 1.0)
    assert result.steerable == (min(result.e_steer_lr, result.e_steer_rl) < 1.0)


def test_witness_suite_undefined_witnesses_are_nan():
    result = witness_suite(_z_polarized(), 0.01)
    undefined = {"e_dgcz", "e_g", "xi", "e_steer_lr", "e_steer_rl", "g_y", "g_z"}
    for name in ("t", "e_dgcz", "e_cm", "e_g", "xi", "e_steer_lr", "e_steer_rl",
                 "g_y", "g_z", "theta"):
        assert math.isnan(getattr(result, name)) == (name in undefined), name


# ------------------------------------------ float paths vs numpy forms


def _floor(ms):
    return 1e-9 * max(1.0, ms.n_total)


def _numpy_dgcz(ms):
    v, m = ms.V, ms.means
    num = (v[1, 1] + v[5, 5] + 2.0 * v[1, 5]) + (v[4, 4] + v[2, 2] + 2.0 * v[4, 2])
    den = 2.0 * (m[0] + m[3])
    if den <= _floor(ms):
        raise UndefinedWitnessError
    return num / den


def _numpy_covariance_criterion(ms):
    q = np.diag([1.0, 1.0, 1.0, 1.0, -1.0, 1.0])
    pto = q @ ms.Omega @ q
    pto[3:, 3:] *= -1.0
    return hermitian_min_eigenvalue(q @ ms.V @ q + 0.5j * pto) / ms.n_total


def _numpy_wineland_xi(ms):
    v, m = ms.V, ms.means
    var_tot = v[2, 2] + v[5, 5] + 2.0 * v[2, 5]
    mx = m[0] + m[3]
    if abs(mx) <= _floor(ms):
        raise UndefinedWitnessError
    return ms.n_total * var_tot / (mx * mx)


def _numpy_epr_steering(ms, direction):
    v = ms.V
    (sz, tz, sy, ty), mx = ((2, 5, 1, 4), ms.means[3]) if direction == "lr" else (
        (5, 2, 4, 1), ms.means[0])
    if mx <= _floor(ms):
        raise UndefinedWitnessError
    g_z = v[sz, tz] / v[sz, sz] if v[sz, sz] > 0.0 else 0.0
    g_y = v[sy, ty] / v[sy, sy] if v[sy, sy] > 0.0 else 0.0
    var_z = g_z * g_z * v[sz, sz] - 2.0 * g_z * v[sz, tz] + v[tz, tz]
    var_y = g_y * g_y * v[sy, sy] - 2.0 * g_y * v[sy, ty] + v[ty, ty]
    return math.sqrt(max(var_z, 0.0) * max(var_y, 0.0)) / mx, g_y, g_z


def _bits(fn, *args):
    """A witness outcome as exact bits: float hex, or 'undefined'."""
    try:
        value = fn(*args)
    except UndefinedWitnessError:
        return "undefined"
    if isinstance(value, tuple):
        return tuple(float(x).hex() for x in value)
    return float(value).hex()


def _float_path_cases():
    """(moments, t): the closed-form split state, single sectors, and
    random symmetric V with antisymmetric in-well Omega."""
    cases = []
    for n in (3, 10, 500, 10**5):
        for t in (0.0, 1e-5, 1e-3, 0.0123, 0.1, 0.3):
            cases.append((moments(twisted_split(n, t)), t))
    for wells in ((0, 5), (5, 0), (3, 4), (10, 10), (250, 250), (100, 20)):
        for t in (0.0, 1e-3, 0.04, 0.3):
            cases.append((moments(effective_evolution(*wells, t)), t))
    rng = np.random.default_rng(1919)
    for _ in range(200):
        a = rng.normal(size=(6, 6)) * rng.uniform(0.1, 50.0)
        v = a @ a.T if rng.random() < 0.5 else 0.5 * (a + a.T)
        b = rng.normal(size=(6, 6))
        b[:3, 3:] = b[3:, :3] = 0.0
        means = rng.normal(size=6) * rng.uniform(0.1, 50.0)
        ms = MomentSet(int(rng.integers(3, 500)), means, v, b - b.T)
        cases.append((ms, float(rng.uniform(0.0, 0.5))))
    return cases


def test_witness_float_paths_equal_their_numpy_forms():
    for ms, _ in _float_path_cases():
        assert _bits(dgcz, ms) == _bits(_numpy_dgcz, ms)
        assert _bits(covariance_criterion, ms) == _bits(_numpy_covariance_criterion, ms)
        assert _bits(wineland_xi, ms) == _bits(_numpy_wineland_xi, ms)
        for direction in ("lr", "rl"):
            assert _bits(epr_steering, ms, direction) == _bits(
                _numpy_epr_steering, ms, direction
            )


def test_witness_suite_equals_the_witnesses_on_rotate_moments():
    # witness_suite turns only the (y, z) blocks of V that the rotated
    # witnesses read; they must see the bits of the full rotation
    def steering_value(ms, direction):
        return epr_steering(ms, direction)[0]

    fields = ("t", "e_dgcz", "e_cm", "e_g", "xi", "e_steer_lr", "e_steer_rl", "g_y", "g_z",
              "theta")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for ms, t in _float_path_cases():
            theta = squeezing_angle(ms.n_total, t)
            rotated = rotate_moments(ms, theta)
            gio = _bits(giovannetti, rotated)
            if gio == "undefined":
                gio = ("undefined",) * 3
            want = [
                float(t).hex(), _bits(dgcz, ms), _bits(covariance_criterion, ms), gio[0],
                _bits(wineland_xi, rotated), _bits(steering_value, rotated, "lr"),
                _bits(steering_value, rotated, "rl"), gio[1], gio[2], theta.hex(),
            ]
            want = [math.nan.hex() if x == "undefined" else x for x in want]
            got = witness_suite(ms, t)
            assert [float(getattr(got, f)).hex() for f in fields] == want


def test_covariance_criterion_still_rejects_non_hermitian_moments():
    ms = moments(twisted_split(10, 0.05))
    v = ms.V.copy()
    v[1, 4] += 1.0
    with pytest.raises(ValueError, match="Hermitian"):
        covariance_criterion(MomentSet(10, ms.means, v, ms.Omega))
    # a symmetric part in Omega makes (i/2) Omega non-Hermitian
    omega = ms.Omega.copy()
    omega[1, 2] = omega[2, 1] = 1.0
    with pytest.raises(ValueError, match="Hermitian"):
        covariance_criterion(MomentSet(10, ms.means, ms.V, omega))


@pytest.mark.parametrize("n", [500, 2000, 10**4, 10**5])
def test_squeezing_angle_against_40_digit_reference(n):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for t in (1e-5, 1e-4, 3e-4, 1e-3, 0.0123):
            x = mpmath.mpf(t)
            num = 4 * mpmath.sin(4 * x) * mpmath.cos(4 * x) ** (n - 2)
            den = 1 - mpmath.cos(8 * x) ** (n - 2)
            want = mpmath.atan2(num, den) / 2
            if want < 0:
                want += mpmath.pi / 2
            got = squeezing_angle(n, t)
            assert abs(got - want) <= 1e-13 * abs(want), (n, t, got, float(want))
