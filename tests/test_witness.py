import math

import numpy as np
import pytest

from sqsplit.observables import MomentSet, moments, rotate_moments
from sqsplit.statekit import (
    ConditionalState,
    effective_evolution,
    mixed_split_state,
    one_axis_twist,
    spin_coherent,
    split,
)
from sqsplit.witness import (
    _gain_grid,
    _giovannetti_objective,
    _grid_minimum,
    OptimizerError,
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
    # nearly diagonal input exercises the pivot-skip path
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
    return moments(ConditionalState(2, 2, psi))


def test_dgcz_saturates_at_zero_time():
    ms = moments(mixed_split_state(500, 0.0))
    assert abs(dgcz(ms) - 1.0) < 1e-10


def test_dgcz_detection_window():
    n = 500
    early = dgcz(moments(mixed_split_state(n, 1.0 / (4 * n))))
    late = dgcz(moments(mixed_split_state(n, 2.0 / n)))
    assert early < 1.0
    assert late > 1.0


def test_dgcz_undefined_without_polarization():
    with pytest.raises(UndefinedWitnessError):
        dgcz(_z_polarized())


def test_covariance_criterion_zero_time():
    for build in (lambda: moments(mixed_split_state(500, 0.0)),
                  lambda: moments(effective_evolution(5, 5, 0.0))):
        val = build()
        e = covariance_criterion(val)
        assert e > -1e-8  # separable: no detection beyond roundoff


def test_covariance_criterion_detects():
    n = 500
    assert covariance_criterion(moments(mixed_split_state(n, 1.0 / n))) < 0.0


def test_covariance_window_edge_scaling():
    # upper edge of the detection window sits near 1/sqrt(12 N)
    for n in (100, 200, 500):
        lo, hi = 1.0 / n, 3.0 / math.sqrt(12.0 * n)
        f_lo = covariance_criterion(moments(mixed_split_state(n, lo)))
        f_hi = covariance_criterion(moments(mixed_split_state(n, hi)))
        assert f_lo < 0.0 < f_hi
        for _ in range(12):
            mid = 0.5 * (lo + hi)
            if covariance_criterion(moments(mixed_split_state(n, mid))) < 0.0:
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


def _scalar_grid_scan(ms):
    """Reference for the grid stage of giovannetti: the scalar objective
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


def test_grid_minimum_matches_scalar_scan():
    rng = np.random.default_rng(1808)
    cases = [_random_moment_set(rng) for _ in range(200)]
    # the coherent product at t = 0: a valley of ties along |g_y| = |g_z|
    for n in (8, 500):
        coherent = spin_coherent(1 / math.sqrt(2), 1 / math.sqrt(2), n)
        ms = moments(split(one_axis_twist(coherent, 0.0)))
        cases.append(rotate_moments(ms, squeezing_angle(n, 0.0)))
    for ms in cases:
        want_val, want_g = _scalar_grid_scan(ms)
        got_val, got_g = _grid_minimum(ms, _gain_grid())
        assert float(got_val).hex() == float(want_val).hex()
        assert [float(g).hex() for g in got_g] == [float(g).hex() for g in want_g]


def test_giovannetti_gain_stationarity():
    n, t = 120, 1.0 / 240.0
    ms = moments(mixed_split_state(n, t))
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
        ms = moments(mixed_split_state(n, t))
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


def test_epr_steering_direction_symmetry():
    n, t = 10, 0.01
    ms = rotate_moments(moments(mixed_split_state(n, t)), squeezing_angle(n, t))
    lr, _, _ = epr_steering(ms, "lr")
    rl, _, _ = epr_steering(ms, "rl")
    assert abs(lr - rl) < 1e-10
    with pytest.raises(ValueError):
        epr_steering(ms, "sideways")


def test_steering_implies_giovannetti_detection():
    n = 100
    for t in np.linspace(1e-4, 0.02, 25):
        ms = moments(mixed_split_state(n, float(t)))
        rot = rotate_moments(ms, squeezing_angle(n, float(t)))
        e_g, _, _ = giovannetti(rot)
        lr, _, _ = epr_steering(rot, "lr")
        rl, _, _ = epr_steering(rot, "rl")
        if min(lr, rl) < 1.0:
            assert e_g < 1.0, t


def test_witnesses_symmetric_under_well_exchange():
    state = effective_evolution(8, 8, 0.03)
    swapped = ConditionalState(8, 8, state.psi.T)
    a, b = moments(state), moments(swapped)
    assert abs(dgcz(a) - dgcz(b)) < 1e-10
    assert abs(covariance_criterion(a) - covariance_criterion(b)) < 1e-10
    theta = squeezing_angle(16, 0.03)
    ra, rb = rotate_moments(a, theta), rotate_moments(b, theta)
    assert abs(giovannetti(ra)[0] - giovannetti(rb)[0]) < 1e-8
    assert abs(wineland_xi(ra) - wineland_xi(rb)) < 1e-10


def test_witness_suite_bundle():
    n, t = 20, 0.01
    ms = moments(mixed_split_state(n, t, window=0.0))
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
    assert issubclass(OptimizerError, RuntimeError)
