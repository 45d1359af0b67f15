import math
import tracemalloc

import numpy as np
import pytest

from sqsplit import _oracles, wigner
from sqsplit._oracles import wigner_3j
from sqsplit.observables import project_right_fock, reduced_density_left
from sqsplit.specfun import gauss_legendre_sphere
from sqsplit.statekit import effective_evolution
from sqsplit.wigner import (
    WignerGrid,
    conditional_wigner_closed,
    default_rule,
    display_lattice,
    marginal_wigner_closed,
    negativity_volume,
    sphere_integral,
    wigner_from_density,
)


def _random_density(dim, seed, trace=1.0):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    return rho * (trace / np.trace(rho).real)


def test_default_rule_size():
    rule = default_rule(5.0)
    assert rule.nodes_costheta.size == 12
    assert rule.phi_count == 24


def test_grid_shape_guard():
    rule = default_rule(1.0)
    with pytest.raises(ValueError):
        WignerGrid(1.0, rule, np.zeros((2, 2)), np.zeros((3, 5), dtype=complex))


def test_wigner_input_validation():
    with pytest.raises(ValueError):
        wigner_from_density(np.ones((2, 3)))
    skew = np.array([[0.5, 0.2], [0.3, 0.5]])
    with pytest.raises(ValueError):
        wigner_from_density(skew)


def test_sphere_integral_tracks_trace():
    # integral of W equals sqrt(4 pi / (2j + 1)) times the trace
    for dim, seed in ((2, 1), (5, 2), (11, 3), (21, 4)):
        rho = _random_density(dim, seed)
        grid = wigner_from_density(rho)
        want = math.sqrt(4 * math.pi / dim)
        assert abs(sphere_integral(grid) - want) < 1e-8
        assert np.isrealobj(grid.values)
    half = wigner_from_density(_random_density(7, 5, trace=0.5))
    assert abs(sphere_integral(half) - 0.5 * math.sqrt(4 * math.pi / 7)) < 1e-8


def test_coherent_state_peak_location():
    rho = reduced_density_left(effective_evolution(10, 10, 0.0))
    grid = wigner_from_density(rho)
    thetas, phis, vals = display_lattice(grid)
    i, m = np.unravel_index(vals.argmax(), vals.shape)
    assert abs(thetas[i] - math.pi / 2) < 1e-12
    assert phis[m] in (0.0, 2 * math.pi) or min(phis[m], 2 * math.pi - phis[m]) < 1e-12


def test_wigner_linearity():
    rho1 = _random_density(8, 10)
    rho2 = _random_density(8, 11)
    rule = default_rule(3.5)
    a, b = 0.3, -1.7
    combo = wigner_from_density(a * rho1 + b * rho2, rule=rule)
    parts = a * wigner_from_density(rho1, rule=rule).values + b * wigner_from_density(
        rho2, rule=rule
    ).values
    assert np.abs(combo.values - parts).max() < 1e-10


def test_wigner_scales_with_the_matrix():
    # the imaginary-residue check is relative to the values: at this size
    # the roundoff residue of 1e3 rho is about 7e-9
    rho = reduced_density_left(effective_evolution(40, 40, 0.2)).entries
    want = 1e3 * wigner_from_density(rho).values
    got = wigner_from_density(1e3 * rho).values
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_rotational_covariance():
    # e^{-i S^z phi0 / 2} translates the Wigner function by one phi node
    rho = _random_density(7, 12)
    grid = wigner_from_density(rho)
    phi0 = 2 * math.pi / grid.rule.phi_count
    m = 2.0 * np.arange(7) - 6.0  # S^z eigenvalues
    u = np.exp(-0.5j * m * phi0)
    rotated = wigner_from_density(u[:, None] * rho * u.conj()[None, :], rule=grid.rule)
    assert np.abs(rotated.values - np.roll(grid.values, 1, axis=1)).max() < 1e-12


# ---------------------------------------------------------------------------
# closed forms against the generic pipeline


@pytest.mark.parametrize(
    "n_left,n_right,t",
    [(4, 4, 0.3), (3, 5, 0.7), (7, 9, 0.11), (10, 10, 0.05), (10, 10, math.pi / 8)],
)
def test_marginal_closed_form_matches_pipeline(n_left, n_right, t):
    rule = default_rule(0.5 * n_left)
    closed = marginal_wigner_closed(n_left, n_right, t, rule=rule)
    rho = reduced_density_left(effective_evolution(n_left, n_right, t))
    generic = wigner_from_density(rho, rule=rule)
    assert np.abs(closed.values - generic.values).max() < 1e-9
    assert abs(sphere_integral(closed) - math.sqrt(4 * math.pi / (n_left + 1))) < 1e-8


@pytest.mark.parametrize(
    "n_left,n_right,k_r,t",
    [
        (10, 10, 3, 0.223606797749979),
        (10, 10, 5, 0.223606797749979),
        (10, 10, 10, 0.223606797749979),
        (5, 15, 2, 0.3),
        (6, 6, 0, 0.19),
    ],
)
def test_conditional_closed_form_matches_pipeline(n_left, n_right, k_r, t):
    rule = default_rule(0.5 * n_left)
    closed = conditional_wigner_closed(n_left, n_right, k_r, t, rule=rule)
    prob, left = project_right_fock(effective_evolution(n_left, n_right, t), k_r)
    rho = np.outer(left.amplitudes, left.amplitudes.conj())
    generic = wigner_from_density(rho, rule=rule)
    assert np.abs(closed.values - generic.values).max() < 1e-9
    # the trace constant divided out is exactly the outcome probability
    assert abs(closed.norm_constant - prob) < 1e-12


def test_conditional_rejects_bad_outcome():
    with pytest.raises(ValueError):
        conditional_wigner_closed(4, 4, 5, 0.1)


# ---------------------------------------------------------------------------
# negativity structure of the marginal


def test_marginal_negativity_is_ripple_sized():
    """The marginal stays positive up to finite-j antipodal ripples.

    The exact SU(2) Wigner function of a spin-5 coherent state already
    dips to -1.3e-4, so the floor here is small but genuinely negative;
    "positive" for these marginals means, numerically, that the negative
    part never exceeds a few percent of the peak.
    """
    n = 20
    for t in (0.0, 1 / n, 1 / (2 * math.sqrt(n)), math.pi / 8):
        grid = marginal_wigner_closed(10, 10, t)
        _, _, vals = display_lattice(grid)
        assert vals.min() < -2e-5  # the ripples are real, not roundoff
        assert vals.min() > -0.02
        assert vals.min() > -0.03 * vals.max()
        assert negativity_volume(grid) < 7e-3


def test_cat_state_marginal_has_two_lobes():
    grid = marginal_wigner_closed(10, 10, math.pi / 8)
    _, phis, vals = display_lattice(grid)
    equator = vals[90]
    peak = equator.max()
    lobes = []
    for i in range(equator.size - 1):  # phi = 2 pi duplicates phi = 0
        left = equator[(i - 1) % (equator.size - 1)]
        right = equator[i + 1]
        if equator[i] > left and equator[i] >= right and equator[i] > 0.5 * peak:
            lobes.append(phis[i])
    assert len(lobes) == 2
    assert min(abs(lobes[0]), 2 * math.pi - lobes[0]) < 0.05
    assert abs(lobes[1] - math.pi) < 0.05


# ---------------------------------------------------------------------------
# negativity volume


def test_negativity_volume_nonnegative():
    for seed in (21, 22):
        grid = wigner_from_density(_random_density(9, seed))
        assert negativity_volume(grid) >= 0.0


def test_coherent_volume_is_ripple_only():
    grid = marginal_wigner_closed(10, 10, 0.0)
    vol = negativity_volume(grid)
    assert 0.0 < vol < 1e-3


def test_heralded_volume_grows_with_squeezing_time():
    n = 20
    small = conditional_wigner_closed(10, 10, 5, 1 / n)
    large = conditional_wigner_closed(10, 10, 5, 1 / math.sqrt(n))
    assert negativity_volume(large) > negativity_volume(small)


def test_volume_quadrature_convergence():
    # max(0, -W) has a kink, so convergence is algebraic, not spectral:
    # successive order doublings contract and the tail deltas are ~1e-5
    t = 1 / math.sqrt(20.0)
    orders = (24, 48, 96, 192, 384, 768)
    vols = [
        negativity_volume(
            conditional_wigner_closed(10, 10, 5, t, rule=gauss_legendre_sphere(o, 2 * o))
        )
        for o in orders
    ]
    deltas = [abs(b - a) for a, b in zip(vols, vols[1:])]
    assert all(d2 < d1 for d1, d2 in zip(deltas, deltas[1:]))
    assert deltas[-1] < 1e-5


def test_heralded_peaks_offset_by_outcome():
    # measuring k_r away from N_R/2 rotates the heralded state around z
    n = 20
    peaks = {}
    for k_r in (3, 5, 7):
        _, phis, vals = display_lattice(conditional_wigner_closed(10, 10, k_r, 1 / n))
        peaks[k_r] = phis[vals[90].argmax()]
    step = 2 * math.pi / 360
    assert peaks[5] < 2 * step or peaks[5] > 2 * math.pi - 2 * step
    assert 0.1 < peaks[3] < math.pi  # displaced one way...
    assert math.pi < peaks[7] < 2 * math.pi - 0.1  # ...and the other
    assert abs(peaks[3] - (2 * math.pi - peaks[7])) < 2 * step  # symmetrically


def test_display_lattice_layout():
    grid = marginal_wigner_closed(4, 4, 0.2)
    thetas, phis, vals = display_lattice(grid)
    assert vals.shape == (181, 361)
    assert thetas[0] == 0.0 and abs(thetas[-1] - math.pi) < 1e-15
    assert phis[0] == 0.0 and abs(phis[-1] - 2 * math.pi) < 1e-15
    assert np.allclose(vals[:, 0], vals[:, -1], atol=1e-12)  # periodic seam
    small = display_lattice(grid, n_theta=19, n_phi=37)[2]
    assert small.shape == (19, 37)


# ------------------------------------------------------------ 3j table


def _sympy_3j(two_j, k, i, ip):
    # T[k, i, i'] as sympy's exact value
    from sympy import Rational
    from sympy.physics.wigner import wigner_3j as sympy_3j

    half = Rational(two_j, 2)
    return sympy_3j(half, k, half, half - i, i - ip, ip - half)


@pytest.mark.parametrize("two_j", range(13))
def test_threej_table_matches_racah_sum(two_j):
    # the Racah sum itself is off by up to 1.4e-15 at 2j = 12 against
    # sympy (the table by 2.2e-16), so the bound is 2e-15
    table = wigner._threej_table(two_j)
    j = 0.5 * two_j
    for k in range(two_j + 1):
        for i in range(two_j + 1):
            for ip in range(two_j + 1):
                m, mp = i - j, ip - j
                want = wigner_3j(j, k, j, -m, m - mp, mp) if abs(i - ip) <= k else 0.0
                assert abs(table[k, i, ip] - want) <= 2e-15, (k, i, ip)


@pytest.mark.parametrize("two_j", [20, 36, 40])
def test_threej_table_matches_exact_symbols(two_j):
    # the 15 smallest nonzero symbols (deep in the tails, where the
    # recursion is hardest) and 15 random ones, to 1e-13 relative; the
    # Racah sum misses this by 1.2e-13, 2.3e-11 and 6.5e-13
    table = wigner._threej_table(two_j)
    flat = np.flatnonzero(table)
    by_size = flat[np.argsort(np.abs(table.ravel()[flat]), kind="stable")]
    smallest = []
    for index in by_size:
        k, i, ip = map(int, np.unravel_index(index, table.shape))
        want = _sympy_3j(two_j, k, i, ip)
        if want == 0:  # an accidental zero of the symbol: roundoff only
            assert abs(table[k, i, ip]) <= 1e-15
            continue
        smallest.append((k, i, ip, float(want)))
        if len(smallest) == 15:
            break
    rng = np.random.default_rng(two_j)
    random = []
    for index in rng.choice(flat, 15, replace=False):
        k, i, ip = map(int, np.unravel_index(index, table.shape))
        random.append((k, i, ip, float(_sympy_3j(two_j, k, i, ip))))
    for k, i, ip, want in smallest + random:
        assert abs(table[k, i, ip] - want) <= 1e-13 * abs(want), (k, i, ip)


@pytest.mark.parametrize("two_j", [0, 1, 2, 7, 20, 36, 40])
def test_threej_table_normalization_and_zeros(two_j):
    table = wigner._threej_table(two_j)
    dim = two_j + 1
    k = np.arange(dim)
    weights = (2 * k + 1.0)[:, None, None]
    assert np.abs((weights * table**2).sum(axis=0) - 1.0).max() <= 1e-14
    q = np.subtract.outer(np.arange(dim), np.arange(dim))
    msum = np.add.outer(np.arange(dim), np.arange(dim)) - two_j
    outside = np.abs(q)[None] > k[:, None, None]
    odd = (msum == 0)[None] & ((two_j + k) % 2 == 1)[:, None, None]
    assert np.all(table[outside | odd] == 0.0)


def test_threej_table_makes_no_scalar_calls(monkeypatch):
    def refuse(*args):
        raise AssertionError("scalar wigner_3j called")

    monkeypatch.setattr(_oracles, "wigner_3j", refuse)
    monkeypatch.setattr(wigner, "wigner_3j", refuse, raising=False)
    wigner._threej_table.cache_clear()
    try:
        assert wigner._threej_table(36).shape == (37, 37, 37)
    finally:
        wigner._threej_table.cache_clear()


def test_threej_table_peak_memory():
    # both recursion passes write into the table (1.5 tables measured);
    # separate forward, backward and mask tables would peak above 6
    wigner._threej_table.cache_clear()
    tracemalloc.start()
    try:
        table = wigner._threej_table(40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * table.nbytes


def _multipoles_by_trace(rho, two_j):
    # one np.trace per (k, q): the reference for the gathered einsum
    dim = two_j + 1
    table = wigner._threej_table(two_j)
    signs = np.array([(-1.0) ** (two_j - i) for i in range(dim)])
    coeffs = np.zeros((dim, 2 * two_j + 1), dtype=complex)
    for k in range(dim):
        weighted = signs[:, None] * table[k] * rho
        for q in range(-k, k + 1):
            coeffs[k, q + two_j] = math.sqrt(2 * k + 1) * np.trace(weighted, offset=-q)
    return coeffs


@pytest.mark.parametrize("two_j", [0, 1, 4, 11, 36])
def test_multipoles_match_trace_loop(two_j):
    rho = _random_density(two_j + 1, two_j)
    got = wigner._multipoles(rho, two_j)
    want = _multipoles_by_trace(rho, two_j)
    assert np.abs(got - want).max() <= 1e-15
    real = wigner._multipoles(rho.real, two_j)
    assert np.abs(real - _multipoles_by_trace(rho.real, two_j)).max() <= 1e-15
