import math

import numpy as np
import pytest
from scipy.special import lpmv, sph_harm_y

from sqsplit._oracles import wigner_3j
from sqsplit.specfun import (
    QuadratureRule,
    _log_facts,
    gauss_legendre_sphere,
    legendre_table,
    log_binomial,
)


def _harmonic(k, q, theta, phi):
    """Orthonormal Y_kq(theta, phi) (Condon-Shortley) read from
    legendre_table as wigner._evaluate sums it: P[k, |q|] exp(i q phi),
    times (-1)^q for q < 0."""
    lam = legendre_table(k, np.cos(theta))[k, abs(q), 0]
    sign = (-1.0) ** q if q < 0 else 1.0
    return sign * lam * complex(np.exp(1j * q * phi))


def test_log_factorial_matches_lgamma():
    # the log(n!) table every log_binomial reads, growing on demand
    ns = np.array([0, 1, 2, 5, 17, 63, 64, 65, 200, 801])
    vals = _log_facts(int(ns.max()))[ns]
    for n, v in zip(ns, vals):
        assert abs(v - math.lgamma(n + 1)) <= 1e-12 * max(1.0, abs(v))
    # a scalar index gives a float
    assert isinstance(_log_facts(7)[7], float)
    assert _log_facts(0)[0] == 0.0


def test_log_factorial_rejects_negative():
    # the table is read only through log_binomial, which refuses n < 0
    with pytest.raises(ValueError):
        log_binomial(-1, 0)
    with pytest.raises(ValueError):
        log_binomial(np.array([3, -2]), 0)


def test_log_binomial_exact_integers():
    # exp(log C(n,k)) must reproduce the exact integer for all n <= 60
    for n in range(61):
        for k in range(n + 1):
            exact = math.comb(n, k)
            assert abs(math.exp(log_binomial(n, k)) - exact) <= 1e-12 * exact


def test_log_binomial_examples():
    assert abs(log_binomial(10, 5) - math.log(252)) < 1e-12
    for n in (0, 3, 41):
        assert log_binomial(n, 0) == 0.0
    assert log_binomial(5, 6) == -math.inf
    assert log_binomial(5, -1) == -math.inf


def test_log_binomial_broadcasts():
    n = np.array([[4], [6]])
    k = np.arange(8)
    out = log_binomial(n, k)
    assert out.shape == (2, 8)
    assert np.isneginf(out[0, 5])
    assert abs(out[1, 3] - math.log(20)) < 1e-12
    with pytest.raises(ValueError):
        log_binomial(-2, 1)


def test_log_binomial_large_arguments():
    # C(500, 250) overflows float64; the log form must not
    val = log_binomial(500, 250)
    assert abs(val - (math.lgamma(501) - 2 * math.lgamma(251))) < 1e-9


# ---------------------------------------------------------------------------
# Wigner 3j


def test_wigner_3j_closed_form_column():
    # (j 0 j; -m 0 m) = (-1)^(j-m) / sqrt(2j+1)
    for two_j in range(0, 41):
        j = two_j / 2.0
        for two_m in range(-two_j, two_j + 1, 2):
            m = two_m / 2.0
            got = wigner_3j(j, 0, j, -m, 0, m)
            want = (-1.0) ** round(j - m) / math.sqrt(2 * j + 1)
            assert abs(got - want) < 1e-12


def test_wigner_3j_exact_zeros():
    assert wigner_3j(1, 1, 1, 0, 0, 0) == 0.0
    assert wigner_3j(1, 2, 4, 0, 0, 0) == 0.0  # triangle violated
    assert wigner_3j(1, 1, 1, 1, 1, 1) == 0.0  # m sum nonzero
    assert wigner_3j(2, 2, 3, 2, 2, -3) == 0.0


def test_wigner_3j_rejects_malformed_half_integers():
    with pytest.raises(ValueError):
        wigner_3j(1, 0.5, 0.5, 0.5, 0, -0.5)  # j1 + m1 not an integer
    with pytest.raises(ValueError):
        wigner_3j(0.3, 1, 1, 0.3, 0, -0.3)
    with pytest.raises(ValueError):
        wigner_3j(-1, 1, 1, 0, 0, 0)


def test_wigner_3j_against_exact_rational_oracle():
    """Random valid symbols up to j = 6 against sympy's exact evaluation."""
    from sympy.physics.wigner import wigner_3j as sympy_3j
    from sympy import Rational

    rng = np.random.default_rng(20240817)
    checked = 0
    while checked < 150:
        tj1 = int(rng.integers(0, 13))
        tj2 = int(rng.integers(0, 13))
        lo, hi = abs(tj1 - tj2), tj1 + tj2
        if hi < lo:
            continue
        tj3 = int(rng.integers(lo // 2, hi // 2 + 1)) * 2 + (lo % 2)
        if tj3 < lo or tj3 > hi:
            continue
        tm1 = int(rng.integers(-tj1 // 2, tj1 // 2 + 1)) * 2 + tj1 % 2
        tm2 = int(rng.integers(-tj2 // 2, tj2 // 2 + 1)) * 2 + tj2 % 2
        if abs(tm1) > tj1 or abs(tm2) > tj2 or abs(tm1 + tm2) > tj3:
            continue
        args = [Rational(x, 2) for x in (tj1, tj2, tj3, tm1, tm2, -tm1 - tm2)]
        want = float(sympy_3j(*args))
        got = wigner_3j(tj1 / 2, tj2 / 2, tj3 / 2, tm1 / 2, tm2 / 2, (-tm1 - tm2) / 2)
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want)) + 1e-14
        checked += 1


def test_wigner_3j_orthogonality():
    # (2 j3 + 1) * sum over m1 of [3j]^2 = 1 for every valid triangle and
    # every m3 (m2 is fixed by the column-sum rule)
    for j1 in range(5):
        for j2 in range(5):
            for j3 in range(abs(j1 - j2), j1 + j2 + 1):
                for m3 in range(-j3, j3 + 1):
                    total = 0.0
                    for m1 in range(-j1, j1 + 1):
                        m2 = -m3 - m1
                        if abs(m2) > j2:
                            continue
                        total += (2 * j3 + 1) * wigner_3j(j1, j2, j3, m1, m2, m3) ** 2
                    assert abs(total - 1.0) < 1e-10


def test_wigner_3j_column_permutations():
    # even permutations leave the symbol alone, odd ones pick up (-1)^(j1+j2+j3)
    for j1 in range(3):
        for j2 in range(3):
            for j3 in range(abs(j1 - j2), min(j1 + j2, 2) + 1):
                for m1 in range(-j1, j1 + 1):
                    for m2 in range(-j2, j2 + 1):
                        m3 = -m1 - m2
                        if abs(m3) > j3:
                            continue
                        base = wigner_3j(j1, j2, j3, m1, m2, m3)
                        even = wigner_3j(j2, j3, j1, m2, m3, m1)
                        odd = wigner_3j(j2, j1, j3, m2, m1, m3)
                        sign = (-1.0) ** (j1 + j2 + j3)
                        assert abs(even - base) < 1e-13
                        assert abs(odd - sign * base) < 1e-13


def test_wigner_3j_large_j_does_not_overflow():
    got = wigner_3j(200, 0, 200, -37, 0, 37)
    want = (-1.0) ** (200 - 37) / math.sqrt(401)
    assert abs(got - want) < 1e-12
    assert np.isfinite(wigner_3j(180, 120, 200, 10, -30, 20))


# ---------------------------------------------------------------------------
# spherical harmonics


def test_legendre_table_matches_scipy_lpmv():
    rng = np.random.default_rng(7)
    x = rng.uniform(-1.0, 1.0, size=9)
    k_max = 25
    table = legendre_table(k_max, x)
    assert table.shape == (k_max + 1, k_max + 1, x.size)
    for k in range(k_max + 1):
        for q in range(k + 1):
            norm = math.exp(
                0.5
                * (
                    math.log((2 * k + 1) / (4 * math.pi))
                    + math.lgamma(k - q + 1)
                    - math.lgamma(k + q + 1)
                )
            )
            want = norm * lpmv(q, k, x)
            assert np.allclose(table[k, q], want, atol=1e-10)
    # entries above the diagonal stay zero
    assert np.all(table[2, 3] == 0.0)


def _legendre_table_scalar_steps(k_max, x):
    # one scalar (k, q) recurrence step at a time: the reference the
    # vectorised table must match bit for bit
    x = np.atleast_1d(np.asarray(x, dtype=float))
    s = np.sqrt(np.clip(1.0 - x * x, 0.0, None))
    p = np.zeros((k_max + 1, k_max + 1, x.size))
    p[0, 0] = math.exp(0.5 * (math.log(1.0 / (4.0 * math.pi))))
    with np.errstate(divide="ignore"):
        log_s = np.log(s)
    for q in range(1, k_max + 1):
        lc = 0.5 * (
            math.log((2 * q + 1) / (4.0 * math.pi))
            + log_binomial(2 * q, q)
            - 2 * q * math.log(2.0)
        )
        sign = -1.0 if q % 2 else 1.0
        p[q, q] = sign * np.exp(lc + q * log_s)
    for q in range(0, k_max):
        p[q + 1, q] = math.sqrt(2 * q + 3) * x * p[q, q]
    for q in range(0, k_max + 1):
        for k in range(q + 2, k_max + 1):
            a = math.sqrt((4 * k * k - 1.0) / (k * k - q * q))
            b = math.sqrt(
                (2 * k + 1.0)
                * (k + q - 1.0)
                * (k - q - 1.0)
                / ((2 * k - 3.0) * (k * k - q * q))
            )
            p[k, q] = a * x * p[k - 1, q] - b * p[k - 2, q]
    return p


@pytest.mark.parametrize("k_max", [0, 1, 5, 36, 40])
def test_legendre_table_equals_scalar_steps(k_max):
    rng = np.random.default_rng(k_max)
    nodes = np.cos(np.linspace(0.0, math.pi, 181))
    x = np.concatenate(([-1.0, 1.0, 0.0], nodes, rng.uniform(-1.0, 1.0, 20)))
    for points in (x, 0.3):
        want = _legendre_table_scalar_steps(k_max, points)
        assert np.array_equal(legendre_table(k_max, points), want)


def test_spherical_harmonic_values():
    assert abs(_harmonic(0, 0, 1.1, 2.2) - 1 / math.sqrt(4 * math.pi)) < 1e-14
    assert abs(_harmonic(1, 0, 0.0, 0.3) - math.sqrt(3 / (4 * math.pi))) < 1e-14


def test_spherical_harmonic_matches_scipy():
    rng = np.random.default_rng(11)
    for _ in range(60):
        k = int(rng.integers(0, 21))
        q = int(rng.integers(-k, k + 1))
        theta = float(rng.uniform(0.0, math.pi))
        phi = float(rng.uniform(0.0, 2 * math.pi))
        got = _harmonic(k, q, theta, phi)
        want = complex(sph_harm_y(k, q, theta, phi))
        assert abs(got - want) < 1e-12


def test_spherical_harmonic_conjugation():
    rng = np.random.default_rng(13)
    for _ in range(30):
        k = int(rng.integers(0, 15))
        q = int(rng.integers(-k, k + 1))
        theta = float(rng.uniform(0.0, math.pi))
        phi = float(rng.uniform(0.0, 2 * math.pi))
        lhs = _harmonic(k, -q, theta, phi)
        rhs = (-1.0) ** q * np.conj(_harmonic(k, q, theta, phi))
        assert abs(lhs - rhs) < 1e-13


def test_spherical_harmonic_addition_theorem():
    # sum_q |Y_kq|^2 = (2k+1)/(4 pi) at any point
    rng = np.random.default_rng(17)
    for k in range(21):
        theta = float(rng.uniform(0.0, math.pi))
        phi = float(rng.uniform(0.0, 2 * math.pi))
        total = sum(
            abs(_harmonic(k, q, theta, phi)) ** 2 for q in range(-k, k + 1)
        )
        assert abs(total - (2 * k + 1) / (4 * math.pi)) < 1e-10


# ---------------------------------------------------------------------------
# sphere quadrature


def _integrate(rule, fn):
    total = 0.0
    thetas = rule.thetas
    for w, theta in zip(rule.weights, thetas):
        for phi in rule.phis:
            total += w * rule.phi_weight * fn(theta, phi)
    return total


def test_quadrature_total_solid_angle():
    rule = gauss_legendre_sphere(6, 10)
    area = _integrate(rule, lambda th, ph: 1.0)
    assert abs(area - 4 * math.pi) < 1e-12
    assert rule.nodes_costheta.size == 6
    assert np.all(rule.weights > 0)


def test_quadrature_harmonic_integrals():
    rule = gauss_legendre_sphere(4, 8)
    y00 = _integrate(rule, lambda th, ph: _harmonic(0, 0, th, ph))
    assert abs(y00 - math.sqrt(4 * math.pi)) < 1e-12
    y21 = _integrate(rule, lambda th, ph: _harmonic(2, 1, th, ph))
    assert abs(y21) < 1e-12
    y21sq = _integrate(rule, lambda th, ph: abs(_harmonic(2, 1, th, ph)) ** 2)
    assert abs(y21sq - 1.0) < 1e-12


def test_quadrature_orthonormality_block():
    """Gram matrix of Y_kq for k <= 5 comes out as the identity."""
    rule = gauss_legendre_sphere(8, 16)
    pairs = [(k, q) for k in range(6) for q in range(-k, k + 1)]
    gram = np.zeros((len(pairs), len(pairs)), dtype=complex)
    values = np.array(
        [
            [
                _harmonic(k, q, theta, phi)
                for theta in rule.thetas
                for phi in rule.phis
            ]
            for (k, q) in pairs
        ]
    )
    w = np.repeat(rule.weights, rule.phi_count) * rule.phi_weight
    gram = (values * w) @ values.conj().T
    assert np.allclose(gram, np.eye(len(pairs)), atol=1e-12)


def test_quadrature_rule_validation():
    with pytest.raises(ValueError):
        gauss_legendre_sphere(0, 8)
    with pytest.raises(ValueError):
        QuadratureRule(np.array([0.0]), np.array([1.7]), 4)
    with pytest.raises(ValueError):
        QuadratureRule(np.array([0.0]), np.array([2.0]), 0)
    # nodes are cos(theta): one per weight, in [-1, 1] (NaN and inf are
    # in tests/test_validators.py)
    with pytest.raises(ValueError, match="node"):
        QuadratureRule(np.array([-1.5, 0.5]), np.array([1.0, 1.0]), 4)
    with pytest.raises(ValueError, match="node"):
        QuadratureRule(np.array([0.0]), np.array([1.0, 1.0]), 4)
    with pytest.raises(ValueError, match="node"):
        QuadratureRule(np.array([[0.0, 0.5]]), np.array([[1.0, 1.0]]), 4)
    assert QuadratureRule([-1.0, 1.0], [1.0, 1.0], 4).thetas.tolist() == [math.pi, 0.0]

