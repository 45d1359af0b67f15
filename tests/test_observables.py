import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqsplit.observables import (
    DensityMatrix,
    MomentSet,
    _apply_component,
    moments,
    project_right_fock,
    reduced_density_left,
    rotate_moments,
)
from sqsplit.statekit import (
    ConditionalState,
    SplitMixedState,
    StateVector,
    effective_evolution,
    mixed_split_state,
    one_axis_twist,
    project_left_number,
    spin_coherent,
    split,
    twisted_split,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _dense_ops(n):
    """Dense single-well spin matrices; the oracle the stencils must match."""
    k = np.arange(n)
    up = np.zeros((n + 1, n + 1), dtype=complex)
    up[k + 1, k] = np.sqrt((k + 1.0) * (n - k))
    sx = up + up.conj().T
    sy = -1j * up + 1j * up.conj().T
    sz = np.diag(2.0 * np.arange(n + 1) - n).astype(complex)
    return {"x": sx, "y": sy, "z": sz}


def _dense_apply(axis, well, state):
    ops = _dense_ops(state.n_left if well == "left" else state.n_right)
    if well == "left":
        return ops[axis] @ state.psi
    return state.psi @ ops[axis].T


def _random_conditional(n_left, n_right, seed):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=(n_left + 1, n_right + 1)) + 1j * rng.normal(
        size=(n_left + 1, n_right + 1)
    )
    psi /= np.linalg.norm(psi)
    return ConditionalState(n_left, n_right, psi)


def _apply(axis, well, state):
    """The stencil image of one spin component, as moments() forms it."""
    return _apply_component(state.psi, axis, well, state.n_left, state.n_right)


def test_apply_spin_single_atom_raise():
    psi = np.array([[1.0], [0.0]], dtype=complex)
    state = ConditionalState(1, 0, psi)
    out = _apply("x", "left", state)
    assert np.allclose(out, [[0.0], [1.0]])


def test_apply_spin_z_eigenvalue():
    psi = np.zeros((11, 1), dtype=complex)
    psi[7, 0] = 1.0
    state = ConditionalState(10, 0, psi)
    out = _apply("z", "left", state)
    assert np.allclose(out, 4.0 * psi)


@pytest.mark.parametrize("axis", ["x", "y", "z"])
@pytest.mark.parametrize("well", ["left", "right"])
def test_apply_spin_matches_dense_operators(axis, well):
    state = _random_conditional(5, 7, seed=42)
    got = _apply(axis, well, state)
    want = _dense_apply(axis, well, state)
    assert np.allclose(got, want, atol=1e-12)


def test_commutator_identity_on_random_states():
    # <[S^x, S^y]> = 2i <S^z> within each well
    for seed in range(4):
        state = _random_conditional(6, 5, seed=seed)
        for well in ("left", "right"):
            x_img = _apply("x", well, state)
            y_img = _apply("y", well, state)
            z_img = _apply("z", well, state)
            wrap = lambda m: types.SimpleNamespace(psi=m, n_left=6, n_right=5)
            xy = _dense_apply("x", well, wrap(y_img))
            yx = _dense_apply("y", well, wrap(x_img))
            lhs = np.vdot(state.psi, xy - yx)
            rhs = 2j * np.vdot(state.psi, z_img)
            assert abs(lhs - rhs) < 1e-10


def test_moments_coherent_product():
    ms = moments(effective_evolution(5, 5, 0.0))
    assert np.allclose(ms.means, [5, 0, 0, 5, 0, 0], atol=1e-12)
    for i in (1, 2, 4, 5):  # y and z variances of a coherent well equal N_i
        assert abs(ms.V[i, i] - 5.0) < 1e-12
    assert abs(ms.V[0, 0]) < 1e-12  # fully polarized: S^x eigenstate, zero variance
    assert np.allclose(ms.Omega[0, 1], 2 * ms.means[2], atol=1e-12)


def test_moments_omega_structure():
    state = effective_evolution(4, 6, 0.13)
    ms = moments(state)
    assert np.allclose(ms.V, ms.V.T, atol=1e-14)
    assert np.all(np.diag(ms.V) >= -1e-14)
    assert np.allclose(ms.Omega, -ms.Omega.T, atol=1e-14)
    # cross-well commutators vanish identically
    assert np.all(ms.Omega[:3, 3:] == 0.0)
    assert np.all(ms.Omega[3:, :3] == 0.0)
    # [S^x,S^y] = 2i S^z and cyclic, per well
    for base, idx in ((0, (0, 1, 2)), (3, (3, 4, 5))):
        x, y, z = idx
        assert abs(ms.Omega[x, y] - 2 * ms.means[z]) < 1e-10
        assert abs(ms.Omega[y, z] - 2 * ms.means[x]) < 1e-10
        assert abs(ms.Omega[x, z] + 2 * ms.means[y]) < 1e-10


def test_variance_consistency_with_double_application():
    state = effective_evolution(5, 6, 0.21)
    ms = moments(state)
    labels = [(a, w) for w in ("left", "right") for a in ("x", "y", "z")]
    for i, (axis, well) in enumerate(labels):
        img = _apply(axis, well, state)
        raw = np.vdot(img, img).real  # <A psi | A psi> = <A^2>
        mean = np.vdot(state.psi, img).real
        assert abs(ms.V[i, i] - (raw - mean * mean)) < 1e-10


def test_mixture_moments_match_dense_average():
    n, t = 8, 0.23
    mix = mixed_split_state(n, t, window=0.0)
    agg_raw = np.zeros((6, 6), dtype=complex)
    agg_means = np.zeros(6)
    for weight, block in mix.blocks:
        vecs = [block.psi.ravel()]
        for well in ("left", "right"):
            for axis in ("x", "y", "z"):
                vecs.append(_dense_apply(axis, well, block).ravel())
        stack = np.array(vecs)
        gram = stack.conj() @ stack.T
        agg_means += weight * gram[0, 1:].real
        agg_raw += weight * gram[1:, 1:]
    v = agg_raw.real - np.outer(agg_means, agg_means)
    ms = moments(mix)
    assert np.allclose(ms.means, agg_means, atol=1e-11)
    assert np.allclose(ms.V, 0.5 * (v + v.T), atol=1e-10)
    assert np.allclose(ms.Omega[:3, :3], 2.0 * agg_raw[:3, :3].imag, atol=1e-10)


def test_mixture_moments_ignore_block_memory_layout():
    # the second block is a flipped, transposed view of the first one's
    # amplitudes: its moments are its own, not the first's with the
    # wells relabeled
    a = effective_evolution(2, 4, 0.17)
    view = ConditionalState(4, 2, a.psi.T[::-1])
    copy = ConditionalState(4, 2, view.psi.copy())
    got = moments(SplitMixedState(6, [(0.5, a), (0.5, view)]))
    want = moments(SplitMixedState(6, [(0.5, a), (0.5, copy)]))
    for x, y in ((got.means, want.means), (got.V, want.V), (got.Omega, want.Omega)):
        assert np.array_equal(x, y)


def _assert_moments_agree(got, want):
    assert got.n_total == want.n_total
    tol = 1e-9 * max(1.0, float(np.abs(want.V).max()))
    for a, b in ((got.means, want.means), (got.V, want.V), (got.Omega, want.Omega)):
        assert np.abs(a - b).max() <= tol


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(0, 60), t=st.floats(0.0, math.pi / 4))
def test_split_moments_match_sector_mixture(n, t):
    # S_L and S_R conserve N_L, so the untruncated number-collapsed
    # mixture has the moments of the split state itself
    twisted = one_axis_twist(spin_coherent(INV_SQRT2, INV_SQRT2, n), t)
    full = split(twisted)
    assert full.source is twisted
    _assert_moments_agree(moments(full), moments(mixed_split_state(n, t, window=0.0)))


def test_split_moments_of_random_states_match_projected_sectors():
    # the beam-splitter map holds for any input state, not only twisted
    # coherent ones; the reference projects the split state on every N_L
    rng = np.random.default_rng(7)
    for n in range(13):
        for _ in range(3):
            amps = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
            full = split(StateVector(n, amps / np.linalg.norm(amps)))
            blocks = [project_left_number(full, l) for l in range(n + 1)]
            _assert_moments_agree(moments(full), moments(SplitMixedState(n, blocks)))


def _max_moment_gap(got, want):
    return max(
        float(np.abs(a - b).max())
        for a, b in ((got.means, want.means), (got.V, want.V), (got.Omega, want.Omega))
    )


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(n=st.integers(0, 60), t=st.floats(0.0, math.pi / 4))
def test_twisted_split_closed_form_matches_split_amplitudes(n, t):
    # the O(N) route through the source amplitudes is the oracle of the
    # closed-form moments
    got = moments(twisted_split(n, t))
    want = moments(split(one_axis_twist(spin_coherent(INV_SQRT2, INV_SQRT2, n), t)))
    assert got.n_total == want.n_total == n
    assert _max_moment_gap(got, want) <= 1e-12 * float(np.abs(want.V).max())


def _mp_twisted_split_moments(n, t):
    """Means, V and Omega of twisted_split(n, t) from the Kitagawa-Ueda
    moments and the vacuum-port map, in 40-digit arithmetic at the
    float t itself."""
    import mpmath

    with mpmath.workdps(40):
        t = mpmath.mpf(t)
        s4, c4, c8 = mpmath.sin(4 * t), mpmath.cos(4 * t), mpmath.cos(8 * t)
        pair = mpmath.mpf(n) * (n - 1) / 2
        a = pair * (c8 ** (n - 2) - 1)
        c = mpmath.zeros(3, 3)
        c[0, 0] = a - mpmath.mpf(n) ** 2 * (c4 ** (2 * n - 2) - 1)
        c[1, 1] = n - a
        c[1, 2] = c[2, 1] = -2 * pair * s4 * c4 ** (n - 2)
        c[2, 2] = n
        mean_x = n * c4 ** (n - 1)
        v = np.zeros((6, 6))
        for i in range(3):
            for j in range(3):
                eye = n if i == j else 0
                v[i, j] = v[i + 3, j + 3] = float((c[i, j] + eye) / 4)
                v[i, j + 3] = v[i + 3, j] = float((c[i, j] - eye) / 4)
        half = float(mean_x / 2)
        omega3 = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, float(mean_x)], [0.0, -float(mean_x), 0.0]])
    omega = np.zeros((6, 6))
    omega[:3, :3] = omega[3:, 3:] = omega3
    return MomentSet(n, np.array([half, 0.0, 0.0, half, 0.0, 0.0]), v, omega)


@pytest.mark.parametrize("n", [500, 2000, 10**4])
@pytest.mark.parametrize("t", [0.0, 1e-4, 1e-3, 0.0123, 0.3])
def test_twisted_split_closed_form_against_40_digit_reference(n, t):
    # a plain cos(4t)**(n - 1) form is 4.8e-12 (N = 500) to 2.2e-10
    # (N = 1e4) off; the log1p/expm1 form is within a few ulp
    want = _mp_twisted_split_moments(n, t)
    got = moments(twisted_split(n, t))
    assert _max_moment_gap(got, want) <= 1e-14 * float(np.abs(want.V).max())


def test_twisted_split_zero_time_is_the_exact_coherent_product():
    ms = moments(twisted_split(500, 0.0))
    local = np.diag([125.0, 250.0, 250.0])
    cross = np.diag([-125.0, 0.0, 0.0])
    assert np.array_equal(ms.V, np.block([[local, cross], [cross, local]]))
    assert np.array_equal(ms.means, [250.0, 0.0, 0.0, 250.0, 0.0, 0.0])


def _tiled_vacuum_port(n, m, c):
    """The vacuum-port map in numpy form: tiled blocks plus N/4 times
    [[I, -I], [-I, I]], and eps_ijk m_k written into both wells."""
    port = np.kron([[1.0, -1.0], [-1.0, 1.0]], np.eye(3))
    omega = np.zeros((6, 6))
    omega[:3, :3] = omega[3:, 3:] = [
        [0.0, m[2], -m[1]], [-m[2], 0.0, m[0]], [m[1], -m[0], 0.0]
    ]
    return np.tile(0.5 * m, 2), np.tile(0.25 * c, (2, 2)) + (0.25 * n) * port, omega


def test_split_moments_are_bit_for_bit_the_tiled_form():
    from sqsplit.observables import _twist_moments, _vacuum_port

    rng = np.random.default_rng(19)
    cases = [(n, *_twist_moments(n, t)) for n in (0, 1, 2, 3, 500, 10**5)
             for t in (0.0, 1e-4, 0.0123, 0.3, math.pi / 8)]
    for k in range(60):
        a = rng.normal(size=(3, 3))
        c = a + a.T
        # signed zeros on and off the diagonal, and N = 0 where N/4 is 0.0
        c[0, 1] = c[1, 0] = c[k % 3, k % 3] = -0.0
        cases.append(((0, 1, 424)[k % 3], rng.normal(size=3) * [1, 0, 1], c))
    for n, m, c in cases:
        got = _vacuum_port(n, m, c)
        for a, b in zip((got.means, got.V, got.Omega), _tiled_vacuum_port(n, m, c)):
            assert a.shape == b.shape and a.dtype == b.dtype
            assert a.tobytes() == b.tobytes(), (n, m, c)


def test_quadrature_pair_variance_polynomial():
    """Short-time growth of the squeezed quadrature pair at N = 500.

    Var(S_L^y + S_R^z) + Var(S_R^y + S_L^z) = 2N(4N^2 t^2 - 2Nt + 1)
    to leading order for Nt << 1.
    """
    n = 500
    for nt in (0.05, 0.1, 0.2):
        t = nt / n
        ms = moments(mixed_split_state(n, t))
        v = ms.V
        pair = v[1, 1] + v[5, 5] + 2 * v[1, 5] + v[4, 4] + v[2, 2] + 2 * v[4, 2]
        poly = 2 * n * (4 * n * n * t * t - 2 * n * t + 1)
        assert abs(pair - poly) <= 0.05 * abs(poly), (nt, pair, poly)


def test_rotate_moments_congruence():
    state = effective_evolution(6, 6, 0.11)
    ms = moments(state)
    theta = 0.83
    rot = rotate_moments(ms, theta)
    # rotated variances agree with directly applying the primed operators
    # y' = cos(theta) y - sin(theta) z and z' = sin(theta) y + cos(theta) z
    c, s = math.cos(theta), math.sin(theta)
    sy, sz = _apply("y", "left", state), _apply("z", "left", state)
    for i, primed in ((1, c * sy - s * sz), (2, s * sy + c * sz)):
        raw = np.vdot(primed, primed).real
        mean = np.vdot(state.psi, primed).real
        assert abs(rot.V[i, i] - (raw - mean * mean)) < 1e-10
        assert abs(rot.means[i] - mean) < 1e-12


def _random_moment_set(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(6, 6))
    return MomentSet(6, rng.normal(size=6), a + a.T, a - a.T)


@pytest.mark.parametrize("theta", [0.0, 0.3, math.pi / 4, 0.83, 1.4, -0.6, 2.9])
def test_rotate_moments_is_the_congruence_r_m_rt(theta):
    ms = _random_moment_set(11)
    c, s = math.cos(theta), math.sin(theta)
    r3 = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    r = np.kron(np.eye(2), r3)
    rot = rotate_moments(ms, theta)
    assert np.abs(rot.means - r @ ms.means).max() <= 1e-14
    assert np.abs(rot.V - r @ ms.V @ r.T).max() <= 1e-14 * np.abs(ms.V).max()
    assert np.abs(rot.Omega - r @ ms.Omega @ r.T).max() <= 1e-14 * np.abs(ms.Omega).max()
    # symmetry and antisymmetry survive exactly
    assert np.array_equal(rot.V, rot.V.T)
    assert np.array_equal(rot.Omega, -rot.Omega.T)


@pytest.mark.parametrize("theta", [math.pi / 4, 0.1, 1.3, 0.7853981633974484])
def test_rotate_moments_keeps_isotropic_blocks_exact(theta):
    # r @ V @ r.T would turn 250 into 249.99999999999997; an isotropic
    # (y, z) block and an antisymmetric one must come back bit for bit
    ms = moments(twisted_split(500, 0.0))
    rot = rotate_moments(ms, theta)
    assert np.array_equal(rot.V, ms.V)
    assert np.array_equal(rot.Omega, ms.Omega)
    assert np.array_equal(rot.means, ms.means)


def test_moments_rejects_other_types():
    with pytest.raises(TypeError):
        moments(np.zeros(3))


def test_reduced_density_left_basics():
    cond = effective_evolution(4, 6, 0.0)
    rho = reduced_density_left(cond)
    coh = spin_coherent(INV_SQRT2, INV_SQRT2, 4).amplitudes
    assert np.allclose(rho.entries, np.outer(coh, coh.conj()), atol=1e-13)
    assert rho.dim == 5
    twisted = reduced_density_left(effective_evolution(4, 6, 0.2))
    assert abs(np.trace(twisted.entries).real - 1.0) < 1e-12
    eigs = np.linalg.eigvalsh(twisted.entries)
    assert np.all(eigs >= -1e-12)
    assert np.all(eigs <= 1.0 + 1e-12)


def test_reduced_density_purity_period():
    # the sector phases factor into local flips at every quarter of the
    # twisting revival, so purity returns to 1 at t = zero mod pi/4
    for n_left, n_right in ((4, 6), (5, 5), (3, 4)):
        for t, pure in ((0.0, True), (math.pi / 4, True), (math.pi / 2, True),
                        (0.11, False), (math.pi / 8, False)):
            rho = reduced_density_left(effective_evolution(n_left, n_right, t)).entries
            purity = float(np.trace(rho @ rho).real)
            assert purity <= 1.0 + 1e-12
            if pure:
                assert abs(purity - 1.0) < 1e-10, (n_left, n_right, t)
            else:
                assert purity < 1.0 - 1e-3, (n_left, n_right, t)


def test_reduced_density_cat_mixture():
    # even wells at t = pi/8: tracing the right well leaves an equal
    # mixture of the two antipodal coherent projectors
    rho = reduced_density_left(effective_evolution(4, 6, math.pi / 8)).entries
    plus = spin_coherent(INV_SQRT2, INV_SQRT2, 4).amplitudes
    minus = spin_coherent(-INV_SQRT2, INV_SQRT2, 4).amplitudes
    want = 0.5 * (np.outer(plus, plus.conj()) + np.outer(minus, minus.conj()))
    assert np.allclose(rho, want, atol=1e-12)


def test_density_matrix_guards():
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.5, 0.1], [0.3, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.5, -0.5]))  # negative eigenvalue
    with pytest.raises(ValueError):
        DensityMatrix(np.ones((2, 3)))


def test_project_right_fock_probability_law():
    for t in (0.0, 0.3):
        state = effective_evolution(5, 7, t)
        for k_r in range(8):
            p, _ = project_right_fock(state, k_r)
            assert abs(p - math.comb(7, k_r) / 2**7) < 1e-13


def test_project_right_fock_zero_time():
    state = effective_evolution(3, 5, 0.0)
    _, left = project_right_fock(state, 2)
    coh = spin_coherent(INV_SQRT2, INV_SQRT2, 3).amplitudes
    assert np.allclose(left.amplitudes, coh, atol=1e-13)


def test_project_right_fock_closed_form():
    """Collapsed left state = twisted, imbalance-rotated coherent state."""
    for n_left, n_right in ((5, 7), (6, 6), (4, 8)):
        t = 0.19
        state = effective_evolution(n_left, n_right, t)
        for k_r in range(n_right + 1):
            _, left = project_right_fock(state, k_r)
            rot = 2.0 * (2 * k_r - n_right) * t
            ref = one_axis_twist(
                spin_coherent(
                    np.exp(1j * rot) * INV_SQRT2, np.exp(-1j * rot) * INV_SQRT2, n_left
                ),
                t,
            )
            overlap = np.vdot(ref.amplitudes, left.amplitudes)
            assert abs(abs(overlap) - 1.0) < 1e-12, (n_left, n_right, k_r)


def test_project_right_fock_errors():
    state = effective_evolution(2, 3, 0.1)
    with pytest.raises(ValueError):
        project_right_fock(state, 4)
    psi = np.zeros((2, 2), dtype=complex)
    psi[0, 0] = psi[1, 0] = INV_SQRT2
    dead_column = ConditionalState(1, 1, psi)
    with pytest.raises(ValueError):
        project_right_fock(dead_column, 1)


def test_right_outcome_distribution():
    # the right-well outcome law is the column mass of the amplitudes,
    # C(N_R, k_r) / 2^N_R at every t
    state = effective_evolution(6, 10, 0.27)
    dist = (np.abs(state.psi) ** 2).sum(axis=0)
    assert abs(dist.sum() - 1.0) < 1e-12
    assert dist.argmax() == 5
    flat = (np.abs(effective_evolution(6, 10, 0.0).psi) ** 2).sum(axis=0)
    assert np.allclose(dist, flat, atol=1e-13)
    # projection probabilities reproduce the distribution exactly
    probs = [project_right_fock(state, k)[0] for k in range(11)]
    assert np.allclose(dist, probs, atol=1e-15)
