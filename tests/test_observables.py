import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqsplit.observables import (
    DensityMatrix,
    SpinLabel,
    apply_spin,
    moments,
    project_right_fock,
    reduced_density_left,
    right_outcome_distribution,
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


def test_spin_label_validation():
    with pytest.raises(ValueError):
        SpinLabel("x", "middle")
    with pytest.raises(ValueError):
        SpinLabel("w", "left")
    with pytest.raises(ValueError):
        SpinLabel("yprime", "left")  # primed axes need theta
    SpinLabel("yprime", "left", theta=0.3)


def test_apply_spin_single_atom_raise():
    psi = np.array([[1.0], [0.0]], dtype=complex)
    state = ConditionalState(1, 0, psi)
    out = apply_spin(SpinLabel("x", "left"), state)
    assert np.allclose(out, [[0.0], [1.0]])


def test_apply_spin_z_eigenvalue():
    psi = np.zeros((11, 1), dtype=complex)
    psi[7, 0] = 1.0
    state = ConditionalState(10, 0, psi)
    out = apply_spin(SpinLabel("z", "left"), state)
    assert np.allclose(out, 4.0 * psi)


@pytest.mark.parametrize("axis", ["x", "y", "z"])
@pytest.mark.parametrize("well", ["left", "right"])
def test_apply_spin_matches_dense_operators(axis, well):
    state = _random_conditional(5, 7, seed=42)
    got = apply_spin(SpinLabel(axis, well), state)
    want = _dense_apply(axis, well, state)
    assert np.allclose(got, want, atol=1e-12)


def test_apply_spin_primed_axes():
    state = _random_conditional(4, 4, seed=9)
    theta = 0.7
    sy = apply_spin(SpinLabel("y", "right"), state)
    sz = apply_spin(SpinLabel("z", "right"), state)
    yp = apply_spin(SpinLabel("yprime", "right", theta), state)
    zp = apply_spin(SpinLabel("zprime", "right", theta), state)
    c, s = math.cos(theta), math.sin(theta)
    assert np.allclose(yp, c * sy - s * sz, atol=1e-13)
    assert np.allclose(zp, s * sy + c * sz, atol=1e-13)


def test_commutator_identity_on_random_states():
    # <[S^x, S^y]> = 2i <S^z> within each well
    for seed in range(4):
        state = _random_conditional(6, 5, seed=seed)
        for well in ("left", "right"):
            x_img = apply_spin(SpinLabel("x", well), state)
            y_img = apply_spin(SpinLabel("y", well), state)
            z_img = apply_spin(SpinLabel("z", well), state)
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
    labels = [SpinLabel(a, w) for w in ("left", "right") for a in ("x", "y", "z")]
    for i, label in enumerate(labels):
        img = apply_spin(label, state)
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
    both = moments(state, theta=theta)
    assert np.allclose(rot.V, both.V, atol=1e-13)
    assert np.allclose(rot.means, both.means, atol=1e-13)
    # rotated variance agrees with directly applying the primed operator
    zp = apply_spin(SpinLabel("zprime", "left", theta), state)
    raw = np.vdot(zp, zp).real
    mean = np.vdot(state.psi, zp).real
    assert abs(rot.V[2, 2] - (raw - mean * mean)) < 1e-10
    assert abs(rot.means[2] - mean) < 1e-12


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
    state = effective_evolution(6, 10, 0.27)
    dist = right_outcome_distribution(state)
    assert abs(dist.sum() - 1.0) < 1e-12
    assert dist.argmax() == 5
    flat = right_outcome_distribution(effective_evolution(6, 10, 0.0))
    assert np.allclose(dist, flat, atol=1e-13)
    # projection probabilities reproduce the distribution exactly
    probs = [project_right_fock(state, k)[0] for k in range(11)]
    assert np.allclose(dist, probs, atol=1e-15)
