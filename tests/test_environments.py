from fractions import Fraction

import numpy as np
import pytest

from conftest import random_thermal_env
from cvrelay import environments as envs
from cvrelay import gaussian as g
from cvrelay.environments import AdditiveEnvironment, ThermalEnvironment
from cvrelay.gaussian import ValidationError
from cvrelay.protocols import SwapInput, evolved_cm


def test_thermal_env_cm_trivial_cases():
    assert np.array_equal(
        envs.thermal_env_cm(ThermalEnvironment(0.9, 1.0, 0.0, 0.0)).m, np.eye(4)
    )
    # entanglement-breaking working point used throughout: omega = 1.02 * 19
    m = envs.thermal_env_cm(ThermalEnvironment(0.9, 19.38, 0.0, 0.0)).m
    assert np.array_equal(m, 19.38 * np.eye(4))


def test_bona_fide_rejections():
    with pytest.raises(ValidationError):
        ThermalEnvironment(0.9, 3.0, 3.0, 0.0)  # g = omega
    with pytest.raises(ValidationError, match="bona-fide"):
        ThermalEnvironment(0.9, 1.0, 0.5, 0.0)  # omega|g+g'| <= omega^2+gg'-1 fails
    with pytest.raises(ValidationError):
        ThermalEnvironment(1.0, 2.0)  # tau = 1 excluded
    with pytest.raises(ValidationError):
        ThermalEnvironment(0.5, 0.8)


def test_separability_flag_on_known_points():
    assert ThermalEnvironment(0.7, 5.0, 0.0, 0.0).is_separable
    env = ThermalEnvironment(0.9, 19.0, 18.0, -18.0)
    eps = g.smallest_pts_eigenvalue(envs.thermal_env_cm(env), [0])
    assert env.is_separable == (eps >= 1.0 - 1e-9)


def test_separability_flag_matches_ppt_oracle_bulk():
    rng = np.random.default_rng(21)
    checked = 0
    while checked < 10_000:
        env = random_thermal_env(rng, separable_only=False)
        margin = (env.omega**2 - env.g * env.gp - 1.0) - env.omega * abs(env.g - env.gp)
        if abs(margin) < 1e-9:  # boundary band
            continue
        eps = g.smallest_pts_eigenvalue(envs.thermal_env_cm(env), [0])
        assert env.is_separable == (eps >= 1.0 - 1e-9)
        checked += 1


def test_kappa_params():
    assert envs.kappa_params(ThermalEnvironment(0.5, 3.0)) == pytest.approx((3.0, 3.0))
    env = ThermalEnvironment(0.9, 19.38, 19.0, -19.0)
    k, kp = envs.kappa_params(env)
    assert k == pytest.approx(0.38 / 9.0, abs=1e-12)
    assert kp == pytest.approx(0.38 / 9.0, abs=1e-12)
    assert k >= 0.0 and kp >= 0.0


def test_entanglement_breaking_threshold():
    assert envs.entanglement_breaking_threshold(0.9) == pytest.approx(19.0)
    assert envs.entanglement_breaking_threshold(0.5) == pytest.approx(3.0)
    assert envs.entanglement_breaking_threshold(1e-9) == pytest.approx(1.0, abs=1e-8)
    with pytest.raises(ValidationError):
        envs.entanglement_breaking_threshold(1.0)


def test_env_mutual_information():
    assert envs.env_mutual_information(ThermalEnvironment(0.9, 19.0)) == 0.0
    a = envs.env_mutual_information(ThermalEnvironment(0.9, 19.0, 10.0, -5.0))
    b = envs.env_mutual_information(ThermalEnvironment(0.9, 19.0, -10.0, 5.0))
    assert a == pytest.approx(b, abs=1e-12)  # local sign flip symmetry
    # entropy-oracle cross-check at a strongly correlated point
    env = ThermalEnvironment(0.9, 19.0, 15.0, -15.0)
    joint = g.von_neumann_entropy(envs.thermal_env_cm(env))
    expect = 2.0 * g.entropic_h(19.0) - joint
    assert envs.env_mutual_information(env) == pytest.approx(expect, abs=1e-9)


def test_env_mutual_information_positive_and_zero_only_at_origin():
    rng = np.random.default_rng(33)
    for _ in range(300):
        env = random_thermal_env(rng, separable_only=False)
        info = envs.env_mutual_information(env)
        assert info >= -1e-12
        if abs(env.g) > 1e-3 or abs(env.gp) > 1e-3:
            assert info > 0.0


def test_additive_limit():
    env = ThermalEnvironment(0.999, 2000.0, 0.0, 0.0)
    add = envs.additive_limit(env)
    assert add.n == pytest.approx(2.0)
    assert add.c == 0.0 and add.cp == 0.0
    with pytest.raises(ValidationError):
        envs.additive_limit(ThermalEnvironment(0.5, 1.0))
    with pytest.raises(ValidationError):
        # c outside [-1, 1] after the limit map
        envs.additive_limit(ThermalEnvironment(0.9, 3.0, 2.5, 0.0))


def test_additive_limit_kappa_convergence():
    # kappa-params of the limiting family converge to ((1-c)n, (1+c')n)
    n, c, cp = 1.5, 0.6, -0.3
    target = ((1.0 - c) * n, (1.0 + cp) * n)
    for omega in (1e3, 1e5, 1e7):
        tau = 1.0 - n / omega
        env = ThermalEnvironment(tau, omega, c * (omega - 1.0), cp * (omega - 1.0))
        add = envs.additive_limit(env)
        assert (add.c, add.cp) == pytest.approx((c, cp), abs=1e-12)
        k, kp = envs.kappa_params(env)
        if omega >= 1e7:
            assert (k, kp) == pytest.approx(target, abs=1e-6)
    assert envs.kappa_params(AdditiveEnvironment(n, c, cp)) == pytest.approx(target)


def test_additive_env_validation():
    with pytest.raises(ValidationError):
        AdditiveEnvironment(-0.5)
    with pytest.raises(ValidationError):
        AdditiveEnvironment(1.0, 1.5, 0.0)


def test_additive_classical_cm():
    assert np.array_equal(envs.additive_env_classical_cm(AdditiveEnvironment(0.0)), np.zeros((4, 4)))
    m = envs.additive_env_classical_cm(AdditiveEnvironment(2.0, 1.0, 1.0))
    vals = np.sort(np.linalg.eigvalsh(m))
    assert vals == pytest.approx([0.0, 0.0, 4.0, 4.0], abs=1e-12)
    m = envs.additive_env_classical_cm(AdditiveEnvironment(4.0, 1.0, -1.0))
    expect = 4.0 * np.block(
        [[np.eye(2), np.diag([1.0, -1.0])], [np.diag([1.0, -1.0]), np.eye(2)]]
    )
    assert np.array_equal(m, expect)
    assert np.linalg.eigvalsh(m).min() >= -1e-12


def test_additive_link_entanglement_breaking_at_n_2():
    def link_cm(mu, n):  # the (a, A') block of the evolved state: a kept arm and its degraded twin
        return evolved_cm(SwapInput(mu, AdditiveEnvironment(n))).reduced([0, 2])

    for mu in (2.0, 10.0, 52.0):
        for n in (0.0, 1.0, 1.99):
            assert g.smallest_pts_eigenvalue(link_cm(mu, n), [0]) < 1.0
        assert g.smallest_pts_eigenvalue(link_cm(mu, 2.0), [0]) == pytest.approx(1.0, abs=1e-9)
        for n in (2.01, 3.0, 5.0):
            assert g.smallest_pts_eigenvalue(link_cm(mu, n), [0]) >= 1.0


def test_mirrored_environments():
    env = ThermalEnvironment(0.9, 19.38, 12.0, -7.0)
    assert env.mirrored() == ThermalEnvironment(0.9, 19.38, -12.0, 7.0)
    add = AdditiveEnvironment(2.0, 1.0, -0.5)
    assert add.mirrored() == AdditiveEnvironment(2.0, -1.0, 0.5)


def test_boundary_flagging():
    env = ThermalEnvironment(0.9, 19.38, 0.0, 0.0)
    assert not env.is_boundary
    # g = omega - 1, g' = -g saturates the separability inequality exactly
    w = 19.38
    env = ThermalEnvironment(0.9, w, w - 1.0, -(w - 1.0))
    assert env.is_boundary


def test_additive_classical_cm_past_an_edge_is_the_edge_cm():
    # inside the boundary band, past n = 0 or |c| = 1: the link map's clamp
    edge = envs.additive_env_classical_cm(AdditiveEnvironment(2.0, 1.0, -1.0))
    assert np.array_equal(envs.additive_env_classical_cm(AdditiveEnvironment(2.0, 1.0 + 5e-10, -1.0 - 5e-10)), edge)
    assert np.array_equal(envs.additive_env_classical_cm(AdditiveEnvironment(-9e-10, 0.5, 0.5)), np.zeros((4, 4)))


def test_environment_mutual_information_that_overflows_raises_numeric_degeneracy():
    with pytest.raises(g.NumericDegeneracyError, match="omega=1e\\+200"):
        envs.env_mutual_information(ThermalEnvironment(0.9, 1e200, 1.0, -1.0))


def _exact_thermal_slacks(omega, g, gp):
    """The thermal inequalities' slacks in rational arithmetic on the stored floats."""
    w, x, y = Fraction(omega), Fraction(g), Fraction(gp)
    return (w - abs(x), w - abs(y), w * w + x * y - 1 - w * abs(x + y), w * w - x * y - 1 - w * abs(x - y))


def _cells_around_both_curves(omega, count, rng):
    """``count`` cells on each of (omega - g)(omega -+ g') = 1, mirrored at random
    through the origin, one coordinate moved by +-1e-11 up to max(1e-5, 1e-12 omega)."""
    a = omega ** rng.uniform(-1.0, 1.0, 2 * count)  # omega - g, from 1/omega to omega
    # the first half on (omega - g)(omega - g') = 1, the second on the partial
    # transpose's (omega - g)(omega + g') = 1
    sign = np.r_[np.ones(count), -np.ones(count)]
    cells = np.stack([omega - a, sign * (omega - 1.0 / a)]) * rng.choice([-1.0, 1.0], 2 * count)
    top = np.log10(max(1e-5, 1e-12 * omega))
    jitter = rng.choice([-1.0, 1.0], 2 * count) * 10.0 ** rng.uniform(-11.0, top, 2 * count)
    cells[rng.integers(0, 2, 2 * count), np.arange(2 * count)] += jitter
    return cells


@pytest.mark.parametrize("omega", [19.38, 1e3, 1e4, 1e6, 1e8, 1e12])
def test_thermal_verdicts_match_exact_arithmetic_near_both_boundaries(omega):
    # each float64 verdict and the constructor's acceptance equal the same
    # inequalities evaluated exactly on the stored floats, band edges included
    g, gp = _cells_around_both_curves(omega, 200, np.random.default_rng(7))
    physical, separable, boundary = ThermalEnvironment.masks(0.9, omega, g, gp)
    band = Fraction(envs.BOUNDARY_BAND)
    for i, (x, y) in enumerate(zip(g.tolist(), gp.tolist())):
        slacks = _exact_thermal_slacks(omega, x, y)
        exact = (all(s >= -band for s in slacks[:3]), slacks[3] >= -band, any(abs(s) <= band for s in slacks))
        assert (physical[i], separable[i], boundary[i]) == exact, (x, y)
        try:
            ThermalEnvironment(0.9, omega, x, y)
        except ValidationError:
            assert not exact[0], (x, y)
        else:
            assert exact[0], (x, y)
    # the cells straddle both verdicts and the band
    assert 0 < physical.sum() < len(g) and 0 < separable.sum() < len(g) and boundary.any()
