import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import random_thermal_env
from cvrelay import environments as envs
from cvrelay import gaussian as g
from cvrelay import protocols as prot
from cvrelay.environments import AdditiveEnvironment, ThermalEnvironment
from cvrelay.gaussian import GaussianState, ValidationError
from cvrelay.protocols import SwapInput

EB_ENV = ThermalEnvironment(0.9, 19.38, 19.0, -19.0)  # strongly correlated, separable


def bell_conditioned(inp, outcome=(0.0, 0.0)):
    """Brute-force oracle: evolve the four modes, then Bell-condition A', B'."""
    st = GaussianState(np.zeros(8), prot.evolved_cm(inp), ("a", "b", "Ap", "Bp"))
    return g.condition_on_gaussian_measurement(st, [2, 3], "bell", np.asarray(outcome))


def six_mode_pipeline(inp):
    """Independent construction of the evolved state from core primitives."""
    mu, env = inp.mu, inp.env
    big = g.direct_sum(g.tmsv_cm(mu), g.tmsv_cm(mu), envs.thermal_env_cm(env))
    st = GaussianState(np.zeros(12), big, ("a", "A", "b", "B", "E1", "E2"))
    st = g.permute_modes(st, [0, 2, 1, 4, 5, 3])  # -> a b A E1 E2 B
    mix = g.expand_symplectic(g.beam_splitter(env.tau), [2, 3], 6)
    mix2 = g.expand_symplectic(g.beam_splitter(env.tau).transposed(), [4, 5], 6)
    st = g.apply_symplectic(st, mix2 @ mix)
    return st.reduced([0, 1, 2, 5]).cm  # a b A' B'


def test_unknown_environment_family_is_a_validation_error():
    @dataclass(frozen=True)
    class Lookalike:  # the additive family's fields, but not the family
        n: float = 1.0
        c: float = 0.0
        cp: float = 0.0

    for env in (Lookalike(), 3.0):
        with pytest.raises(ValidationError, match="unsupported environment type"):
            envs.kappa_params(env)
        with pytest.raises(ValidationError, match="unsupported environment type"):
            prot.evolved_cm(SwapInput(2.0, env))
    with pytest.raises(ValidationError, match="unsupported environment type"):
        prot.evolved_cm(2.0, Lookalike, {"n": 1.0, "c": 0.0, "cp": 0.0})


def test_evolved_cm_vacuum_inputs():
    env = ThermalEnvironment(0.7, 5.0, 2.0, -1.0)
    m = prot.evolved_cm(SwapInput(1.0, env)).m
    x = 0.7 * 1.0 + 0.3 * 5.0
    assert np.allclose(m[:4, :4], np.eye(4))  # kept arms are vacua
    assert np.allclose(m[:4, 4:], 0.0)  # no correlation without squeezing
    assert np.allclose(m[4:6, 4:6], x * np.eye(2))
    assert np.allclose(m[4:6, 6:8], 0.3 * np.diag([2.0, -1.0]))


def test_evolved_cm_direct_substitution():
    env = ThermalEnvironment(0.5, 3.0)
    m = prot.evolved_cm(SwapInput(2.0, env)).m
    assert m[4, 4] == pytest.approx(2.5)  # tau mu + (1-tau) omega
    assert m[0, 4] == pytest.approx(math.sqrt(0.5) * math.sqrt(3.0))


def test_evolved_cm_matches_six_mode_pipeline():
    rng = np.random.default_rng(17)
    for _ in range(25):
        env = random_thermal_env(rng)
        inp = SwapInput(rng.uniform(1.0, 50.0), env)
        assert np.abs(six_mode_pipeline(inp).m - prot.evolved_cm(inp).m).max() < 1e-12


def test_swapped_cm_near_lossless():
    # tau -> 1 with vacuum noise approximates kappa = kappa' = 0
    env = ThermalEnvironment(0.999, 1.0)
    m = prot.swapped_cm(SwapInput(2.0, env)).m
    assert np.allclose(np.diag(m), 1.25, atol=1e-3)  # mu - (mu^2-1)/(2 mu)
    assert m[0, 2] == pytest.approx(0.75, abs=1e-3)
    assert m[1, 3] == pytest.approx(-0.75, abs=1e-3)


def test_swapped_cm_matches_bell_conditioning_oracle():
    rng = np.random.default_rng(23)
    for _ in range(60):
        env = random_thermal_env(rng)
        inp = SwapInput(rng.uniform(1.0, 100.0), env)
        oracle = bell_conditioned(inp, rng.normal(size=2)).cm
        assert np.abs(oracle.m - prot.swapped_cm(inp).m).max() < 1e-10


def test_swapped_cm_outcome_and_permutation_symmetry():
    env = ThermalEnvironment(0.9, 19.38, 15.0, -15.0)
    inp = SwapInput(6.5, env)
    m = prot.swapped_cm(inp).m
    assert np.array_equal(m[:2, :2], m[2:, 2:])  # a-b permutation symmetry
    rng = np.random.default_rng(1)
    for _ in range(10):
        cond = bell_conditioned(inp, rng.normal(size=2))
        assert np.abs(cond.cm.m - m).max() < 1e-10


def test_swap_epsilon_formula_and_oracle():
    assert prot.protocol_report(SwapInput(1.0, EB_ENV)).epsilon == 1.0  # exactly
    rng = np.random.default_rng(29)
    for _ in range(200):
        env = random_thermal_env(rng)
        inp = SwapInput(rng.uniform(1.01, 100.0), env)
        eps = prot.protocol_report(inp).epsilon
        oracle = g.smallest_pts_eigenvalue(prot.swapped_cm(inp), [0])
        assert abs(eps - oracle) < 1e-10
        nus = prot._nu_pair(inp.mu, *envs.kappa_params(inp.env))
        assert eps == pytest.approx(nus[0] * nus[1] / inp.mu, abs=1e-12)


def test_swap_epsilon_large_mu_limit():
    rng = np.random.default_rng(31)
    for _ in range(50):
        env = random_thermal_env(rng)
        eps_opt = prot.protocol_report_asymptotic(env).epsilon
        # 1e-3 absolute in the swapping regime, relative far above it
        tol = 1e-3 * max(1.0, eps_opt)
        assert abs(prot.protocol_report(SwapInput(1e6, env)).epsilon - eps_opt) < tol


def test_swap_monotonicity_in_mu():
    k, kp = envs.kappa_params(EB_ENV)
    assert k * kp < 1.0
    mus = np.linspace(1.01, 200.0, 80)
    eps = prot.relay_metrics(mus, k, kp)["epsilon"]
    assert np.all(np.diff(eps) < 0.0)  # strictly decreasing when k k' < 1


def test_reactivation_threshold_curves():
    gps = np.linspace(-18.0, 18.0, 30)
    gs = prot.thermal_reactivation_g(0.9, gps)
    w_eb = envs.entanglement_breaking_threshold(0.9)
    f = 1.0 / 0.9 - 1.0
    assert np.abs(f * f * (w_eb - gs) * (w_eb + gps) - 1.0).max() < 1e-10
    # closed form printed for omega = omega_EB: g = (1+2t+g'(1-t^2)) / (1-t^2+g'(1-t)^2)
    t = 0.9
    printed = (1 + 2 * t + gps * (1 - t * t)) / (1 - t * t + gps * (1 - t) ** 2)
    assert np.abs(gs - printed).max() < 1e-9
    # Markovian entanglement-breaking environments never reactivate
    env = ThermalEnvironment(0.9, 19.38)
    k, kp = envs.kappa_params(env)
    assert k * kp > 1.0
    # near the corner (g, g') = (omega - d, -(omega - d)) swapping is reactivated
    env = ThermalEnvironment(0.9, 19.38, 19.0, -19.0)
    k, kp = envs.kappa_params(env)
    assert k * kp < 1.0
    # additive family: boundary satisfies (1-c)(1+c') = 1/n^2
    cps = np.linspace(-0.9, 1.0, 25)
    cs = prot.additive_reactivation_c(3.0, cps)
    assert np.abs((1.0 - cs) * (1.0 + cps) - 1.0 / 9.0).max() < 1e-10
    # c -> 1 reactivates for any n
    assert envs.kappa_params(AdditiveEnvironment(50.0, 1.0, 0.0))[0] == 0.0


def test_teleport_correction():
    with pytest.raises(ValidationError):
        prot.teleport_correction(SwapInput(1.0, EB_ENV))
    corr = prot.teleport_correction(SwapInput(6.5, EB_ENV))
    assert corr.squeeze_r == pytest.approx(1.0)  # kappa = kappa' needs no squeezing
    assert corr.gain_eta >= 1.0
    env = ThermalEnvironment(0.9, 19.38, 19.0, -15.0)
    corr = prot.teleport_correction(SwapInput(6.5, env))
    assert corr.squeeze_r != pytest.approx(1.0)
    assert corr.gain_eta >= 1.0


@pytest.mark.parametrize("env", [AdditiveEnvironment(1.0), ThermalEnvironment(0.9, 19.38, 19.0, -15.0)])
@pytest.mark.parametrize("mu", [6.5, 1e8, 1e150])
def test_teleport_correction_output_matches_mpmath(mu, env):
    # (4 mu/(mu^2 - 1)) theta^2 - 2 theta + eta - 1 cancels to O(1) from terms
    # of order mu; mpmath needs more than 2 log10(mu) + 20 digits not to cancel too
    import mpmath

    corr = prot.teleport_correction(SwapInput(mu, env))
    k, kp = envs.kappa_params(env)
    with mpmath.workdps(int(2 * math.log10(mu)) + 40):
        m, k, kp = mpmath.mpf(mu), mpmath.mpf(k), mpmath.mpf(kp)
        thetas = ((m + 1) / 2 + k, (m + 1) / 2 + kp)
        eta = 4 * thetas[0] * thetas[1] / (m * m - 1)
        want = [float(4 * m / (m * m - 1) * t * t - 2 * t + eta - 1) for t in thetas]
        assert corr.gain_eta == pytest.approx(float(eta), rel=1e-15)
    assert np.diag(corr.output_cm) == pytest.approx(want, rel=1e-15)
    assert corr.output_cm[0, 1] == corr.output_cm[1, 0] == 0.0


def test_teleport_mean_recovery_pipeline():
    # heterodyning the remote arm of the swapped state prepares a displaced
    # state whose corrected mean equals the input coherent amplitude
    mu = 6.5
    env = ThermalEnvironment(0.9, 19.38, 19.0, -15.0)
    inp = SwapInput(mu, env)
    ab = bell_conditioned(inp, (0.37, -1.2))
    ab = g.displace(ab, -ab.mean)  # conditional displacement erases the shift
    a_out = np.array([0.81, -0.44])
    b0 = g.condition_on_gaussian_measurement(ab, [0], "heterodyne", a_out)
    corr = prot.teleport_correction(inp)
    sq = g.quadrature_squeezer(corr.squeeze_r)
    mean_out = math.sqrt(corr.gain_eta) * (sq.m @ b0.mean)
    target = math.sqrt(mu * mu - 1.0) / (mu + 1.0) * np.array([a_out[0], -a_out[1]])
    assert np.abs(mean_out - target).max() < 1e-12
    # conditional CM matches the closed form mu I - (mu^2-1)/2 diag(1/t1, 1/t1')
    closed = mu * np.eye(2) - (mu * mu - 1.0) / 2.0 * np.diag(
        [1.0 / corr.theta1, 1.0 / corr.theta1_prime]
    )
    assert np.abs(b0.cm.m - closed).max() < 1e-12
    # and the corrected output CM reproduces the closed-form fidelity
    v_out = corr.gain_eta * (sq.m @ b0.cm.m @ sq.m.T) + (corr.gain_eta - 1.0) * np.eye(2)
    assert np.abs(v_out - corr.output_cm).max() < 1e-12
    f_pipeline = 2.0 / math.sqrt(np.linalg.det(corr.output_cm + np.eye(2)))
    assert prot.protocol_report(SwapInput(mu, env)).fidelity == pytest.approx(f_pipeline, abs=1e-12)


def test_teleport_fidelity_limits():
    # noiseless, large mu: F -> 1
    env = ThermalEnvironment(0.999999, 1.0)
    assert prot.protocol_report(SwapInput(1e6, env)).fidelity == pytest.approx(1.0, abs=1e-4)
    # antisymmetric correlations: F_opt = 1/(1 + eps_opt) exactly
    for gg in (5.0, 12.0, 19.0):
        env = ThermalEnvironment(0.9, 19.38, gg, -gg)
        f_opt = prot.protocol_report_asymptotic(env).fidelity
        eps_opt = prot.protocol_report_asymptotic(env).epsilon
        assert abs(f_opt - 1.0 / (1.0 + eps_opt)) < 1e-12
    # the bound F_opt <= 1/(1 + eps_opt) holds everywhere
    rng = np.random.default_rng(37)
    for _ in range(200):
        env = random_thermal_env(rng)
        f_opt = prot.protocol_report_asymptotic(env).fidelity
        assert f_opt <= 1.0 / (1.0 + prot.protocol_report_asymptotic(env).epsilon) + 1e-12


def test_fidelity_increases_with_mu():
    k, kp = envs.kappa_params(EB_ENV)
    mus = np.linspace(1.01, 100.0, 60)
    fid = prot.relay_metrics(mus, k, kp)["fidelity"]
    assert np.all(np.diff(fid) > 0.0)
    assert prot.protocol_report(SwapInput(6.5, EB_ENV)).fidelity > 0.5  # reactivated


def test_coherent_information():
    # distillation threshold: asymptotic I_C crosses zero at eps_opt = 1/e
    env = ThermalEnvironment(0.9, 19.38, 19.0, -19.0)
    assert prot.protocol_report_asymptotic(env).coherent_info > 0.0
    # entropy-oracle cross-check against the generic path
    inp = SwapInput(6.5, env)
    cm = prot.swapped_cm(inp)
    nus = g.symplectic_spectrum(cm)
    nb = math.sqrt(np.linalg.det(cm.m[2:, 2:]))
    generic = g.entropic_h(nb) - g.entropic_h(nus[0]) - g.entropic_h(nus[1])
    assert prot.protocol_report(inp).coherent_info == pytest.approx(generic, abs=1e-9)


def test_coherent_information_asymptotic_consistency():
    rng = np.random.default_rng(41)
    for _ in range(40):
        env = random_thermal_env(rng)
        eps_opt = prot.protocol_report_asymptotic(env).epsilon
        if eps_opt < 1e-3:
            continue
        finite = prot.protocol_report(SwapInput(1e6, env)).coherent_info
        assert abs(finite + math.log2(math.e * eps_opt)) < 1e-3


def test_qkd_rate_zero_at_mu_one():
    assert prot.protocol_report(SwapInput(1.0, EB_ENV)).mutual_info_ab == pytest.approx(0.0)
    assert prot.qkd_rate(SwapInput(1.0, EB_ENV)) == pytest.approx(0.0, abs=1e-12)


def test_qkd_rate_against_generic_oracle():
    rng = np.random.default_rng(43)
    for _ in range(100):
        env = random_thermal_env(rng)
        inp = SwapInput(rng.uniform(1.01, 100.0), env)
        xi = rng.uniform(0.5, 1.0)
        generic = prot.key_rate_from_cm(prot.swapped_cm(inp), xi)
        assert prot.qkd_rate(inp, xi) == pytest.approx(generic["rate"], abs=1e-9)
        assert prot.protocol_report(inp).mutual_info_ab == pytest.approx(
            generic["mutual_info"], abs=1e-9
        )
        assert prot.protocol_report(inp).holevo_eve == pytest.approx(generic["holevo"], abs=1e-9)


def test_qkd_rate_heterodyne_conditioning_identity():
    # the nu_c entering the Holevo term is exactly det of the heterodyne-
    # conditioned Bob state, here recomputed with the measurement oracle
    env = ThermalEnvironment(0.9, 19.38, 19.2, -19.1)
    inp = SwapInput(52.0, env)
    st = GaussianState(np.zeros(4), prot.swapped_cm(inp), ("a", "b"))
    b_cond = g.condition_on_gaussian_measurement(st, [0], "heterodyne")
    nu_c = math.sqrt(np.linalg.det(b_cond.cm.m))
    assert prot.key_rate_from_cm(prot.swapped_cm(inp))["nu_c"] == pytest.approx(
        nu_c, abs=1e-10
    )


def test_qkd_rate_monotone_in_xi_and_mu():
    env = ThermalEnvironment(0.9, 19.38, 19.2, -19.1)
    r1 = prot.qkd_rate(SwapInput(52.0, env), 1.0)
    r097 = prot.qkd_rate(SwapInput(52.0, env), 0.97)
    assert r097 < r1
    k, kp = envs.kappa_params(env)
    mus = np.linspace(1.5, 200.0, 50)
    rates = prot.relay_metrics(mus, k, kp, 1.0)["key_rate"]
    assert np.all(np.diff(rates) > 0.0)


def test_qkd_asymptotic_rates():
    env = ThermalEnvironment(0.9, 19.38, 19.2, -19.1)
    rep = prot.protocol_report_asymptotic(env)
    r_opt, r_lb = rep.key_rate, rep.key_rate_lb
    assert r_lb <= r_opt
    # equality under antisymmetric correlations
    env_a = ThermalEnvironment(0.9, 19.38, 19.0, -19.0)
    rep = prot.protocol_report_asymptotic(env_a)
    r_opt, r_lb = rep.key_rate, rep.key_rate_lb
    assert r_opt == pytest.approx(r_lb, abs=1e-12)
    # finite-mu convergence
    rng = np.random.default_rng(47)
    for _ in range(25):
        env = random_thermal_env(rng)
        if prot.protocol_report_asymptotic(env).epsilon < 1e-3:
            continue
        finite = prot.qkd_rate(SwapInput(1e6, env), 1.0)
        assert abs(finite - prot.protocol_report_asymptotic(env).key_rate) < 1e-2


def test_qkd_lower_bound_positivity_window():
    # R_LB can only be positive below eps_opt ~ 0.192
    rng = np.random.default_rng(53)
    for _ in range(300):
        env = random_thermal_env(rng)
        r_lb = prot.protocol_report_asymptotic(env).key_rate_lb
        if r_lb > 0.0:
            assert prot.protocol_report_asymptotic(env).epsilon < 0.1922


def test_additive_swapped_cm_noise_cancellation():
    # (c, c') = (1, -1) erases the environment: lossless swapped state
    mu = 4.0
    m = prot.swapped_cm(SwapInput(mu, AdditiveEnvironment(5.0, 1.0, -1.0))).m
    z = np.diag([1.0, -1.0])
    expect = np.block(
        [
            [(mu * mu + 1.0) / (2 * mu) * np.eye(2), (mu * mu - 1.0) / (2 * mu) * z],
            [(mu * mu - 1.0) / (2 * mu) * z, (mu * mu + 1.0) / (2 * mu) * np.eye(2)],
        ]
    )
    assert np.abs(m - expect).max() < 1e-12
    # n = 0 gives the same noiseless swapped state
    m0 = prot.swapped_cm(SwapInput(mu, AdditiveEnvironment(0.0, 0.0, 0.0))).m
    assert np.abs(m0 - expect).max() < 1e-12


def test_additive_swapped_cm_matches_conditioning_oracle():
    rng = np.random.default_rng(59)
    for _ in range(40):
        env = AdditiveEnvironment(
            rng.uniform(0.0, 5.0), rng.uniform(-1, 1), rng.uniform(-1, 1)
        )
        inp = SwapInput(rng.uniform(1.01, 60.0), env)
        oracle = bell_conditioned(inp, rng.normal(size=2)).cm
        assert np.abs(oracle.m - prot.swapped_cm(inp).m).max() < 1e-10


def test_additive_qkd_rate_window():
    for n in (2.25, 3.0, 4.0):
        assert prot.qkd_rate(SwapInput(52.0, AdditiveEnvironment(n, 1.0, 1.0)), 1.0) > 0.0
    ns = np.linspace(2.01, 4.0, 40)
    rates = [prot.qkd_rate(SwapInput(52.0, AdditiveEnvironment(float(n), 1.0, 1.0)), 1.0) for n in ns]
    assert all(a > b for a, b in zip(rates, rates[1:]))


def test_repeater_bound():
    assert prot.repeater_bound_phi(2.0) == 0.0
    assert prot.repeater_bound_phi(3.0) == 0.0
    assert prot.repeater_bound_phi(1.0) == pytest.approx(0.2786524795555183, abs=1e-12)
    assert math.isinf(prot.repeater_bound_phi(0.0))
    for bad in (-1.0, math.nan):
        with pytest.raises(ValidationError):
            prot.repeater_bound_phi(bad)


@pytest.mark.parametrize("mu", [6.5, math.inf])
def test_relay_metrics_rejects_negative_or_nan_kappas(mu):
    for k, kp in ((-1.0, 0.0), (0.0, -1e-300), (math.nan, 0.0), (np.array([1.0, math.nan]), 2.0)):
        with pytest.raises(ValidationError, match="kappa"):
            prot.relay_metrics(mu, k, kp)
    # an infinite kappa is a float64 failure, named by mu
    with pytest.raises(g.NumericDegeneracyError, match="overflow float64"):
        prot.relay_metrics(mu, math.inf, 0.0)


_KEYS = prot._METRIC_KEYS


@given(mu=st.one_of(st.just(math.inf), st.floats(1.0, 1e6)),
       kappas=st.lists(st.tuples(st.floats(0.0, 1e3), st.floats(0.0, 1e3)), min_size=1, max_size=5),
       names=st.lists(st.sampled_from(list(_KEYS)), unique=True))
def test_relay_metrics_of_some_names_are_those_of_every_name(mu, kappas, names):
    # each requested key has the same bits as in the full set, in the
    # requested order, and nothing else is returned
    k, kp = (np.array(v) for v in zip(*kappas))
    every, some = prot.relay_metrics(mu, k, kp, 0.97), prot.relay_metrics(mu, k, kp, 0.97, names)
    assert list(every) == list(_KEYS) and list(some) == names
    for name in names:
        assert (some[name] is every[name] is None) or some[name].tobytes() == every[name].tobytes(), name


def _metrics_or_error(*args):
    try:
        return prot.relay_metrics(*args)
    except (ValidationError, g.NumericDegeneracyError) as exc:
        return type(exc)


@given(mu=st.one_of(st.just(math.inf), st.just(1.0), st.floats(1.0, 1e6), st.floats(1e6, 1e200)),
       kappas=st.lists(st.tuples(st.one_of(st.just(0.0), st.floats(0.0, 1e3), st.floats(0.0, 1e300)),
                                 st.one_of(st.just(0.0), st.floats(0.0, 1e3), st.floats(0.0, 1e300))),
                       min_size=1, max_size=4),
       xi=st.floats(0.5, 1.0), as_scalar=st.sampled_from([float, np.asarray]))
def test_relay_metrics_of_a_scalar_is_its_cell_of_a_stacked_call(mu, kappas, xi, as_scalar):
    # a Python float or 0-d array point computes on numpy scalars and
    # returns, for every key, the bits and dtype of its cell of a call over
    # arrays; a point that raises raises the class the stacked call raises
    k, kp = (np.array(v) for v in zip(*kappas))
    stacked = _metrics_or_error(mu, k, kp, xi)
    cells = [_metrics_or_error(as_scalar(mu), as_scalar(k[i]), as_scalar(kp[i]), xi) for i in range(len(k))]
    raised = {cell for cell in cells if isinstance(cell, type)}
    if isinstance(stacked, type):
        assert raised == {stacked}
        return
    assert not raised
    for i, cell in enumerate(cells):
        assert list(cell) == list(_KEYS)
        for name in _KEYS:
            if stacked[name] is None:
                assert cell[name] is None, name
                continue
            one = cell[name]
            assert np.ndim(one) == 0 and one.dtype == stacked[name].dtype, name
            assert one.tobytes() == stacked[name][i].tobytes(), (name, i)


def test_relay_metrics_checks_only_the_figures_it_returns():
    # at mu = 1e100 coherent_info and key_rate overflow; epsilon and fidelity
    # (and the flags read from them) do not
    with pytest.raises(g.NumericDegeneracyError, match="mu=1e\\+100"):
        prot.relay_metrics(1e100, 2.0, 3.0)
    for name in ("coherent_info", "key_rate", "distill_ok", "qkd_ok"):
        with pytest.raises(g.NumericDegeneracyError, match="mu=1e\\+100"):
            prot.relay_metrics(1e100, 2.0, 3.0, names=["epsilon", name])
    m = prot.relay_metrics(1e100, 2.0, 3.0, names=["epsilon", "log_neg", "swap_ok", "fidelity", "tele_quantum"])
    assert m["epsilon"] == pytest.approx(math.sqrt(6.0), rel=1e-15) and m["log_neg"] == 0.0
    assert m["fidelity"] == pytest.approx(1.0 / math.sqrt(12.0), rel=1e-15)
    assert m["swap_ok"] == m["tele_quantum"] == 0
    with pytest.raises(ValidationError, match="unknown"):
        prot.relay_metrics(6.5, 1.0, 1.0, names=["epsilon", "h_nu"])


def test_repeater_bound_reads_the_boundary_band_below_zero_as_noiseless():
    from cvrelay.environments import BOUNDARY_BAND

    assert math.isinf(prot.repeater_bound_phi(-0.9 * BOUNDARY_BAND))
    with pytest.raises(ValidationError, match="additive noise must be >= 0"):
        prot.repeater_bound_phi(-1.1 * BOUNDARY_BAND)


def test_protocol_report_flags_consistent():
    rng = np.random.default_rng(61)
    for _ in range(50):
        env = random_thermal_env(rng)
        rep = prot.protocol_report(SwapInput(rng.uniform(1.01, 80.0), env), 1.0)
        if rep.flags["swap_ok"] is True:
            assert rep.epsilon < 1.0
        if rep.flags["tele_quantum"] is True:
            assert rep.fidelity > 0.5
        if rep.flags["distill_ok"] is True:
            assert rep.coherent_info > 0.0
        if rep.flags["qkd_ok"] is True:
            assert rep.key_rate > 0.0
        assert rep.key_rate == pytest.approx(
            rep.xi * rep.mutual_info_ab - rep.holevo_eve, abs=1e-12
        )


def test_protocol_report_marginal_flag():
    rep = prot.protocol_report(SwapInput(1.0, EB_ENV), 1.0)
    assert rep.flags["swap_ok"] == "marginal"  # epsilon exactly 1


def test_flag_codes_at_the_guard_band():
    # gaps exactly on the band's edges and at its centre are marginal (code 2),
    # one ulp outside it they are True (1) or False (0), whichever way the
    # inequality points
    guard, outside = prot.FLAG_GUARD, np.nextafter(prot.FLAG_GUARD, np.inf)
    gaps = np.array([guard, -guard, 0.0, outside, -outside])
    for codes in (prot._flag(gaps, 0.0, want_greater=True), prot._flag(-gaps, 0.0, want_greater=False)):
        assert codes.dtype == np.int8 and codes.tolist() == [2, 2, 2, 1, 0]
    # a report maps each code to the Python object, as JSON wants it
    m = prot.relay_metrics(6.5, 2.0, 3.0)
    m.update(zip(prot.FLAG_KEYS, prot._flag(gaps[[0, 2, 3, 4]], 0.0, want_greater=True)))
    rep = prot._report(m, 2.0, 3.0, 6.5, 1.0)
    assert [rep.flags[key] for key in prot.FLAG_KEYS] == ["marginal", "marginal", True, False]
    assert rep.flags["swap_ok"] is prot.FLAG_VALUES[2] and rep.flags["tele_quantum"] is prot.FLAG_VALUES[2]
    assert rep.flags["distill_ok"] is True and rep.flags["qkd_ok"] is False
    # and so does the report of a point whose epsilon is exactly 1
    flags = prot.protocol_report(SwapInput(6.5, AdditiveEnvironment(1.0, 0.0, 0.0)), 1.0).flags
    assert flags["swap_ok"] is prot.FLAG_VALUES[2]
    assert all(flags[key] is False for key in ("tele_quantum", "distill_ok", "qkd_ok"))


def test_protocol_report_asymptotic():
    rep = prot.protocol_report_asymptotic(EB_ENV)
    assert rep.mu == math.inf
    assert rep.key_rate_lb is not None
    assert rep.key_rate_lb <= rep.key_rate
    # noiseless additive point: infinite asymptotic rates, flags stay sane
    rep0 = prot.protocol_report_asymptotic(AdditiveEnvironment(0.0))
    assert math.isinf(rep0.key_rate)
    assert rep0.flags["qkd_ok"] is True


def test_qkd_security_threshold_stability():
    # the mu = 52 threshold sits close to the asymptotic one, and lowering
    # the reconciliation efficiency pulls it strictly inward
    def root(metric):
        lo, hi = 5.0, 18.3
        flo = metric(lo)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if (metric(mid) > 0.0) == (flo > 0.0):
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def antidiag(g):
        return ThermalEnvironment(0.9, 19.38, g, -g)

    g_inf = root(lambda g: prot.protocol_report_asymptotic(antidiag(g)).key_rate)
    g_52 = root(lambda g: prot.qkd_rate(SwapInput(52.0, antidiag(g)), 1.0))
    g_097 = root(lambda g: prot.qkd_rate(SwapInput(52.0, antidiag(g)), 0.97))
    assert abs(g_52 - g_inf) < 0.1
    assert g_097 > g_52 > g_inf  # weaker reconciliation needs more correlations


def test_additive_swapped_cm_one_one_point():
    # the (c, c') = (1, 1) environment cancels noise in one quadrature only
    mu, n = 5.0, 2.0
    m = prot.swapped_cm(SwapInput(mu, AdditiveEnvironment(n, 1.0, 1.0))).m
    tmu2 = mu * mu - 1.0
    expect = np.array(
        [
            [mu - tmu2 / (2 * mu), 0, tmu2 / (2 * mu), 0],
            [0, mu - tmu2 / (2 * (mu + 2 * n)), 0, -tmu2 / (2 * (mu + 2 * n))],
            [tmu2 / (2 * mu), 0, mu - tmu2 / (2 * mu), 0],
            [0, -tmu2 / (2 * (mu + 2 * n)), 0, mu - tmu2 / (2 * (mu + 2 * n))],
        ]
    )
    assert np.abs(m - expect).max() < 1e-12


def test_fidelity_identity_in_epsilon_and_kappa_sum():
    # F_opt = [1 + eps_opt^2 + (kappa + kappa')]^(-1/2) everywhere
    rng = np.random.default_rng(67)
    for _ in range(100):
        env = random_thermal_env(rng)
        k, kp = envs.kappa_params(env)
        eps = math.sqrt(k * kp)
        expect = 1.0 / math.sqrt(1.0 + eps * eps + k + kp)
        assert prot.protocol_report_asymptotic(env).fidelity == pytest.approx(expect, abs=1e-12)


@given(n=st.floats(0.0, 10.0), c=st.floats(-1.0, 1.0), cp=st.floats(-1.0, 1.0),
       mu=st.floats(1.01, 200.0), xi=st.floats(0.5, 1.0))
def test_generic_key_rate_equals_the_closed_form_over_additive_environments(n, c, cp, mu, xi):
    env = AdditiveEnvironment(n, c, cp)
    generic = prot.key_rate_from_cm(prot.swapped_cm(SwapInput(mu, env)), xi)["rate"]
    closed = prot.relay_metrics(mu, *envs.kappa_params(env), xi)["key_rate"]
    # h'(nu) diverges at nu = 1, so near-pure states (small n) need a spectrum
    # that rounds like eps, not sqrt(eps)
    assert float(closed) == pytest.approx(generic, abs=1e-9)


def test_generic_key_rate_of_a_pure_swapped_state():
    pure = prot.swapped_cm(SwapInput(3.0, AdditiveEnvironment(0.0, 0.0, 0.0)))
    assert prot.key_rate_from_cm(pure)["rate"] == pytest.approx(math.log2(4.0 / 3.0), abs=1e-15)


def test_generic_key_rate_rejects_a_singular_heterodyne_block():
    # theta = a + I: zero for a = -I, and singular against the matrix's
    # scale for a squeezed a = diag(1e14, 1e-14)
    for m in (np.diag([-1.0, -1.0, 2.0, 2.0]), np.diag([1e14, 1e-14, 2.0, 2.0])):
        with pytest.raises(g.NumericDegeneracyError, match="^heterodyne conditioning block is singular$"):
            prot.key_rate_from_cm(m)


_UNIT = st.floats(-1.0, 1.0)
# a random environment of either family, its correlations as fractions u, v
# of their largest value, and a finite modulation
_SWAP_DRAWS = dict(thermal=st.booleans(), tau=st.floats(0.05, 0.95), omega=st.floats(1.0, 40.0),
                   n=st.floats(0.0, 10.0), u=_UNIT, v=_UNIT, mu=st.floats(1.0, 200.0, exclude_min=True))


def _drawn_input(thermal, tau, omega, n, u, v, mu) -> SwapInput:
    try:
        env = (ThermalEnvironment(tau, omega, u * omega, v * omega) if thermal
               else AdditiveEnvironment(n, u, v))
    except ValidationError:
        assume(False)
    return SwapInput(mu, env)


@given(**_SWAP_DRAWS)
def test_swapped_cm_equals_bell_conditioning_over_random_environments(thermal, tau, omega, n, u, v, mu):
    inp = _drawn_input(thermal, tau, omega, n, u, v, mu)
    assert np.abs(bell_conditioned(inp).cm.m - prot.swapped_cm(inp).m).max() < 1e-10


@given(**_SWAP_DRAWS)
def test_mirrored_environment_is_the_conjugate_bell_detection(thermal, tau, omega, n, u, v, mu):
    """Detecting (q_plus, p_minus), i.e. the standard Bell detection after a
    pi rotation of B', leaves (a, b) in the state that the standard detection
    leaves on the mirrored environment, up to a pi rotation of b."""
    inp = _drawn_input(thermal, tau, omega, n, u, v, mu)
    evolved = GaussianState(np.zeros(8), prot.evolved_cm(inp), ("a", "b", "Ap", "Bp"))
    flipped = g.apply_symplectic(evolved, g.expand_symplectic(g.rotation(math.pi), [3], 4))
    conjugate = g.condition_on_gaussian_measurement(flipped, [2, 3], "bell")
    mirrored = bell_conditioned(SwapInput(inp.mu, inp.env.mirrored()))
    mirrored = g.apply_symplectic(mirrored, g.expand_symplectic(g.rotation(math.pi), [1], 2))
    assert np.abs(conjugate.cm.m - mirrored.cm.m).max() < 1e-10


def test_evolved_states_past_float64_raise_numeric_degeneracy():
    with pytest.raises(g.NumericDegeneracyError, match="mu=1e\\+308"):
        prot.evolved_cm(1e308, AdditiveEnvironment, {"n": 1.0, "c": 0.0, "cp": 0.0})
