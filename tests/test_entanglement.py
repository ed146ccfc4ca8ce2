import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import random_thermal_env
from cvrelay import entanglement as ent
from cvrelay import environments as envs
from cvrelay import gaussian as g
from cvrelay import protocols as prot
from cvrelay.environments import AdditiveEnvironment, ThermalEnvironment
from cvrelay.gaussian import ValidationError
from cvrelay.protocols import SwapInput

TAU = 0.9
W_EB = 19.0  # (1 + tau)/(1 - tau) at tau = 0.9
EB_NOISE = 19.38  # 1.02 * W_EB


def test_bipartite_survey_separable_under_eb_noise():
    rng = np.random.default_rng(71)
    for _ in range(12):
        env = random_thermal_env(rng, tau_range=(TAU, TAU), omega_max=30.0)
        if env.omega <= envs.entanglement_breaking_threshold(env.tau):
            continue
        survey = ent._pair_log_negativities(prot.evolved_cm(SwapInput(6.5, env)))
        assert all(v == 0.0 for v in survey.values()), (env, survey)


def test_bipartite_survey_ab_always_separable():
    rng = np.random.default_rng(73)
    for _ in range(10):
        env = random_thermal_env(rng)
        survey = ent._pair_log_negativities(prot.evolved_cm(SwapInput(rng.uniform(1.0, 30.0), env)))
        assert survey["ab"] == 0.0
        assert survey["aBp"] == 0.0


def test_bipartite_survey_matches_ppt_oracle():
    env = ThermalEnvironment(TAU, 10.0, 5.0, -5.0)  # below EB: aA' entangled
    inp = SwapInput(6.5, env)
    survey = ent._pair_log_negativities(prot.evolved_cm(inp))
    cm = prot.evolved_cm(inp)
    assert survey["aAp"] == pytest.approx(
        g.log_negativity(cm.reduced([0, 2]), [0]), abs=1e-12
    )
    assert survey["aAp"] > 0.0


def test_bipartite_asymptotics():
    # large-mu aA' log-negativity, max{0, log2[(1 + tau)/((1 - tau) omega)]}:
    # zero exactly at the entanglement-breaking noise omega_EB(tau)
    def logneg_aap(tau, omega):
        return max(0.0, math.log2((1.0 + tau) / ((1.0 - tau) * omega)))

    assert logneg_aap(TAU, W_EB) == pytest.approx(0.0, abs=1e-12)
    assert logneg_aap(TAU, W_EB - 1.0) > 0.0
    env = ThermalEnvironment(TAU, 10.0)
    cm = prot.evolved_cm(SwapInput(1e6, env))
    oracle = g.log_negativity(cm.reduced([0, 2]), [0])
    assert oracle == pytest.approx(logneg_aap(TAU, 10.0), abs=1e-4)
    # A'B' leading-order PTS eigenvalue at large mu, tau mu + (1 - tau)(2 omega - |g - g'|)/2:
    # exact on the antidiagonal g + g' = 0, an upper bound elsewhere
    mu, g_, gp = 1e6, 12.0, -5.0
    env = ThermalEnvironment(TAU, EB_NOISE, g_, gp)
    cm = prot.evolved_cm(SwapInput(mu, env))
    eps = g.smallest_pts_eigenvalue(cm.reduced([2, 3]), [0])
    lead = TAU * mu + 0.5 * (1.0 - TAU) * (2.0 * EB_NOISE - abs(g_ - gp))
    assert eps == pytest.approx(lead, rel=1e-4)


def test_tripartite_markovian_class_5_with_witness_spectrum():
    mu = 3.0
    env = ThermalEnvironment(TAU, W_EB)
    cm3 = prot.evolved_cm(SwapInput(mu, env)).reduced([0, 2, 3])
    verdict = ent.tripartite_classify(cm3)
    assert verdict.class_id == 5 and verdict.certified
    # both witness matrices minus the vacuum share the spectrum {0, 2(mu-1)/[2+tau(mu+1)]}
    t, t_tilde = ent._witness_pair(cm3.m)
    expect = np.array([0.0, 2.0 * (mu - 1.0) / (2.0 + TAU * (mu + 1.0))])
    assert np.linalg.eigvalsh(t - np.eye(2)) == pytest.approx(expect, abs=1e-9)
    assert np.linalg.eigvalsh(t_tilde - np.eye(2)) == pytest.approx(expect, abs=1e-9)


def test_tripartite_correlated_class_2_at_threshold():
    env = ThermalEnvironment(TAU, W_EB, 10.0, -10.0)
    verdict = ent.tripartite_classify(prot.evolved_cm(SwapInput(1e6, env)).reduced((0, 2, 3)))
    assert verdict.class_id == 2
    assert verdict.mode_ppt == (False, False, True)  # only B' stays PPT


def test_tripartite_class_5_above_threshold():
    for gg, gp in ((0.0, 0.0), (15.0, -15.0), (18.0, -18.0)):
        env = ThermalEnvironment(TAU, EB_NOISE, gg, gp)
        assert env.is_separable
        verdict = ent.tripartite_classify(prot.evolved_cm(SwapInput(1e6, env)).reduced((0, 2, 3)))
        assert verdict.class_id == 5, (gg, gp, verdict)


def test_tripartite_product_triplets():
    env = ThermalEnvironment(TAU, EB_NOISE, 19.0, -19.0)
    cm = prot.evolved_cm(SwapInput(1e4, env))
    assert ent.tripartite_classify(cm.reduced([0, 2, 1])).class_id == 5  # a A' b
    assert ent.tripartite_classify(cm.reduced([0, 3, 1])).class_id == 5  # a B' b


def test_tripartite_fully_entangled_pure_split():
    # one TMSV arm split on a balanced beam splitter: every cut is entangled
    big = g.direct_sum(g.tmsv_cm(3.0), g.vacuum_cm(1))
    st = g.GaussianState(np.zeros(6), big)
    st = g.apply_symplectic(st, g.expand_symplectic(g.beam_splitter(0.5), [1, 2], 3))
    verdict = ent.tripartite_classify(st.cm)
    assert verdict.class_id == 1
    assert verdict.mode_ppt == (False, False, False)


def test_tripartite_requires_three_modes():
    with pytest.raises(ValidationError):
        ent.tripartite_classify(g.tmsv_cm(2.0))


def test_quadripartite_sigma_functions_reference_point():
    funcs = ent.quad_sigma_functions(0.5, 1.1, 0.0, 0.0)
    assert funcs["f"] == pytest.approx(0.4725, abs=1e-12)
    assert funcs["f_prime"] == pytest.approx(1.16825625, abs=1e-9)
    assert funcs["sigma_prime"] == pytest.approx(0.4725, abs=1e-12)
    reg = ent.quadripartite_classify(ThermalEnvironment(0.5, 1.1 * 3.0))
    assert reg.region == "I"


def test_quadripartite_regions_present_near_physicality_border():
    # region IV shows up at strong separable correlations
    env = ThermalEnvironment(TAU, EB_NOISE, 18.0, -18.0)
    assert env.is_separable
    assert ent.quadripartite_classify(env).region == "IV"
    reg = ent.quadripartite_classify(ThermalEnvironment(TAU, EB_NOISE))
    assert reg.region == "I"


def test_region_codes_are_int8_codes_into_the_region_names():
    # one byte per scan cell; the text is looked up only when written
    codes = ent.region_codes(np.array([1.0, 1.0, -1.0, -1.0, 1e-12]),
                             np.array([1.0, -1.0, 1.0, -1.0, 1.0]), 1e-9)
    assert codes.dtype == np.int8
    assert [ent.REGIONS[c] for c in codes] == ["I", "II", "III", "IV", "boundary"]


def test_quadripartite_classify_requires_eb_noise():
    with pytest.raises(ValidationError):
        ent.quadripartite_classify(ThermalEnvironment(TAU, 10.0))


def test_quadripartite_numeric_lossless_tmsv():
    cm = prot.evolved_cm(SwapInput(4.0, ThermalEnvironment(0.9999, 1.0)))
    assert ent.quadripartite_numeric(cm, "a") == "entangled"
    assert ent.quadripartite_numeric(cm, 0) == "entangled"


def test_quadripartite_numeric_relabel_symmetry():
    env = ThermalEnvironment(TAU, EB_NOISE, 17.0, -17.0)
    cm = prot.evolved_cm(SwapInput(100.0, env))
    # a <-> b and A' <-> B' relabelling leaves the verdicts unchanged
    assert ent.quadripartite_numeric(cm, "a") == ent.quadripartite_numeric(cm, "b")
    assert ent.quadripartite_numeric(cm, "Ap") == ent.quadripartite_numeric(cm, "Bp")


def test_quadripartite_numeric_agrees_with_analytic():
    rng = np.random.default_rng(79)
    mu = 1e6
    checked = 0
    while checked < 60:
        gg = rng.uniform(-EB_NOISE, EB_NOISE)
        gp = rng.uniform(-EB_NOISE, EB_NOISE)
        try:
            env = ThermalEnvironment(TAU, EB_NOISE, gg, gp)
        except ValidationError:
            continue
        funcs = ent.quad_sigma_functions(TAU, EB_NOISE / W_EB, gg, gp)
        scale = 1.0 + abs(funcs["f"]) + abs(funcs["f_prime"]) + abs(funcs["f_double_prime"])
        if min(abs(funcs["sigma_prime"]), abs(funcs["sigma_double_prime"])) < 1e-6 * scale:
            continue
        cm = prot.evolved_cm(SwapInput(mu, env))
        num_a = ent.quadripartite_numeric(cm, "a") == "separable-PPT"
        num_ap = ent.quadripartite_numeric(cm, "Ap") == "separable-PPT"
        assert num_a == (funcs["sigma_prime"] > 0.0), (gg, gp)
        assert num_ap == (funcs["sigma_double_prime"] > 0.0), (gg, gp)
        checked += 1


def test_quadripartite_ppt_monotone_in_mu():
    rng = np.random.default_rng(83)
    mus = (2.0, 10.0, 100.0, 1e4)
    for _ in range(15):
        env = random_thermal_env(rng, tau_range=(TAU, TAU))
        verdicts = []
        for mu in mus:
            cm = prot.evolved_cm(SwapInput(mu, env))
            verdicts.append(ent.quadripartite_numeric(cm, "a") == "entangled")
        # once entangled at some mu, entangled at every larger mu
        assert verdicts == sorted(verdicts)


def test_sigma_polynomials_stable_in_double_precision():
    # compare against extended-precision evaluation on a grid
    gs = np.linspace(-19.3, 19.3, 31)
    r = EB_NOISE / W_EB
    for gg in gs:
        for gp in gs:
            funcs = ent.quad_sigma_functions(TAU, r, float(gg), float(gp))
            ld = np.longdouble
            t, rr = ld(TAU), ld(r)
            gl, gpl = ld(gg), ld(gp)
            opt, omt = 1 + t, 1 - t
            f = opt**2 * (rr * rr - 1) - gl * gl * omt**2
            zeta = opt**4 * rr**4 - opt**2 * (
                2 + gl * gl * omt**2 + gpl * gpl * omt**2 + 2 * t * t
            ) * rr * rr
            fp = omt**2 * (opt - gl * gpl * omt) ** 2 + zeta
            scale = max(1.0, abs(float(f)), abs(float(fp)))
            assert abs(funcs["f"] - float(f)) < 1e-10 * scale
            assert abs(funcs["f_prime"] - float(fp)) < 1e-10 * scale


def test_tripartite_class5_implies_separable_reductions():
    env = ThermalEnvironment(TAU, EB_NOISE, 15.0, -15.0)
    cm3 = prot.evolved_cm(SwapInput(50.0, env)).reduced([0, 2, 3])
    if ent.tripartite_classify(cm3).class_id == 5:
        for pair in ((0, 1), (0, 2), (1, 2)):
            reduced = cm3.reduced(pair)
            assert g.smallest_pts_eigenvalue(reduced, [0]) >= 1.0 - 1e-9


def test_reactivation_ring_strictly_contains_swap_region():
    # entanglement localization needs more correlations than quadripartite
    # recovery: the kappa kappa' < 1 region sits strictly inside regions II-IV
    gs = np.linspace(-EB_NOISE, EB_NOISE, 81)
    swap_in_region_i = 0
    ring_without_swap = 0
    for gg in gs:
        for gp in gs:
            try:
                env = ThermalEnvironment(TAU, EB_NOISE, float(gg), float(gp))
            except ValidationError:
                continue
            if not env.is_separable:
                continue
            k, kp = envs.kappa_params(env)
            region = ent.quadripartite_classify(env).region
            if k * kp < 1.0 and region == "I":
                swap_in_region_i += 1
            if region in ("II", "III", "IV") and k * kp >= 1.0:
                ring_without_swap += 1
    assert swap_in_region_i == 0
    assert ring_without_swap > 0


def test_tripartite_witness_search_beyond_vacuum():
    # product of squeezed vacua plus classical correlations: fully separable,
    # but the vacuum witness fails and the search must find a squeezed sigma
    s = 2.5
    base = np.kron(np.eye(3), np.diag([s, 1.0 / s]))
    rng = np.random.default_rng(4)
    a = rng.normal(size=(6, 3)) * 0.6
    cm = g.CovarianceMatrix(base + a @ a.T)
    t, t_tilde = ent._witness_pair(cm.m)
    assert np.linalg.eigvalsh(t - np.eye(2)).min() < -0.1  # shortcut unavailable
    verdict = ent.tripartite_classify(cm)
    assert verdict.class_id == 5 and verdict.certified


@pytest.mark.parametrize("tau,r", [(0.5, 1.1), (0.9, 1.1), (0.5, 1.02)])
def test_quadripartite_analytic_matches_numeric_other_panels(tau, r):
    rng = np.random.default_rng(int(tau * 100 + r * 1000))
    omega = r * envs.entanglement_breaking_threshold(tau)
    mu = 1e6
    checked = 0
    while checked < 25:
        gg = rng.uniform(-omega, omega)
        gp = rng.uniform(-omega, omega)
        try:
            env = ThermalEnvironment(tau, omega, gg, gp)
        except ValidationError:
            continue
        funcs = ent.quad_sigma_functions(tau, r, gg, gp)
        scale = 1.0 + abs(funcs["f"]) + abs(funcs["f_prime"]) + abs(funcs["f_double_prime"])
        if min(abs(funcs["sigma_prime"]), abs(funcs["sigma_double_prime"])) < 1e-6 * scale:
            continue
        cm = prot.evolved_cm(SwapInput(mu, env))
        assert (ent.quadripartite_numeric(cm, "a") == "separable-PPT") == (
            funcs["sigma_prime"] > 0.0
        )
        assert (ent.quadripartite_numeric(cm, "Ap") == "separable-PPT") == (
            funcs["sigma_double_prime"] > 0.0
        )
        checked += 1


# ---------------------------------------------------------------------------
# stacked evaluation against single cells

_UNIT = st.floats(-1.0, 1.0)
_MU = st.floats(1.0, 1e4)


def _assert_stack_matches_cells(mu, family, params):
    cells = np.broadcast_arrays(*params.values())
    try:
        singles = [
            prot.evolved_cm(SwapInput(mu, family(**dict(zip(params, map(float, values))))))
            for values in zip(*cells)
        ]
    except ValidationError:  # then the stack that holds the cell is rejected too
        with pytest.raises(ValidationError):
            prot.evolved_cm(mu, family, params)
        return
    stack = prot.evolved_cm(mu, family, params)
    assert np.array_equal(stack.m, np.stack([cm.m for cm in singles]))
    for modes in ([0], [1], [2], [3]):
        assert ent.ppt_min_eigenvalue(stack, modes).tolist() == [
            ent.ppt_min_eigenvalue(cm, modes) for cm in singles
        ]


@given(tau=st.floats(0.05, 0.95), omega=st.floats(1.0, 40.0), mu=_MU,
       cells=st.lists(st.tuples(_UNIT, _UNIT), min_size=1, max_size=6))
def test_stacked_thermal_states_equal_single_cells(tau, omega, mu, cells):
    g_, gp = (omega * np.array(c) for c in zip(*cells))
    physical, _, boundary = ThermalEnvironment.masks(tau=tau, omega=omega, g=g_, gp=gp)
    keep = physical & ~boundary
    assume(keep.any())
    _assert_stack_matches_cells(mu, ThermalEnvironment,
                                {"tau": tau, "omega": omega, "g": g_[keep], "gp": gp[keep]})


@given(n=st.floats(0.0, 10.0), mu=_MU,
       cells=st.lists(st.tuples(_UNIT, _UNIT), min_size=1, max_size=6))
def test_stacked_additive_states_equal_single_cells(n, mu, cells):
    c, cp = (np.array(v) for v in zip(*cells))
    _assert_stack_matches_cells(mu, AdditiveEnvironment, {"n": n, "c": c, "cp": cp})


def test_quad_sigma_functions_overflow_to_inf_instead_of_raising():
    # r^4 past float64 is inf, so sigma' and sigma'' are the finite f
    with np.errstate(over="ignore"):
        funcs = ent.quad_sigma_functions(0.5, 1e100, 0.0, 0.0)
    assert np.isinf(funcs["zeta"]) and funcs["sigma_prime"] == funcs["f"] == funcs["sigma_double_prime"]


def _eager_min_eig_tol(m):
    """max(PSD_ABS_TOL, PSD_REL_TOL * ||m||_2) with the eigenvalues of every matrix."""
    return np.maximum(ent.PSD_ABS_TOL, ent.PSD_REL_TOL * np.abs(np.linalg.eigvalsh(m)).max(axis=-1))


@pytest.mark.parametrize("mu", [52.0, 3e4, 1e5, 1e6, 1e12])
def test_min_eig_tol_equals_the_formula_over_every_matrix(mu):
    # the max|m_ij| screen skips eigenvalues only where they cannot
    # matter: the tolerances are bit for bit those of the eager formula, for
    # the evolved states, their tripartite reductions and the witness blocks
    g_, gp = (a.ravel() for a in np.meshgrid(np.linspace(-19.0, 19.0, 9), np.linspace(-19.0, 19.0, 9)))
    physical = ThermalEnvironment.masks(tau=TAU, omega=20.5, g=g_, gp=gp)[0]
    cm = prot.evolved_cm(mu, ThermalEnvironment, {"tau": TAU, "omega": 20.5, "g": g_[physical],
                                                  "gp": gp[physical]})
    tri = cm.reduced((0, 2, 3)).m
    t, t_tilde = ent._witness_pair(tri)
    stacks = [cm.m, tri, t.real, t_tilde.real, cm.m[0]]
    for m in stacks:
        lazy = ent._min_eig_tol(m)
        assert lazy.shape == m.shape[:-2] and lazy.tobytes() == _eager_min_eig_tol(m).tobytes()
    assert (ent._min_eig_tol(cm.m) > ent.PSD_ABS_TOL).any() == (mu >= 1e5)  # ||V||_2 ~ 1.9 mu


def test_numeric_regions_of_a_stack_are_those_of_each_state():
    g_ = np.linspace(-19.0, 19.0, 7)
    cm = prot.evolved_cm(1e12, ThermalEnvironment, {"tau": TAU, "omega": EB_NOISE, "g": g_, "gp": -g_})
    stacked = ent.quadripartite_numeric_regions(cm)
    for k, m in enumerate(cm.m):
        single = ent.quadripartite_numeric_regions(m)
        assert [float(v[k]) for v in stacked] == [float(v) for v in single]
    with pytest.raises(ValidationError, match="four-mode"):
        ent.quadripartite_numeric_regions(cm.reduced((0, 2, 3)))
