"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Criterion 8's positivity clause is implemented exactly as stated and
is expected to fail: with the pinned relay-loss model (vacuum admixture at
98% transmissivity, eavesdropper holding the full purification) the
reconstructed rate at reconciliation efficiency 0.97 is negative over most
of the entanglement-breaking window; see notes in the repository history.
"""

import json
import math
import time
from collections import deque

import numpy as np
import pytest

from conftest import random_thermal_env
from cvrelay import entanglement as ent
from cvrelay import environments as envs
from cvrelay import experiment as ex
from cvrelay import gaussian as g
from cvrelay import protocols as prot
from cvrelay.cli import main as cli_main
from cvrelay.environments import AdditiveEnvironment, ThermalEnvironment
from cvrelay.gaussian import GaussianState, ValidationError
from cvrelay.protocols import SwapInput

TAU = 0.9
W_EB = 19.0
EB_NOISE = 19.38  # 1.02 * omega_EB, the working point of the reactivation plots
GRID = np.linspace(-EB_NOISE, EB_NOISE, 201)


def _sample_inputs(rng, count):
    out = []
    for _ in range(count):
        env = random_thermal_env(rng)
        out.append(SwapInput(rng.uniform(1.01, 100.0), env))
    return out


def _bisect(fn, lo, hi, tol=1e-9):
    flo = fn(lo)
    assert (flo > 0.0) != (fn(hi) > 0.0)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if (fn(mid) > 0.0) == (flo > 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# criterion 1


def test_criterion_1_oracle_closure():
    started = time.monotonic()
    rng = np.random.default_rng(2026)
    worst = 0.0
    for inp in _sample_inputs(rng, 1000):
        state = GaussianState(np.zeros(8), prot.evolved_cm(inp), ("a", "b", "Ap", "Bp"))
        oracle = g.condition_on_gaussian_measurement(
            state, [2, 3], "bell", rng.normal(size=2)
        )
        worst = max(worst, float(np.abs(oracle.cm.m - prot.swapped_cm(inp).m).max()))
    elapsed = time.monotonic() - started
    assert worst < 1e-10, worst
    assert elapsed < 10.0, elapsed
    print(f"criterion 1 (oracle closure): PASS  worst |diff| = {worst:.3g}, {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# criterion 2


def test_criterion_2_swapped_entanglement_formula():
    rng = np.random.default_rng(2026)
    worst = 0.0
    for inp in _sample_inputs(rng, 1000):
        eps = prot.protocol_report(inp).epsilon
        oracle = g.smallest_pts_eigenvalue(prot.swapped_cm(inp), [0])
        worst = max(worst, abs(eps - oracle))
    assert worst < 1e-10, worst
    # mu = 1: no input entanglement, eps is exactly one
    for _ in range(25):
        env = random_thermal_env(rng)
        assert prot.protocol_report(SwapInput(1.0, env)).epsilon == 1.0
    # mu -> infinity approaches sqrt(kappa kappa'); 1e-3 absolute in the
    # swapping regime and relative above it, where eps itself is large
    for _ in range(200):
        env = random_thermal_env(rng)
        eps_opt = prot.protocol_report_asymptotic(env).epsilon
        diff = abs(prot.protocol_report(SwapInput(1e6, env)).epsilon - eps_opt)
        assert diff < 1e-3 * max(1.0, eps_opt)
    print(f"criterion 2 (swapped-entanglement formula): PASS  worst |diff| = {worst:.3g}")


# ---------------------------------------------------------------------------
# criterion 3


def test_criterion_3_entanglement_breaking_reproduction():
    started = time.monotonic()
    assert envs.entanglement_breaking_threshold(TAU) == pytest.approx(19.0, abs=1e-12)
    mu = 1e4
    rng = np.random.default_rng(7)
    sample = [ThermalEnvironment(TAU, EB_NOISE)]  # Markovian point first
    while len(sample) < 20:
        try:
            env = ThermalEnvironment(
                TAU, EB_NOISE, rng.uniform(-EB_NOISE, EB_NOISE), rng.uniform(-EB_NOISE, EB_NOISE)
            )
        except ValidationError:
            continue
        if env.is_separable and not env.is_boundary:
            sample.append(env)
    # strong-correlation corners of the separable region
    sample.append(ThermalEnvironment(TAU, EB_NOISE, 18.0, -18.0))
    sample.append(ThermalEnvironment(TAU, EB_NOISE, -18.0, 18.0))
    for env in sample:
        inp = SwapInput(mu, env)
        cm = prot.evolved_cm(inp)
        survey = ent._link_log_negativities(mu, *ThermalEnvironment.links(**vars(env)))
        assert all(v == 0.0 for v in survey), (env, survey)
        assert ent.tripartite_classify(cm.reduced([0, 2, 1])).class_id == 5
        assert ent.tripartite_classify(cm.reduced([0, 3, 1])).class_id == 5
    # the aA'B' triplet is fully separable at the Markovian point
    markov = ent.tripartite_classify(prot.evolved_cm(SwapInput(mu, sample[0])).reduced((0, 2, 3)))
    assert markov.class_id == 5 and markov.certified
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, elapsed
    print(
        "criterion 3 (entanglement breaking): PASS  "
        f"{len(sample)} environments, {elapsed:.1f} s"
    )


# ---------------------------------------------------------------------------
# criterion 4


def _classify_grid():
    """Analytic quadripartite region for every grid cell; None = nonphysical."""
    cells = {}
    for i, gg in enumerate(GRID):
        for j, gp in enumerate(GRID):
            try:
                env = ThermalEnvironment(TAU, EB_NOISE, float(gg), float(gp))
            except ValidationError:
                continue
            cells[(i, j)] = (env, ent.quadripartite_classify(env))
    return cells


def test_criterion_4_quadripartite_ring():
    started = time.monotonic()
    cells = _classify_grid()
    regions = {}
    for (i, j), (env, reg) in cells.items():
        if env.is_separable:
            regions.setdefault(reg.region, set()).add((i, j))
    # connected region-I neighbourhood of the origin
    origin = (100, 100)
    assert origin in regions["I"]
    seen = {origin}
    queue = deque([origin])
    while queue:
        i, j = queue.popleft()
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nb = (i + di, j + dj)
            if nb in regions["I"] and nb not in seen:
                seen.add(nb)
                queue.append(nb)
    assert seen == regions["I"], "region I is not a single connected component"
    for outer in ("II", "III", "IV"):
        assert regions.get(outer), f"region {outer} missing from the separable plane"

    # numeric cross-check of the analytic classifier at mu = 1e6
    mu = 1e6
    total = agree = excluded = 0
    for (i, j), (env, reg) in cells.items():
        funcs = ent.quad_sigma_functions(TAU, EB_NOISE / W_EB, env.g, env.gp)
        scale = 1.0 + abs(funcs["f"]) + abs(funcs["f_prime"]) + abs(funcs["f_double_prime"])
        if min(abs(reg.sigma_prime), abs(reg.sigma_double_prime)) < 1e-6 * scale:
            excluded += 1
            continue
        cm = prot.evolved_cm(SwapInput(mu, env))
        num_a = ent.quadripartite_numeric(cm, "a") == "separable-PPT"
        num_ap = ent.quadripartite_numeric(cm, "Ap") == "separable-PPT"
        total += 1
        agree += (num_a == (reg.sigma_prime > 0.0)) and (
            num_ap == (reg.sigma_double_prime > 0.0)
        )
    rate = agree / total
    assert rate >= 0.999, (agree, total)
    elapsed = time.monotonic() - started
    print(
        "criterion 4 (quadripartite ring): PASS  "
        f"agreement {agree}/{total} ({rate:.6f}), excluded {excluded}, {elapsed:.0f} s"
    )


# ---------------------------------------------------------------------------
# criterion 5


def test_criterion_5_protocol_nesting():
    swap_cells = dist_cells = lb_cells = 0
    for gg in GRID:
        for gp in GRID:
            try:
                env = ThermalEnvironment(TAU, EB_NOISE, float(gg), float(gp))
            except ValidationError:
                continue
            if not env.is_separable:
                continue
            rep = prot.protocol_report_asymptotic(env)
            eps, coh, r_lb = rep.epsilon, rep.coherent_info, rep.key_rate_lb
            swap_ok, dist_ok, lb_ok = eps < 1.0, coh > 0.0, r_lb > 0.0
            # pointwise nesting
            if lb_ok:
                assert dist_ok
            if dist_ok:
                assert swap_ok
            swap_cells += swap_ok
            dist_cells += dist_ok
            lb_cells += lb_ok
    assert lb_cells > 0
    assert dist_cells > lb_cells  # strict inclusions with nonzero area
    assert swap_cells > dist_cells

    # threshold values recovered by bisection along the antidiagonal g' = -g
    def eps_at(gv):
        return prot.protocol_report_asymptotic(ThermalEnvironment(TAU, EB_NOISE, gv, -gv)).epsilon

    g_swap = _bisect(lambda gv: 1.0 - eps_at(gv), 5.0, 18.3)
    g_dist = _bisect(
        lambda gv: prot.protocol_report_asymptotic(
            ThermalEnvironment(TAU, EB_NOISE, gv, -gv)
        ).coherent_info,
        5.0,
        18.3,
    )
    g_lb = _bisect(
        lambda gv: prot.protocol_report_asymptotic(
            ThermalEnvironment(TAU, EB_NOISE, gv, -gv)
        ).key_rate_lb,
        5.0,
        18.3,
    )
    assert abs(eps_at(g_swap) - 1.0) < 1e-3
    assert abs(eps_at(g_dist) - math.exp(-1.0)) < 1e-3
    assert abs(eps_at(g_lb) - 0.192) < 1e-3
    print(
        "criterion 5 (protocol nesting): PASS  "
        f"cells swap/distill/qkd-lb = {swap_cells}/{dist_cells}/{lb_cells}, "
        f"thresholds eps = 1, {eps_at(g_dist):.4f}, {eps_at(g_lb):.4f}"
    )


# ---------------------------------------------------------------------------
# criterion 6


def test_criterion_6_teleportation_link():
    worst = 0.0
    for gv in np.linspace(0.0, 18.3, 400):
        env = ThermalEnvironment(TAU, EB_NOISE, float(gv), float(-gv))
        f_opt = prot.protocol_report_asymptotic(env).fidelity
        eps_opt = prot.protocol_report_asymptotic(env).epsilon
        worst = max(worst, abs(f_opt - 1.0 / (1.0 + eps_opt)))
    assert worst < 1e-12, worst
    # quantum teleportation at mu = 6.5 survives entanglement-breaking noise
    quantum_cells = 0
    for gv in np.linspace(14.0, 18.3, 40):
        env = ThermalEnvironment(TAU, EB_NOISE, float(gv), float(-gv))
        if env.is_separable and prot.protocol_report(SwapInput(6.5, env)).fidelity > 0.5:
            quantum_cells += 1
    assert quantum_cells > 0
    print(
        "criterion 6 (teleportation link): PASS  "
        f"worst antidiagonal gap = {worst:.3g}, quantum cells at mu=6.5: {quantum_cells}"
    )


# ---------------------------------------------------------------------------
# criterion 7


def test_criterion_7_additive_qkd():
    assert prot.repeater_bound_phi(2.0) == 0.0
    ns = np.linspace(2.01, 4.0, 120)
    rates = [prot.qkd_rate(SwapInput(52.0, AdditiveEnvironment(float(n), 1.0, 1.0)), 1.0) for n in ns]
    assert all(r > 0.0 for r in rates)
    assert all(a > b for a, b in zip(rates, rates[1:]))

    def gap(n):
        rate = prot.qkd_rate(SwapInput(52.0, AdditiveEnvironment(n, 1.0, 1.0)), 1.0)
        return rate - prot.repeater_bound_phi(n)

    crossing = _bisect(gap, 0.2, 1.5)
    assert abs(crossing - 0.369) < 0.01, crossing
    print(
        "criterion 7 (additive QKD): PASS  "
        f"rate(n=4) = {rates[-1]:.4f}, repeater-bound crossing n = {crossing:.4f}"
    )


# ---------------------------------------------------------------------------
# criterion 8


N_SWEEP = np.linspace(0.0, 4.0, 17)
SWEEP_SHOTS = 10**6
SWEEP_SEED = 2026


@pytest.fixture(scope="module")
def experiment_sweep():
    """17-point simulated sweep at eta = 0.98, mu = 52, 1e6 shots per point."""
    started = time.monotonic()
    points = []
    for idx, n in enumerate(N_SWEEP):
        env = AdditiveEnvironment(float(n), 1.0, 1.0)
        config = ex.ExperimentConfig(
            mu=52.0,
            env=env,
            shots=SWEEP_SHOTS,
            seed=SWEEP_SEED,
            relay_efficiency=0.98,
            xi=0.97,
            stream=idx,
        )
        est = ex.run_point(config)
        points.append(
            {
                "n": float(n),
                "rate_097": prot.key_rate_from_cm(est.cm_hat, 0.97)["rate"],
                "rate_1": prot.key_rate_from_cm(est.cm_hat, 1.0)["rate"],
                "theory_097": prot.qkd_rate(SwapInput(52.0, env), 0.97),
                "theory_1": prot.qkd_rate(SwapInput(52.0, env), 1.0),
            }
        )
    return points, time.monotonic() - started


def test_criterion_8_runtime(experiment_sweep):
    _, elapsed = experiment_sweep
    assert elapsed < 300.0, elapsed
    print(f"criterion 8 (runtime): PASS  17-point sweep in {elapsed:.0f} s")


def test_criterion_8_below_lossless_theory(experiment_sweep):
    points, _ = experiment_sweep
    for p in points:
        assert p["rate_097"] < p["theory_097"], p
        assert p["rate_1"] < p["theory_1"], p
    print("criterion 8 (below lossless theory at every n): PASS")


def test_criterion_8_estimator_consistency_slope():
    env = AdditiveEnvironment(1.0, 0.6, 0.4)
    r_true = prot.qkd_rate(SwapInput(52.0, env), 1.0)
    maes = []
    for shots in (10**4, 10**5, 10**6):
        errs = []
        for seed in range(12):
            cfg = ex.ExperimentConfig(mu=52.0, env=env, shots=shots, seed=seed)
            est = ex.run_point(cfg)
            errs.append(abs(est.key_rate_hat - r_true))
        maes.append(float(np.mean(errs)))
    slope = float(np.polyfit(np.log10([1e4, 1e5, 1e6]), np.log10(maes), 1)[0])
    assert -0.5 - 0.15 <= slope <= -0.5 + 0.15, (maes, slope)
    print(f"criterion 8 (estimator consistency): PASS  slope = {slope:.3f}")


def test_criterion_8_experimental_positivity_in_eb_region(experiment_sweep):
    """Faithful implementation of the stated positivity clause.

    The clause cannot hold in this model: at xi = 0.97 the reconstructed
    rate is negative near n = 4 even for a lossless relay (the closed-form
    rate R(0.97, 52, 0, 2n) crosses zero near n = 3.6), and the 2% untrusted
    relay loss shifts both kappas by (1 - eta)/eta = 0.0204, which at mu = 52
    costs over half a bit.  The assertion is kept as stated; the failure is
    the documented, expected outcome.
    """
    points, _ = experiment_sweep
    inside = [p for p in points if 2.0 < p["n"] <= 4.0]
    assert inside
    failures = [(p["n"], p["rate_097"]) for p in inside if p["rate_097"] <= 0.0]
    assert not failures, f"rate not positive over 2 < n <= 4: {failures}"
    print("criterion 8 (positivity over 2 < n <= 4): PASS")


# ---------------------------------------------------------------------------
# criterion 9


def test_criterion_9_determinism_and_schema(capsys, tmp_path):
    # identical seeds reproduce bit-identical experiment reports
    args = ["experiment", "--n", "0:4:2", "--mu", "52", "--eta", "0.98",
            "--xi", "0.97", "--shots", "5000", "--seed", "77"]
    assert cli_main(args) == 0
    first = capsys.readouterr().out
    assert cli_main(args) == 0
    assert capsys.readouterr().out == first
    doc = json.loads(first)
    assert doc["rng"] == {
        "algorithm": "philox4x64",
        "key_scheme": "key=[seed, point_index]",
        "draws_per_shot": 16,
        "chunk_shots": 65536,
    }
    point_keys = set(doc["points"][0])
    assert point_keys == {
        "n", "key_rate_hat", "mutual_info", "holevo", "cm_hat", "stderr_bands",
        "sample_count", "key_rate_theory", "repeater_bound",
    }

    # scan output schema-stable and independent of the thread count
    scan_args = ["scan", "--protocol", "qkd-asymptotic", "--tau", "0.9",
                 "--omega", "19.38", "--g", "-19:19:2", "--gp", "-19:19:2"]
    assert cli_main(scan_args) == 0
    base = capsys.readouterr().out
    header = base.split("\r\n", 1)[0]
    assert header == "g,gp,physical,separable,boundary,epsilon_opt,rate_opt,rate_lb,qkd_ok"
    for threads in ("2", "5"):
        assert cli_main(scan_args + ["--threads", threads]) == 0
        assert capsys.readouterr().out == base

    # shot-dump schema
    dump = tmp_path / "shots.csv"
    assert cli_main(["experiment", "--n", "1", "--mu", "52", "--shots", "4",
                     "--seed", "5", "--dump", str(dump)]) == 0
    capsys.readouterr()
    assert dump.read_bytes().decode().split("\r\n")[0] == "qa,pa,qb,pb,qg,pg"
    print("criterion 9 (determinism and schema): PASS")
