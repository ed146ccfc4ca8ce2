import ast
import functools
import importlib
import math
import re
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cvrelay
from cvrelay import environments, protocols

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_name_the_benchmark_oracle_uses_is_exported():
    # the oracle reaches the library only through ``cv.<name>``, and the
    # tracer wraps the names it lists per module; an API trim that drops one
    # of those names would break the benchmark, not the tests
    names = set(re.findall(r"\bcv\.(\w+)", (PERFBENCH / "oracle.py").read_text(encoding="utf-8")))
    assert names
    assert sorted(name for name in names if not hasattr(cvrelay, name)) == []
    traced = runpy.run_path(str(PERFBENCH / "tracer.py"))["TRACED"]
    missing = [f"{layer}.{name}" for layer, (classes, functions) in traced.items()
               for name in (*classes, *(functions or ()))
               if not hasattr(importlib.import_module(f"cvrelay.{layer}"), name)]
    assert missing == [], "names perfbench/tracer.py traces but cvrelay no longer defines"


_THERMAL_ENV, _ADDITIVE_ENV = cvrelay.ThermalEnvironment(0.9, 2.0), cvrelay.AdditiveEnvironment(1.0, 0.5, 0.5)
_STATE2 = cvrelay.GaussianState(np.zeros(4), cvrelay.vacuum_cm(2))
_CONFIG = cvrelay.ExperimentConfig(52.0, _ADDITIVE_ENV, 10_000, 1)
_HUGE_INT = 10**400
_SWAPPED = cvrelay.swapped_cm(cvrelay.SwapInput(6.5, cvrelay.ThermalEnvironment(0.9, 19.38, 18.0, -18.0)))
_NAN4, _INF4, _NAN6 = np.full((4, 4), math.nan), np.diag([math.inf, 1.0, 1.0, 1.0]), np.full((6, 6), math.nan)
_NON_FINITE_CALLS = {
    "entropic_h(nan)": lambda: cvrelay.entropic_h(math.nan),
    "entropic_h([3, nan])": lambda: cvrelay.entropic_h([3.0, math.nan]),
    "tmsv_cm(inf)": lambda: cvrelay.tmsv_cm(math.inf),
    "thermal_cm(inf)": lambda: cvrelay.thermal_cm(math.inf),
    "rotation(inf)": lambda: cvrelay.rotation(math.inf),
    "rotation(-inf)": lambda: cvrelay.rotation(-math.inf),
    "rotation(nan)": lambda: cvrelay.rotation(math.nan),
    "quadrature_squeezer(nan)": lambda: cvrelay.quadrature_squeezer(math.nan),
    "quadrature_squeezer(inf)": lambda: cvrelay.quadrature_squeezer(math.inf),
    "ppt_min_eigenvalue(nan 4x4)": lambda: cvrelay.ppt_min_eigenvalue(_NAN4, [0]),
    "tripartite_classify(nan 6x6)": lambda: cvrelay.tripartite_classify(_NAN6),
    "smallest_pts_eigenvalue(nan 4x4)": lambda: cvrelay.smallest_pts_eigenvalue(_NAN4, [0]),
    "smallest_pts_eigenvalue(nan 6x6)": lambda: cvrelay.smallest_pts_eigenvalue(_NAN6, [2]),
    "two_mode_spectrum(nan 4x4)": lambda: cvrelay.two_mode_spectrum(_NAN4),
    "log_negativity(inf 4x4)": lambda: cvrelay.log_negativity(_INF4, [0]),
    "key_rate_from_cm(nan 4x4)": lambda: cvrelay.key_rate_from_cm(_NAN4),
    "key_rate_from_cm(inf 4x4)": lambda: cvrelay.key_rate_from_cm(_INF4),
    "SymplecticMatrix(nan 2x2)": lambda: cvrelay.SymplecticMatrix(np.full((2, 2), math.nan)),
    "SymplecticMatrix(inf 4x4)": lambda: cvrelay.SymplecticMatrix(_INF4),
    "thermal_reactivation_g(0.9, nan)": lambda: cvrelay.thermal_reactivation_g(0.9, math.nan),
    "thermal_reactivation_g(omega=inf)": lambda: cvrelay.thermal_reactivation_g(0.9, 1.0, math.inf),
    "additive_reactivation_c(nan, 0.5)": lambda: cvrelay.additive_reactivation_c(math.nan, 0.5),
    "additive_reactivation_c(1, nan)": lambda: cvrelay.additive_reactivation_c(1.0, math.nan),
    "quad_sigma_functions(tau=inf)": lambda: cvrelay.quad_sigma_functions(math.inf, 1.1, 0.0, 0.0),
    "quad_sigma_functions(tau=-inf)": lambda: cvrelay.quad_sigma_functions(-math.inf, 1.1, 0.0, 0.0),
    "quad_sigma_functions(r=nan)": lambda: cvrelay.quad_sigma_functions(0.5, math.nan, 0.0, 0.0),
    "quad_sigma_functions(g=[0, inf])": lambda: cvrelay.quad_sigma_functions(0.5, 1.1, [0.0, math.inf], 0.0),
    "ExperimentConfig(shots=nan)": lambda: cvrelay.ExperimentConfig(52.0, _ADDITIVE_ENV, math.nan, 1),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("call", _NON_FINITE_CALLS.values(), ids=_NON_FINITE_CALLS.keys())
def test_non_finite_input_is_rejected_at_the_library_entry(call):
    # a ValidationError before any numpy warning, LinAlgError or silent nan
    with pytest.raises(cvrelay.ValidationError):
        call()


_OUT_OF_DOMAIN_CALLS = {
    "thermal_reactivation_g(tau=0, omega=2)": lambda: cvrelay.thermal_reactivation_g(0.0, 1.0, 2.0),
    "thermal_reactivation_g(g'=-omega)": lambda: cvrelay.thermal_reactivation_g(0.5, -3.0, 3.0),
    "additive_reactivation_c(1, -1)": lambda: cvrelay.additive_reactivation_c(1.0, -1.0),
    "additive_reactivation_c(0, 0.5)": lambda: cvrelay.additive_reactivation_c(0.0, 0.5),
    "quad_sigma_functions(tau=1e160)": lambda: cvrelay.quad_sigma_functions(1e160, 1.1, 0.0, 0.0),
    "quad_sigma_functions(tau=1)": lambda: cvrelay.quad_sigma_functions(1.0, 1.1, 0.0, 0.0),
    "ExperimentConfig(shots=10000.5)": lambda: cvrelay.ExperimentConfig(52.0, _ADDITIVE_ENV, 10_000.5, 1),
    "ExperimentConfig(seed=1.5)": lambda: cvrelay.ExperimentConfig(52.0, _ADDITIVE_ENV, 10_000, 1.5),
    "ExperimentConfig(seed=2**64)": lambda: cvrelay.ExperimentConfig(52.0, _ADDITIVE_ENV, 10_000, 2**64),
    "ExperimentConfig(stream=-1)": lambda: cvrelay.ExperimentConfig(52.0, _ADDITIVE_ENV, 10_000, 1, stream=-1),
    "ExperimentConfig(stream=2**64)": lambda: cvrelay.ExperimentConfig(52.0, _ADDITIVE_ENV, 10_000, 1, stream=2**64),
    "ExperimentConfig(thermal env)": lambda: cvrelay.ExperimentConfig(52.0, _THERMAL_ENV, 10_000, 1),
    "thermal_env_cm(additive env)": lambda: cvrelay.thermal_env_cm(_ADDITIVE_ENV),
    "env_mutual_information(additive env)": lambda: cvrelay.env_mutual_information(_ADDITIVE_ENV),
    "additive_limit(additive env)": lambda: cvrelay.additive_limit(_ADDITIVE_ENV),
    "quadripartite_classify(additive env)": lambda: cvrelay.quadripartite_classify(_ADDITIVE_ENV),
    "additive_env_classical_cm(thermal env)": lambda: cvrelay.additive_env_classical_cm(_THERMAL_ENV),
    "GaussianState(array cm)": lambda: cvrelay.GaussianState(np.zeros(4), np.eye(4)),
    "ExperimentConfig(mu='52')": lambda: cvrelay.ExperimentConfig("52", _ADDITIVE_ENV, 10_000, 1),
    "ExperimentConfig(relay_efficiency='x')": lambda: cvrelay.ExperimentConfig(
        52.0, _ADDITIVE_ENV, 10_000, 1, relay_efficiency="x"),
    "ExperimentConfig(xi='x')": lambda: cvrelay.ExperimentConfig(52.0, _ADDITIVE_ENV, 10_000, 1, xi="x"),
    "AdditiveEnvironment('1')": lambda: cvrelay.AdditiveEnvironment("1"),
    "ThermalEnvironment('0.9', 19.38)": lambda: cvrelay.ThermalEnvironment("0.9", 19.38),
    "SwapInput('52', env)": lambda: cvrelay.SwapInput("52", _ADDITIVE_ENV),
    "SwapInput(52, 'env')": lambda: cvrelay.SwapInput(52.0, "env"),
    "protocol_report(inp, 'x')": lambda: cvrelay.protocol_report(cvrelay.SwapInput(52.0, _ADDITIVE_ENV), "x"),
    "relay_metrics(52, 1, 1, 'x')": lambda: protocols.relay_metrics(52.0, 1.0, 1.0, "x"),
    "smallest_pts_eigenvalue(4x4, [7])": lambda: cvrelay.smallest_pts_eigenvalue(cvrelay.tmsv_cm(3.0), [7]),
    "log_negativity(4x4, [-1])": lambda: cvrelay.log_negativity(cvrelay.tmsv_cm(3.0), [-1]),
    "two_mode_spectrum(indefinite 4x4)": lambda: cvrelay.two_mode_spectrum(np.diag([1.0, 1.0, -1.0, -1.0])),
    "smallest_pts_eigenvalue(asymmetric 4x4)": lambda: cvrelay.smallest_pts_eigenvalue(
        np.eye(4) + np.triu(np.full((4, 4), 0.1), 1), [0]),
    "CovarianceMatrix.reduced([0, 0])": lambda: cvrelay.vacuum_cm(2).reduced([0, 0]),
    "GaussianState(mean of 3, 2 modes)": lambda: cvrelay.GaussianState(np.zeros(3), cvrelay.vacuum_cm(2)),
    "GaussianState(1 label, 2 modes)": lambda: cvrelay.GaussianState(np.zeros(4), cvrelay.vacuum_cm(2), ("a",)),
    "expand_symplectic(2 modes onto [0])": lambda: cvrelay.expand_symplectic(cvrelay.beam_splitter(0.5), [0], 3),
    "permute_modes([0, 0])": lambda: cvrelay.permute_modes(_STATE2, [0, 0]),
    "apply_symplectic(1 mode onto 2)": lambda: cvrelay.apply_symplectic(_STATE2, cvrelay.rotation(0.1)),
    "apply_symplectic(d of 3)": lambda: cvrelay.apply_symplectic(_STATE2, cvrelay.beam_splitter(0.5), [0.0] * 3),
    "condition_on_gaussian_measurement(kind='homodyne')": lambda: cvrelay.condition_on_gaussian_measurement(
        _STATE2, [0], "homodyne"),
    "condition_on_gaussian_measurement(outcome of 1)": lambda: cvrelay.condition_on_gaussian_measurement(
        _STATE2, [0], "heterodyne", [0.0]),
    # a Python int past float64 at a scalar entry: compared exactly, never converted
    "ThermalEnvironment(omega=10**400)": lambda: cvrelay.ThermalEnvironment(0.5, _HUGE_INT, 0, 0),
    "AdditiveEnvironment(10**400)": lambda: cvrelay.AdditiveEnvironment(_HUGE_INT),
    "SwapInput(10**400, env)": lambda: cvrelay.SwapInput(_HUGE_INT, _ADDITIVE_ENV),
    "ExperimentConfig(mu=10**400)": lambda: cvrelay.ExperimentConfig(_HUGE_INT, _ADDITIVE_ENV, 10_000, 1),
    "quad_sigma_functions(r=10**400)": lambda: cvrelay.quad_sigma_functions(0.5, _HUGE_INT, 0, 0),
    "thermal_reactivation_g(omega=10**400)": lambda: cvrelay.thermal_reactivation_g(0.5, 0, _HUGE_INT),
    "additive_reactivation_c(10**400, 0)": lambda: cvrelay.additive_reactivation_c(_HUGE_INT, 0),
    "thermal_cm(10**400)": lambda: cvrelay.thermal_cm(_HUGE_INT),
    "tmsv_cm(10**400)": lambda: cvrelay.tmsv_cm(_HUGE_INT),
    "quadrature_squeezer(10**400)": lambda: cvrelay.quadrature_squeezer(_HUGE_INT),
    "rotation(-10**400)": lambda: cvrelay.rotation(-_HUGE_INT),
    # a mode listed twice, on every path through the partial transpose
    "partial_transpose(4x4, [0, 0])": lambda: cvrelay.partial_transpose(_SWAPPED, [0, 0]),
    "smallest_pts_eigenvalue(4x4, [0, 0])": lambda: cvrelay.smallest_pts_eigenvalue(_SWAPPED, [0, 0]),
    "log_negativity(4x4, [0, 0])": lambda: cvrelay.log_negativity(_SWAPPED, [0, 0]),
    "ppt_min_eigenvalue(8x8, [0, 0])": lambda: cvrelay.ppt_min_eigenvalue(
        cvrelay.evolved_cm(cvrelay.SwapInput(6.5, _ADDITIVE_ENV)), [0, 0]),
    # a mode that is not an integer, or a mode list that is not iterable
    "partial_transpose(4x4, [0.5])": lambda: cvrelay.partial_transpose(np.eye(4), [0.5]),
    "log_negativity(4x4, [0.5])": lambda: cvrelay.log_negativity(np.eye(4), [0.5]),
    "quadripartite_numeric(8x8, 1.5)": lambda: cvrelay.quadripartite_numeric(np.eye(8), 1.5),
    "CovarianceMatrix.reduced([0.5])": lambda: cvrelay.vacuum_cm(2).reduced([0.5]),
    "GaussianState.reduced([1.0])": lambda: _STATE2.reduced([1.0]),
    "permute_modes([1.0, 0])": lambda: cvrelay.permute_modes(_STATE2, [1.0, 0]),
    "partial_transpose(4x4, 0)": lambda: cvrelay.partial_transpose(np.eye(4), 0),
    "ppt_min_eigenvalue(4x4, 0)": lambda: cvrelay.ppt_min_eigenvalue(np.eye(4), 0),
    "smallest_pts_eigenvalue(4x4, 0)": lambda: cvrelay.smallest_pts_eigenvalue(np.eye(4), 0),
    "expand_symplectic(beam_splitter, 0, 2)": lambda: cvrelay.expand_symplectic(cvrelay.beam_splitter(0.5), 0, 2),
    "condition_on_gaussian_measurement(modes=0)": lambda: cvrelay.condition_on_gaussian_measurement(
        _STATE2, 0, "heterodyne"),
    # a count that is not an integer
    "symplectic_form(1.5)": lambda: cvrelay.symplectic_form(1.5),
    "symplectic_form(2.0), 2 cached": lambda: (cvrelay.symplectic_form(2), cvrelay.symplectic_form(2.0)),
    "vacuum_cm(1.5)": lambda: cvrelay.vacuum_cm(1.5),
    "thermal_cm(1, 2.5)": lambda: cvrelay.thermal_cm(1.0, 2.5),
    "expand_symplectic(beam_splitter, [0, 1], 2.0)": lambda: cvrelay.expand_symplectic(
        cvrelay.beam_splitter(0.5), [0, 1], 2.0),
    "simulate_shot_batch(config, 0, 2.5)": lambda: cvrelay.simulate_shot_batch(_CONFIG, 0, 2.5),
    "run_point(config, '4096')": lambda: cvrelay.run_point(_CONFIG, "4096"),
    "estimate_from_second_moments(cov, 'a')": lambda: cvrelay.estimate_from_second_moments(
        cvrelay.exact_second_moments(_CONFIG), "a"),
    # stack cells outside the family's physical mask, or a transmissivity
    # outside [0, 1], whose state float64 would validate: the band clamps
    # the additive ones to their edge state, and vacuum sources (mu = 1)
    # hide the thermal ones
    "evolved_cm(additive stack, n=-0.5)": lambda: cvrelay.evolved_cm(
        6.5, cvrelay.AdditiveEnvironment, {"n": -0.5, "c": 0.0, "cp": 0.0}),
    "evolved_cm(additive stack, c=1.5)": lambda: cvrelay.evolved_cm(
        6.5, cvrelay.AdditiveEnvironment, {"n": 1.0, "c": 1.5, "cp": 0.0}),
    "evolved_cm(thermal stack, mu=1, g=-g'=1.9 at omega=2)": lambda: cvrelay.evolved_cm(
        1.0, cvrelay.ThermalEnvironment, {"tau": 0.5, "omega": 2.0, "g": 1.9, "gp": -1.9}),
    "evolved_cm(thermal stack, mu=1, tau=1.2)": lambda: cvrelay.evolved_cm(
        1.0, cvrelay.ThermalEnvironment, {"tau": np.array([0.5, 1.2]), "omega": 1.0, "g": 0.0, "gp": 0.0}),
    # a params dict without the family's fields, or with a value that is no number
    "evolved_cm(additive stack, {'x': 1})": lambda: cvrelay.evolved_cm(6.5, cvrelay.AdditiveEnvironment, {"x": 1}),
    "evolved_cm(additive stack, no cp)": lambda: cvrelay.evolved_cm(
        6.5, cvrelay.AdditiveEnvironment, {"n": 1, "c": 0}),
    "evolved_cm(additive stack, n='a')": lambda: cvrelay.evolved_cm(
        6.5, cvrelay.AdditiveEnvironment, {"n": "a", "c": 0, "cp": 0}),
    "permute_modes(state, 0)": lambda: cvrelay.permute_modes(_STATE2, 0),
    "relay_metrics(6.5, 1j, 1)": lambda: protocols.relay_metrics(6.5, 1j, 1),
}


def _eye_with(v, n):
    """The n x n identity as nested lists, with v as its first entry."""
    rows = np.eye(n).tolist()
    rows[0][0] = v
    return rows


# every array entry, called with v inside its array
_ARRAY_ENTRIES = {
    "CovarianceMatrix": lambda v: cvrelay.CovarianceMatrix(_eye_with(v, 2)),
    "SymplecticMatrix": lambda v: cvrelay.SymplecticMatrix(_eye_with(v, 2)),
    "direct_sum": lambda v: cvrelay.direct_sum(_eye_with(v, 2)),
    "GaussianState.mean": lambda v: cvrelay.GaussianState([v, 0.0], cvrelay.vacuum_cm()),
    "displace": lambda v: cvrelay.displace(_STATE2, [v, 0.0, 0.0, 0.0]),
    "apply_symplectic(d)": lambda v: cvrelay.apply_symplectic(_STATE2, cvrelay.beam_splitter(0.5), [v, 0, 0, 0]),
    "condition_on_gaussian_measurement(outcome)": lambda v: cvrelay.condition_on_gaussian_measurement(
        _STATE2, [0], "heterodyne", [v, 0.0]),
    "key_rate_from_cm": lambda v: cvrelay.key_rate_from_cm(_eye_with(v, 4)),
    "estimate_from_second_moments": lambda v: cvrelay.estimate_from_second_moments(_eye_with(v, 6), 10),
    "symplectic_spectrum": lambda v: cvrelay.symplectic_spectrum(_eye_with(v, 2)),
    "von_neumann_entropy": lambda v: cvrelay.von_neumann_entropy(_eye_with(v, 2)),
    "two_mode_spectrum": lambda v: cvrelay.two_mode_spectrum(_eye_with(v, 4)),
    "partial_transpose": lambda v: cvrelay.partial_transpose(_eye_with(v, 2), [0]),
    "smallest_pts_eigenvalue": lambda v: cvrelay.smallest_pts_eigenvalue(_eye_with(v, 4), [0]),
    "log_negativity": lambda v: cvrelay.log_negativity(_eye_with(v, 4), [0]),
    "ppt_min_eigenvalue": lambda v: cvrelay.ppt_min_eigenvalue(_eye_with(v, 4), [0]),
    "tripartite_classify": lambda v: cvrelay.tripartite_classify(_eye_with(v, 6)),
    "quadripartite_numeric": lambda v: cvrelay.quadripartite_numeric(_eye_with(v, 8), 0),
    "entropic_h": lambda v: cvrelay.entropic_h([v, 2.0]),
    "relay_metrics(mu)": lambda v: protocols.relay_metrics([v, 2.0], 1.0, 1.0),
    "relay_metrics(kappa)": lambda v: protocols.relay_metrics(52.0, [v, 1.0], 1.0),
    "relay_metrics(kappa')": lambda v: protocols.relay_metrics(52.0, 1.0, [v, 1.0]),
    "quad_sigma_functions(g)": lambda v: cvrelay.quad_sigma_functions(0.5, 1.1, [v, 0.0], 0.0),
    "quad_sigma_functions(g')": lambda v: cvrelay.quad_sigma_functions(0.5, 1.1, 0.0, [v, 0.0]),
    "thermal_reactivation_g(g')": lambda v: cvrelay.thermal_reactivation_g(0.5, [v, 0.0]),
    "additive_reactivation_c(c')": lambda v: cvrelay.additive_reactivation_c(1.0, [v, 0.0]),
    "evolved_cm(mu stack)": lambda v: cvrelay.evolved_cm([v, 2.0], cvrelay.AdditiveEnvironment,
                                                         {"n": 1.0, "c": 0.0, "cp": 0.0}),
    "evolved_cm(params stack)": lambda v: cvrelay.evolved_cm(2.0, cvrelay.AdditiveEnvironment,
                                                             {"n": [v, 1.0], "c": 0.0, "cp": 0.0}),
}
# every scalar entry whose domain test compared its argument as it came
_SCALAR_ENTRIES = {
    "thermal_cm": cvrelay.thermal_cm,
    "tmsv_cm": cvrelay.tmsv_cm,
    "beam_splitter": cvrelay.beam_splitter,
    "quadrature_squeezer": cvrelay.quadrature_squeezer,
    "rotation": cvrelay.rotation,
    "entanglement_breaking_threshold": cvrelay.entanglement_breaking_threshold,
    "thermal_reactivation_g(tau)": lambda v: cvrelay.thermal_reactivation_g(v, 0.0),
    "thermal_reactivation_g(omega)": lambda v: cvrelay.thermal_reactivation_g(0.5, 0.0, v),
    "additive_reactivation_c(n)": lambda v: cvrelay.additive_reactivation_c(v, 0.0),
    "repeater_bound_phi": cvrelay.repeater_bound_phi,
    "quad_sigma_functions(tau)": lambda v: cvrelay.quad_sigma_functions(v, 1.1, 0.0, 0.0),
    "quad_sigma_functions(r)": lambda v: cvrelay.quad_sigma_functions(0.5, v, 0.0, 0.0),
}
# a Python int past float64 inside an array, or a string for the array
_OUT_OF_DOMAIN_CALLS |= {f"{name}(10**400 inside)": functools.partial(call, _HUGE_INT)
                         for name, call in _ARRAY_ENTRIES.items()}
_OUT_OF_DOMAIN_CALLS |= {f"{name}('abc')": functools.partial(call, "abc") for name, call in _ARRAY_ENTRIES.items()}
# anything but a real number at a scalar position (None is omega's default: the curve at omega_EB)
_OUT_OF_DOMAIN_CALLS |= {f"{name}({v!r})": functools.partial(call, v) for name, call in _SCALAR_ENTRIES.items()
                         for v in ("a", 1j, None, [1.0]) if (name, v) != ("thermal_reactivation_g(omega)", None)}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("call", _OUT_OF_DOMAIN_CALLS.values(), ids=_OUT_OF_DOMAIN_CALLS.keys())
def test_out_of_domain_input_is_rejected_at_the_library_entry(call):
    # finite input where the formula has no value, or an argument of the
    # wrong type (a string where a number goes included): a ValidationError, not a ZeroDivisionError, OverflowError,
    # TypeError, AttributeError or numpy warning
    with pytest.raises(cvrelay.ValidationError):
        call()


_BIG = np.finfo(float).max
_OVERFLOW_CALLS = {
    "key_rate_from_cm(1e308 I)": lambda: cvrelay.key_rate_from_cm(np.eye(4) * 1e308),
    "key_rate_from_cm(max off-diagonal)": lambda: cvrelay.key_rate_from_cm(
        np.eye(4) + _BIG * np.diag([1.0, 1.0], 2) + _BIG * np.diag([1.0, 1.0], -2)),
    "key_rate_from_cm(not PSD, grows under conditioning)": lambda: cvrelay.key_rate_from_cm(
        np.diag([0.0, 0.0, 1.0, 1.0]) + 1e153 * np.diag([1.0, 1.0], 2) + 1e153 * np.diag([1.0, 1.0], -2)),
    "teleport_correction(mu=1e200)": lambda: cvrelay.teleport_correction(
        cvrelay.SwapInput(1e200, cvrelay.AdditiveEnvironment(1.0))),
    "teleport_correction(n=1e200)": lambda: cvrelay.teleport_correction(
        cvrelay.SwapInput(6.5, cvrelay.AdditiveEnvironment(1e200))),
    "smallest_pts_eigenvalue(1e80 I)": lambda: cvrelay.smallest_pts_eigenvalue(np.eye(4) * 1e80, [0]),
    "quadrature_squeezer(1e-320)": lambda: cvrelay.quadrature_squeezer(1e-320),
    "additive_reactivation_c(1e-320, 0.5)": lambda: cvrelay.additive_reactivation_c(1e-320, 0.5),
    "thermal_reactivation_g(omega + g' = 1e-310)": lambda: cvrelay.thermal_reactivation_g(
        0.5, 1e-310 - 1e-300, 1e-300),
    "quad_sigma_functions(g=1e160)": lambda: cvrelay.quad_sigma_functions(0.5, 1.1, 1e160, 0.0),
    "quad_sigma_functions(g'=1e160)": lambda: cvrelay.quad_sigma_functions(0.5, 1.1, 0.0, 1e160),
    "quad_sigma_functions(r=1e160)": lambda: cvrelay.quad_sigma_functions(0.5, 1e160, 0.0, 0.0),
    "quad_sigma_functions(r=g=g'=1e150)": lambda: cvrelay.quad_sigma_functions(0.5, 1e150, 1e150, 1e150),
    "estimate_from_second_moments(1e308 I)": lambda: cvrelay.estimate_from_second_moments(
        np.diag(np.full(6, 1e308)), 10),
    "exact_second_moments(n=1e308, c=-1, c'=1)": lambda: cvrelay.exact_second_moments(
        cvrelay.ExperimentConfig(52.0, cvrelay.AdditiveEnvironment(1e308, -1.0, 1.0), 10, 1)),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("call", _OVERFLOW_CALLS.values(), ids=_OVERFLOW_CALLS.keys())
def test_finite_input_past_float64_is_a_numeric_degeneracy_at_the_library_entry(call):
    # finite entries whose products overflow: a NumericDegeneracyError before any numpy warning
    with pytest.raises(cvrelay.NumericDegeneracyError, match="overflow"):
        call()


def test_a_python_int_inside_float64_is_stored_as_a_float():
    # int arithmetic on 10**200 leaves float64 (10**400, or a C long): each
    # scalar entry stores its number as a float, so the formulas see 1e200
    assert cvrelay.ThermalEnvironment(0.5, 10**200, 0, 0).omega == 1e200
    assert cvrelay.SwapInput(10**200, _ADDITIVE_ENV).mu == 1e200
    assert cvrelay.additive_reactivation_c(10**200, 0) == 1.0
    assert [type(v) for v in vars(cvrelay.AdditiveEnvironment(1, 0, 0)).values()] == [float] * 3


def test_numbers_of_every_real_kind_inside_float64_are_read_as_float64():
    # a Python int past int64 is read entry by entry, as a scalar is, and
    # bool, int and float32 arrays convert exactly: the bits of float64 input
    rm = protocols.relay_metrics
    assert rm(52.0, 10**200, 1, names=["epsilon"]) == rm(52.0, 1e200, 1.0, names=["epsilon"])
    with pytest.raises(cvrelay.NumericDegeneracyError, match="at mu=1e\\+200,"):
        rm(10**200, 1, 1)
    typed = rm(np.array([2, 3]), np.array([True, False]), np.float32([0.5, 1.0]))
    exact = rm(np.array([2.0, 3.0]), np.array([1.0, 0.0]), np.array([0.5, 1.0]))
    assert [np.asarray(v).tolist() for v in typed.values()] == [np.asarray(v).tolist() for v in exact.values()]
    tau = np.float32(0.9)  # a scalar is read as a float64 once, for the formula too
    assert cvrelay.thermal_reactivation_g(tau, 1.0) == cvrelay.thermal_reactivation_g(float(tau), 1.0)
    cm = cvrelay.vacuum_cm(1)
    assert np.array_equal(cvrelay.CovarianceMatrix(cm).m, cm.m)


def test_a_mode_list_is_read_once():
    assert _STATE2.reduced(k for k in [1]).labels == ("m1",)
    assert cvrelay.permute_modes(_STATE2, iter([1, 0])).labels == ("m1", "m0")


def test_an_error_names_the_first_offending_entry_not_the_whole_input():
    stack = np.tile(np.eye(4), (4096, 1, 1))
    stack[1234, 2, 2] = math.nan
    with pytest.raises(cvrelay.ValidationError) as err:
        cvrelay.CovarianceMatrix(stack)
    assert str(err.value) == "covariance matrix must be finite, got nan at flat index 19754"
    with pytest.raises(cvrelay.ValidationError) as err:
        protocols.relay_metrics(52.0, [1.0] * 4095 + [_HUGE_INT], 1.0)
    assert str(err.value) == "each entry of kappa must be a real number inside float64, got int"


def _float_dtype(node) -> bool:
    """True where the expression ``node`` names a float dtype (``float``, ``np.float64``, "f8", ...)."""
    try:
        dtype = eval(compile(ast.Expression(node), "<dtype>", "eval"), {"np": np})
        return dtype is not None and np.dtype(dtype).kind == "f"  # np.dtype(None) would be float64
    except (NameError, AttributeError, TypeError):  # a variable, or no dtype at all
        return False


def test_numbers_are_converted_only_by_the_readers_in_gaussian():
    # one rule for what counts as a real number: ``numbers`` is used, and a
    # float array made by np.asarray, np.array or astype, only in gaussian's readers
    found = []
    for path in sorted(Path(cvrelay.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        exempt = set()
        if path.name == "gaussian.py":
            readers = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_floats"]
            exempt = {id(node) for reader in readers for node in ast.walk(reader)}
            assert readers
        for node in ast.walk(tree):
            if path.name != "gaussian.py" and (
                    isinstance(node, ast.Import) and "numbers" in [alias.name for alias in node.names]
                    or isinstance(node, ast.ImportFrom) and node.module == "numbers"
                    or isinstance(node, ast.Name) and node.id == "numbers"):
                found.append(f"{path.name}:{node.lineno}: numbers")
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and id(node) not in exempt
                    and node.func.attr in ("asarray", "array", "astype")):
                dtypes = node.args[:1] if node.func.attr == "astype" else node.args[1:2]
                if any(map(_float_dtype, dtypes + [k.value for k in node.keywords if k.arg == "dtype"])):
                    found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert found == []


def test_a_failing_property_does_not_hide_later_failures(tmp_path):
    # under the suite's warnings filter, a failing @given test is reported as a
    # failure, and the session goes on to report the plain test after it
    (tmp_path / "test_two.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\ndef test_property(x):\n    assert False\n\n\n"
        "def test_plain():\n    assert False\n", encoding="utf-8")
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-c", str(config), "-p", "no:cacheprovider",
                          str(tmp_path / "test_two.py")], capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "2 failed" in run.stdout


def test_an_empty_stack_passes_the_overflow_guard():
    # the texts that name the largest mu or omega of a stack are built only on failure
    params = {"n": 1.0, "c": 0.5, "cp": 0.0}
    assert cvrelay.evolved_cm(np.array([]), cvrelay.AdditiveEnvironment, params).m.shape == (0, 8, 8)
    assert environments.thermal_mutual_information(np.array([]), 0.0, 0.0).shape == (0,)


def _evolved(n, c, modes=range(4)):
    """The evolved state at mu = 52 in an additive environment with c = c', reduced to ``modes``."""
    return cvrelay.evolved_cm(cvrelay.SwapInput(52.0, cvrelay.AdditiveEnvironment(n, c, c))).reduced(modes)


_LOST_TO_ROUNDING_CALLS = {
    "smallest_pts_eigenvalue((a | A'B') at n=1e300)": lambda: cvrelay.smallest_pts_eigenvalue(
        _evolved(1e300, -1.0, [0, 2, 3]), [0]),
    "log_negativity((a | A'B') at n=1e300)": lambda: cvrelay.log_negativity(_evolved(1e300, -1.0, [0, 2, 3]), [0]),
    "smallest_pts_eigenvalue(8x8 at n=1e80)": lambda: cvrelay.smallest_pts_eigenvalue(_evolved(1e80, 0.5), [0]),
    "log_negativity(8x8 at n=1e80)": lambda: cvrelay.log_negativity(_evolved(1e80, 0.5), [0]),
    "smallest_pts_eigenvalue((A', B') at n=1e80, c=c'=-1)": lambda: cvrelay.smallest_pts_eigenvalue(
        _evolved(1e80, -1.0, [2, 3]), [0]),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("call", _LOST_TO_ROUNDING_CALLS.values(), ids=_LOST_TO_ROUNDING_CALLS.keys())
def test_a_pts_eigenvalue_lost_to_rounding_is_a_numeric_degeneracy(call):
    # physical states whose float64 partial transpose leaves the smallest
    # symplectic eigenvalue at or below 0: an error, not 0 and a log-negativity of inf
    with pytest.raises(cvrelay.NumericDegeneracyError, match="lost to float64 rounding"):
        call()


_BELOW_OMEGA = math.nextafter(1e30, 0.0)
_HELD = "cannot be held in float64"
# call, and the text its error must match
_UNHELD_STATE_CALLS = {
    # the smallest variance products are 2e28 (g' = g) and 2.8e44 (g' = -g), but
    # the Cholesky factor of [[omega I, G], [G, omega I]] loses omega - g^2/omega
    # to rounding: an error naming omega, not a bona-fide violation
    "thermal_env_cm(omega=1e30, g=g'=nextafter(1e30, 0))": (lambda: cvrelay.thermal_env_cm(
        cvrelay.ThermalEnvironment(0.9, 1e30, _BELOW_OMEGA, _BELOW_OMEGA)), "omega=1e\\+30"),
    "thermal_env_cm(omega=1e30, g=-g'=nextafter(1e30, 0))": (lambda: cvrelay.thermal_env_cm(
        cvrelay.ThermalEnvironment(0.9, 1e30, _BELOW_OMEGA, -_BELOW_OMEGA)), "omega=1e\\+30"),
    # mu^2 - 1 rounds to mu^2, and the Cholesky factor loses mu - (mu^2 - 1)/mu = 1/mu
    "tmsv_cm(1e8)": (lambda: cvrelay.tmsv_cm(1e8), _HELD),
    # the symmetrisation 0.5 (m + m^T) overflows
    "thermal_cm(1e308)": (lambda: cvrelay.thermal_cm(1e308), _HELD),
    "swapped_cm(mu=1e77)": (lambda: cvrelay.swapped_cm(cvrelay.SwapInput(1e77, _ADDITIVE_ENV)), _HELD),
    "swapped_cm(mu=1e200)": (lambda: cvrelay.swapped_cm(cvrelay.SwapInput(1e200, _ADDITIVE_ENV)), _HELD),
    "swapped_cm(mu=10**200)": (lambda: cvrelay.swapped_cm(cvrelay.SwapInput(10**200, _ADDITIVE_ENV)), _HELD),
    "evolved_cm(mu=1e12, n=0)": (lambda: cvrelay.evolved_cm(
        cvrelay.SwapInput(1e12, cvrelay.AdditiveEnvironment(0.0))), _HELD),
    "apply_symplectic(vacuum, rotation @ squeezer(1e8))": (lambda: cvrelay.apply_symplectic(
        cvrelay.GaussianState(np.zeros(2), cvrelay.vacuum_cm()),
        cvrelay.rotation(0.3) @ cvrelay.quadrature_squeezer(1e8)), _HELD),
}


@pytest.mark.parametrize("call, match", _UNHELD_STATE_CALLS.values(), ids=_UNHELD_STATE_CALLS.keys())
def test_a_state_the_library_builds_that_float64_cannot_validate_is_a_numeric_degeneracy(call, match):
    # built from checked parameters or a valid state, so physical in exact
    # arithmetic: a failed check is float64's, never a ValidationError
    with pytest.raises(cvrelay.NumericDegeneracyError, match=match):
        call()


_VERDICT_CALLS = {
    "tripartite_classify(1e160 I)": lambda: cvrelay.tripartite_classify(np.eye(6) * 1e160).class_id == 5,
    "tripartite_classify(1e308 I)": lambda: cvrelay.tripartite_classify(np.diag(np.full(6, 1e308))).class_id == 5,
    "quadripartite_numeric(1e160 I, a)": lambda: (
        cvrelay.quadripartite_numeric(np.eye(8) * 1e160, 0) == "separable-PPT"),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("call", _VERDICT_CALLS.values(), ids=_VERDICT_CALLS.keys())
def test_finite_entries_whose_squares_overflow_still_get_a_ppt_verdict(call):
    # the PSD tolerance screens on max|m_ij|, which squares no entry, and the
    # witness halves T and T^H before it sums them
    assert call()


# The exported functions fed the CLI fuzz alphabet of scalars across the
# float64 range (with three in-domain values, so that a call of several
# arguments gets past its first check), values that are no real number inside
# float64 (an int past it, a string, a complex number, None), and matrices
# that are scaled identities of one to four modes, a stack of them, or shapes
# that do not fit.  Every value is also drawn inside lists and matrices.
_X = st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 1e200, 1e160, 0.0, -1.0, 1e-320,
                      0.5, 2.0, 52.0, _HUGE_INT, "abc", 1j, None])


def _matrix(v, shape):
    """v times the identity for a square shape, else an array of v (no arithmetic: no warning);
    as nested lists where v is no float."""
    m = np.full(shape, v, dtype=object)
    if len(shape) >= 2 and shape[-2] == shape[-1]:
        diag = np.arange(shape[-1])
        m[...] = 0.0
        m[..., diag, diag] = v
    return m.astype(float) if isinstance(v, float) else m.tolist()


_M = st.builds(_matrix, _X, st.sampled_from([(2, 2), (4, 4), (6, 6), (8, 8), (3, 4, 4), (3, 3), (2, 3), (4,), ()]))
_MODES = st.sampled_from([[0], [1], [2], [0, 1], [], [0, 0], [9]])
_INT = st.sampled_from([-1, 0, 1, 2, 3])
# the alphabet rarely makes a valid thermal environment (it holds one tau in
# (0, 1)), so half the draws are in domain: tau = 0.9 at omega_EB = 19 and above
_THERMAL = st.one_of(
    st.tuples(_X, _X, _X, _X),
    st.tuples(st.just(0.9), st.sampled_from([19.38, 52.0]), st.sampled_from([0.0, 2.0, -18.0]),
              st.sampled_from([0.0, 18.0, -2.0])),
).map(lambda v: lambda: cvrelay.ThermalEnvironment(*v))
_ADDITIVE = st.tuples(_X, _X, _X).map(lambda v: lambda: cvrelay.AdditiveEnvironment(*v))
_ENV = st.one_of(_THERMAL, _ADDITIVE)


def _state(x, v, n_modes):
    return cvrelay.GaussianState(np.full(2 * n_modes, x), cvrelay.CovarianceMatrix(_matrix(v, (2 * n_modes,) * 2)))


def _experiment(mu, n, xi, shots, seed):
    return cvrelay.ExperimentConfig(mu, cvrelay.AdditiveEnvironment(n, 0.5, 0.5), shots, seed, 0.9, xi)


# name: (call, strategies of its arguments); an environment is drawn as the
# constructor call, so that its ValidationError is part of the call, and of
# either family, so that a function handed the one it does not take must
# reject it
_EXPORTED_CALLS = {
    "CovarianceMatrix": (cvrelay.CovarianceMatrix, (_M,)),
    "SymplecticMatrix": (cvrelay.SymplecticMatrix, (_M,)),
    "GaussianState": (_state, (_X, _X, st.sampled_from([1, 2, 3]))),
    "vacuum_cm": (cvrelay.vacuum_cm, (_INT,)),
    "thermal_cm": (cvrelay.thermal_cm, (_X, _INT)),
    "tmsv_cm": (cvrelay.tmsv_cm, (_X,)),
    "direct_sum": (cvrelay.direct_sum, (_M, _M)),
    "symplectic_form": (cvrelay.symplectic_form, (_INT,)),
    "beam_splitter": (cvrelay.beam_splitter, (_X,)),
    "quadrature_squeezer": (cvrelay.quadrature_squeezer, (_X,)),
    "rotation": (cvrelay.rotation, (_X,)),
    "expand_symplectic": (lambda s, mode, n: cvrelay.expand_symplectic(cvrelay.quadrature_squeezer(s), [mode], n),
                          (_X, _INT, _INT)),
    "apply_symplectic(beam_splitter)": (
        lambda x, v, tau, d: cvrelay.apply_symplectic(_state(x, v, 2), cvrelay.beam_splitter(tau), [d] * 4),
        (_X, _X, _X, _X)),
    "apply_symplectic(squeezer)": (
        lambda x, v, s: cvrelay.apply_symplectic(_state(x, v, 1), cvrelay.quadrature_squeezer(s)), (_X, _X, _X)),
    "apply_symplectic(rotation)": (
        lambda x, v, theta: cvrelay.apply_symplectic(_state(x, v, 1), cvrelay.rotation(theta)), (_X, _X, _X)),
    "displace": (lambda x, v, d: cvrelay.displace(_state(x, v, 1), [d, d]), (_X, _X, _X)),
    "permute_modes": (lambda x, v: cvrelay.permute_modes(_state(x, v, 2), [1, 0]), (_X, _X)),
    "condition_on_gaussian_measurement(heterodyne)": (
        lambda x, v, z: cvrelay.condition_on_gaussian_measurement(
            cvrelay.GaussianState(np.full(6, x), cvrelay.direct_sum(cvrelay.tmsv_cm(v), cvrelay.vacuum_cm())),
            [0], "heterodyne", [z, z]),
        (_X, _X, _X)),
    "condition_on_gaussian_measurement(bell)": (
        lambda x, v, z: cvrelay.condition_on_gaussian_measurement(_state(x, v, 3), [1, 2], "bell", [z, z]),
        (_X, _X, _X)),
    "entropic_h": (cvrelay.entropic_h, (_X,)),
    "von_neumann_entropy": (cvrelay.von_neumann_entropy, (_M,)),
    "symplectic_spectrum": (cvrelay.symplectic_spectrum, (_M,)),
    "two_mode_spectrum": (cvrelay.two_mode_spectrum, (_M,)),
    "partial_transpose": (cvrelay.partial_transpose, (_M, _MODES)),
    "smallest_pts_eigenvalue": (cvrelay.smallest_pts_eigenvalue, (_M, _MODES)),
    "log_negativity": (cvrelay.log_negativity, (_M, _MODES)),
    "ppt_min_eigenvalue": (cvrelay.ppt_min_eigenvalue, (_M, _MODES)),
    "tripartite_classify": (cvrelay.tripartite_classify, (_M,)),
    "quadripartite_numeric": (cvrelay.quadripartite_numeric, (_M, st.sampled_from([0, 3, 4, -9, "a", "x"]))),
    "quad_sigma_functions": (cvrelay.quad_sigma_functions, (_X, _X, _X, _X)),
    "quadripartite_classify": (lambda env: cvrelay.quadripartite_classify(env()), (_ENV,)),
    "environment": (lambda env: env(), (_ENV,)),
    "kappa_params": (lambda env: cvrelay.kappa_params(env()), (_ENV,)),
    "thermal_env_cm": (lambda env: cvrelay.thermal_env_cm(env()), (_ENV,)),
    "env_mutual_information": (lambda env: cvrelay.env_mutual_information(env()), (_ENV,)),
    "additive_limit": (lambda env: cvrelay.additive_limit(env()), (_ENV,)),
    "additive_env_classical_cm": (lambda env: cvrelay.additive_env_classical_cm(env()), (_ENV,)),
    "entanglement_breaking_threshold": (cvrelay.entanglement_breaking_threshold, (_X,)),
    "evolved_cm": (lambda mu, env: cvrelay.evolved_cm(cvrelay.SwapInput(mu, env())), (_X, _ENV)),
    "evolved_cm(additive stack)": (
        lambda mu, n, c: cvrelay.evolved_cm(np.array([mu, 2.0]), cvrelay.AdditiveEnvironment,
                                            {"n": n, "c": c, "cp": 0.0}),
        (_X, _X, _X)),
    "evolved_cm(thermal stack)": (
        lambda mu, tau, omega: cvrelay.evolved_cm(mu, cvrelay.ThermalEnvironment, {
            "tau": np.array([tau, 0.5]), "omega": omega, "g": 0.0, "gp": 0.0}),
        (_X, _X, _X)),
    "swapped_cm": (lambda mu, env: cvrelay.swapped_cm(cvrelay.SwapInput(mu, env())), (_X, _ENV)),
    "teleport_correction": (lambda mu, env: cvrelay.teleport_correction(cvrelay.SwapInput(mu, env())), (_X, _ENV)),
    "protocol_report": (lambda mu, env, xi: cvrelay.protocol_report(cvrelay.SwapInput(mu, env()), xi),
                        (_X, _ENV, _X)),
    "protocol_report_asymptotic": (lambda env: cvrelay.protocol_report_asymptotic(env()), (_ENV,)),
    "qkd_rate": (lambda mu, env, xi: cvrelay.qkd_rate(cvrelay.SwapInput(mu, env()), xi), (_X, _ENV, _X)),
    "relay_metrics": (protocols.relay_metrics, (_X, _X, _X, _X)),
    "relay_metrics(arrays)": (lambda mu, k, kp: protocols.relay_metrics(mu, [k, 1.0], [kp, 0.5]), (_X, _X, _X)),
    "thermal_reactivation_g": (cvrelay.thermal_reactivation_g, (_X, _X, _X)),
    "additive_reactivation_c": (cvrelay.additive_reactivation_c, (_X, _X)),
    "repeater_bound_phi": (cvrelay.repeater_bound_phi, (_X,)),
    "key_rate_from_cm": (cvrelay.key_rate_from_cm, (_M, _X)),
    "estimate_from_second_moments": (cvrelay.estimate_from_second_moments, (_M, _INT, _X)),
    "exact_second_moments": (lambda *a: cvrelay.exact_second_moments(_experiment(*a)), (_X, _X, _X, _INT, _INT)),
    "simulate_shot_batch": (lambda *a: cvrelay.simulate_shot_batch(_experiment(*a)), (_X, _X, _X, _INT, _INT)),
    "run_point": (lambda mu, n, xi: cvrelay.run_point(_experiment(mu, n, xi, 700, 5)), (_X, _X, _X)),
}


def _numbers(result):
    """Every number in a result, as float arrays: through dataclasses, dicts,
    sequences and the matrix and state classes."""
    if isinstance(result, (cvrelay.CovarianceMatrix, cvrelay.SymplecticMatrix)):
        return [result.m]
    if hasattr(result, "__dataclass_fields__"):
        return _numbers(vars(result))
    if isinstance(result, dict):
        return _numbers(list(result.values()))
    if isinstance(result, (list, tuple)):
        return [x for item in result for x in _numbers(item)]
    return [] if result is None or isinstance(result, str) else [np.asarray(result)]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", _EXPORTED_CALLS)
@settings(max_examples=100)
@given(data=st.data())
def test_every_exported_function_ends_in_an_error_of_the_contract_or_a_number(name, data):
    # a ValidationError, a NumericDegeneracyError, or a real result with no
    # nan: never a numpy warning, another exception, a silent nan or a complex number
    call, args = _EXPORTED_CALLS[name]
    drawn = data.draw(st.tuples(*args))
    try:
        result = call(*drawn)
    except (cvrelay.ValidationError, cvrelay.NumericDegeneracyError):
        return
    assert not any(x.dtype.kind == "c" or x.dtype.kind == "f" and np.isnan(x).any() for x in _numbers(result)), drawn
