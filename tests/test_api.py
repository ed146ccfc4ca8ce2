import importlib
import math
import re
import runpy
from pathlib import Path

import numpy as np
import pytest

import cvrelay

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
    "additive_link_cm(inf, 1)": lambda: cvrelay.additive_link_cm(math.inf, 1.0),
    "ppt_min_eigenvalue(nan 4x4)": lambda: cvrelay.ppt_min_eigenvalue(_NAN4, [0]),
    "tripartite_classify(nan 6x6)": lambda: cvrelay.tripartite_classify(_NAN6),
    "smallest_pts_eigenvalue(nan 4x4)": lambda: cvrelay.smallest_pts_eigenvalue(_NAN4, [0]),
    "smallest_pts_eigenvalue(nan 6x6)": lambda: cvrelay.smallest_pts_eigenvalue(_NAN6, [2]),
    "two_mode_spectrum(nan 4x4)": lambda: cvrelay.two_mode_spectrum(_NAN4, transposed=True),
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
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("call", _OUT_OF_DOMAIN_CALLS.values(), ids=_OUT_OF_DOMAIN_CALLS.keys())
def test_out_of_domain_input_is_rejected_at_the_library_entry(call):
    # finite input where the formula has no value: a ValidationError, not a
    # ZeroDivisionError, OverflowError or numpy warning
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
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("call", _OVERFLOW_CALLS.values(), ids=_OVERFLOW_CALLS.keys())
def test_finite_input_past_float64_is_a_numeric_degeneracy_at_the_library_entry(call):
    # finite entries whose products overflow: a NumericDegeneracyError before any numpy warning
    with pytest.raises(cvrelay.NumericDegeneracyError, match="overflow"):
        call()


_VERDICT_CALLS = {
    "tripartite_classify(1e160 I)": lambda: cvrelay.tripartite_classify(np.eye(6) * 1e160).class_id == 5,
    "quadripartite_numeric(1e160 I, a)": lambda: (
        cvrelay.quadripartite_numeric(np.eye(8) * 1e160, 0) == "separable-PPT"),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("call", _VERDICT_CALLS.values(), ids=_VERDICT_CALLS.keys())
def test_finite_entries_whose_squares_overflow_still_get_a_ppt_verdict(call):
    # the PSD tolerance screens on max|m_ij|, which squares no entry
    assert call()
