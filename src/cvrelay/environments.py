"""The two correlated-noise Gaussian environment families.

A correlated-thermal environment injects thermal noise of variance omega
through a beam splitter of transmissivity tau on each of the two links, with
cross-link correlations (g, g') between the two injected modes.  Its
additive-noise limit (tau -> 1, omega -> inf at fixed n = (1-tau) omega)
displaces the two travelling modes by classically correlated Gaussian noise
with variance n and correlation coefficients (c, c').

Inequalities are evaluated with a ``BOUNDARY_BAND`` guard: parameter points
within the band of an equality are accepted and flagged as boundary cases,
since the interesting region extends right up to the physicality border.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .gaussian import CovarianceMatrix, ValidationError, entropic_h

BOUNDARY_BAND = 1e-9


THERMAL_CONDITIONS = (
    "|g| < omega",
    "|g'| < omega",
    "omega|g+g'| <= omega^2 + g g' - 1",
)


def thermal_slacks(omega, g, gp):
    """Slacks of the thermal-family inequalities (array-friendly).

    The three physicality conditions of ``THERMAL_CONDITIONS`` followed by
    the separability condition omega |g - g'| <= omega^2 - g g' - 1; each
    holds when its slack is >= 0.
    """
    return (
        omega - abs(g),
        omega - abs(gp),
        omega * omega + g * gp - 1.0 - omega * abs(g + gp),
        omega * omega - g * gp - 1.0 - omega * abs(g - gp),
    )


def additive_slacks(n, c, cp):
    """Slacks of n >= 0, |c| <= 1 and |c'| <= 1 (array-friendly)."""
    return n, 1.0 - abs(c), 1.0 - abs(cp)


def holds(slacks):
    """True where every slack clears the boundary band; NaN never holds."""
    return functools.reduce(np.logical_and, [s >= -BOUNDARY_BAND for s in slacks])


def thermal_masks(omega, g, gp):
    """Physical, separable and boundary masks of thermal environments (array-friendly).

    Boundary means that some inequality is saturated within the band.
    """
    slacks = thermal_slacks(omega, g, gp)
    boundary = functools.reduce(np.logical_or, [abs(s) <= BOUNDARY_BAND for s in slacks])
    return holds(slacks[:3]), holds(slacks[3:]), boundary


def additive_masks(n, c, cp):
    """Physical, separable and boundary masks of additive environments
    (array-friendly); classical noise is always separable, never boundary."""
    physical = holds(additive_slacks(n, c, cp))
    return physical, np.ones_like(physical), np.zeros_like(physical)


def thermal_kappas(tau, omega, g, gp):
    """(kappa, kappa') of the thermal family, array-friendly; see kappa_params."""
    f = 1.0 / tau - 1.0
    return np.maximum(f * (omega - g), 0.0), np.maximum(f * (omega + gp), 0.0)


def additive_kappas(n, c, cp):
    """(kappa, kappa') of the additive family, array-friendly; see kappa_params."""
    return np.maximum((1.0 - c) * n, 0.0), np.maximum((1.0 + cp) * n, 0.0)


def _check_finite(**values):
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValidationError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class ThermalEnvironment:
    """Correlated-thermal environment (tau, omega, g, g').

    Physicality requires |g| < omega, |g'| < omega and
    omega |g + g'| <= omega^2 + g g' - 1; the environment is additionally
    separable when omega |g - g'| <= omega^2 - g g' - 1.
    """

    tau: float
    omega: float
    g: float = 0.0
    gp: float = 0.0

    def __post_init__(self):
        _check_finite(tau=self.tau, omega=self.omega, g=self.g, gp=self.gp)
        if not 0.0 < self.tau < 1.0:
            raise ValidationError(f"transmissivity must lie in (0, 1), got {self.tau!r}")
        if self.omega < 1.0 - BOUNDARY_BAND:
            raise ValidationError(f"thermal variance must be >= 1, got {self.omega!r}")
        slacks = thermal_slacks(self.omega, self.g, self.gp)[:3]
        if not holds(slacks):
            name, slack = min(zip(THERMAL_CONDITIONS, slacks), key=lambda kv: kv[1])
            raise ValidationError(f"bona-fide violation: {name} fails by {-slack:.6g}")

    @property
    def is_separable(self) -> bool:
        return bool(thermal_masks(self.omega, self.g, self.gp)[1])

    @property
    def is_boundary(self) -> bool:
        """True when any physicality or separability inequality is saturated."""
        return bool(thermal_masks(self.omega, self.g, self.gp)[2])

    def mirrored(self) -> "ThermalEnvironment":
        """Correlation-sign flip, the view seen by the conjugate Bell detection.

        Detecting (q_plus, p_minus) instead of (q_minus, p_plus) inverts the
        correlation plane through the origin.
        """
        return ThermalEnvironment(self.tau, self.omega, -self.g, -self.gp)


@dataclass(frozen=True)
class AdditiveEnvironment:
    """Correlated-additive classical noise (n, c, c')."""

    n: float
    c: float = 0.0
    cp: float = 0.0

    def __post_init__(self):
        _check_finite(n=self.n, c=self.c, cp=self.cp)
        n_slack, c_slack, cp_slack = additive_slacks(self.n, self.c, self.cp)
        if not holds([n_slack]):
            raise ValidationError(f"additive noise variance must be >= 0, got {self.n!r}")
        for name, value, slack in (("c", self.c, c_slack), ("cp", self.cp, cp_slack)):
            if not holds([slack]):
                raise ValidationError(f"correlation coefficient {name}={value!r} outside [-1, 1]")

    def mirrored(self) -> "AdditiveEnvironment":
        return AdditiveEnvironment(self.n, -self.c, -self.cp)


def thermal_env_cm(env: ThermalEnvironment) -> CovarianceMatrix:
    """Two-mode covariance matrix [[omega I, G], [G, omega I]], G = diag(g, g')."""
    i2 = np.eye(2)
    gmat = np.diag([env.g, env.gp])
    m = np.block([[env.omega * i2, gmat], [gmat, env.omega * i2]])
    try:
        return CovarianceMatrix(m)
    except ValidationError as exc:
        raise ValidationError(
            f"environment sits on the physicality boundary: {exc}"
        ) from None


def kappa_params(env) -> tuple[float, float]:
    """Effective relay noise parameters (kappa, kappa') of an environment.

    Thermal family: kappa = (1/tau - 1)(omega - g), kappa' = (1/tau - 1)(omega + g').
    Additive family: kappa = (1 - c) n, kappa' = (1 + c') n.  Both are >= 0;
    boundary rounding is clamped at zero.
    """
    if isinstance(env, ThermalEnvironment):
        k, kp = thermal_kappas(env.tau, env.omega, env.g, env.gp)
    elif isinstance(env, AdditiveEnvironment):
        k, kp = additive_kappas(env.n, env.c, env.cp)
    else:
        raise ValidationError(f"unsupported environment type {type(env).__name__}")
    return float(k), float(kp)


def entanglement_breaking_threshold(tau: float) -> float:
    """Thermal variance (1 + tau) / (1 - tau) above which each link breaks entanglement."""
    if not 0.0 < tau < 1.0:
        raise ValidationError(f"transmissivity must lie in (0, 1), got {tau!r}")
    return (1.0 + tau) / (1.0 - tau)


def _env_spectrum(omega, g, gp):
    # closed two-mode form; avoids building the (possibly boundary-singular) CM
    det_v = (omega * omega - g * g) * (omega * omega - gp * gp)
    delta = 2.0 * omega * omega + 2.0 * g * gp
    disc = np.maximum(delta * delta - 4.0 * det_v, 0.0)
    lo = np.sqrt(np.maximum((delta - np.sqrt(disc)) / 2.0, 0.0))
    hi = np.sqrt((delta + np.sqrt(disc)) / 2.0)
    return lo, hi


# entropic_h element by element, so arrays round exactly as single points do
_entropic_h = np.frompyfunc(entropic_h, 1, 1)


def thermal_mutual_information(omega, g, gp):
    """Quantum mutual information (bits) between the two environment modes.

    Array-friendly.  Quantifies the amount of (separable) correlation the
    environment offers: 2 h(omega) minus the joint entropy.  Zero iff
    g = g' = 0.
    """
    lo, hi = _env_spectrum(omega, g, gp)
    return np.asarray(2.0 * _entropic_h(omega) - _entropic_h(lo) - _entropic_h(hi), dtype=float)


def env_mutual_information(env: ThermalEnvironment) -> float:
    """Quantum mutual information (bits) of an environment; see thermal_mutual_information."""
    return float(thermal_mutual_information(env.omega, env.g, env.gp))


def additive_limit(env: ThermalEnvironment) -> AdditiveEnvironment:
    """Map a thermal environment to its additive-noise limit parameters.

    n = (1 - tau) omega, c = g / (omega - 1), c' = g' / (omega - 1).  The map
    is undefined at omega = 1 and the resulting coefficients must lie in
    [-1, 1] to describe a valid additive environment.
    """
    if env.omega <= 1.0 + BOUNDARY_BAND:
        raise ValidationError("additive limit is undefined at omega = 1")
    scale = env.omega - 1.0
    return AdditiveEnvironment((1.0 - env.tau) * env.omega, env.g / scale, env.gp / scale)


def additive_env_classical_cm(env: AdditiveEnvironment) -> np.ndarray:
    """Classical 4x4 covariance of the displacement noise (xi_1, ..., xi_4).

    Equal to n [[I, C], [C, I]] with C = diag(c, c'); positive semidefinite
    for all admissible parameters, and singular at |c| = 1 or |c'| = 1.
    """
    i2 = np.eye(2)
    cmat = np.diag([env.c, env.cp])
    return env.n * np.block([[i2, cmat], [cmat, i2]])


def additive_link_cm(mu: float, n: float) -> CovarianceMatrix:
    """Joint covariance of a kept TMSV arm and its additively degraded twin.

    The smallest PTS eigenvalue of this matrix reaches 1 exactly at n = 2,
    the entanglement-breaking point of the additive family.
    """
    if mu < 1.0:
        raise ValidationError("TMSV variance must be >= 1")
    i2 = np.eye(2)
    z = np.diag([1.0, -1.0])
    c = math.sqrt(mu * mu - 1.0)
    return CovarianceMatrix(np.block([[mu * i2, c * z], [c * z, (mu + n) * i2]]))
