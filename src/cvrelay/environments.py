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

Each family class owns its array-friendly maps ``physical``, ``masks``,
``kappas`` and ``links``, static methods of the class's fields as keywords:
a caller holding a family and its parameters never branches on it.  Every
thermal map reads the variances of a 50:50 beam splitter's two outputs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .gaussian import _FLOAT_MAX, CovarianceMatrix, ValidationError, _built, _h_arr, _held, _real

BOUNDARY_BAND = 1e-9


THERMAL_CONDITIONS = (
    "|g| < omega",
    "|g'| < omega",
    "omega|g+g'| <= omega^2 + g g' - 1",
)


def _thermal_variances(omega, g, gp):
    """Quadrature variances a, b, c, d = omega -+ g, omega -+ g' of the modes a
    50:50 beam splitter splits the environment into: exact where g or g' nears
    +-omega, so a product of two is accurate to rounding up to the boundary."""
    return omega - g, omega - gp, omega + g, omega + gp


def thermal_slacks(omega, g, gp):
    """Slacks of the thermal-family inequalities (array-friendly).

    The three physicality conditions of ``THERMAL_CONDITIONS``, then
    separability: min(a, c), min(b, d), and min(ab, cd) - 1 and min(ad, cb) - 1,
    the smallest squared symplectic eigenvalue of the environment and of its
    partial transpose less 1, in the variances of ``_thermal_variances``.  Each
    holds when its slack is >= 0 (a nan slack, past float64, never does).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        a, b, c, d = _thermal_variances(omega, g, gp)
        return (
            np.minimum(a, c),
            np.minimum(b, d),
            np.minimum(a * b, c * d) - 1.0,
            np.minimum(a * d, c * b) - 1.0,
        )


def additive_slacks(n, c, cp):
    """Slacks of n >= 0, |c| <= 1 and |c'| <= 1 (array-friendly)."""
    return n, 1.0 - abs(c), 1.0 - abs(cp)


def holds(slacks):
    """True where every slack clears the boundary band; NaN never holds."""
    return functools.reduce(np.logical_and, [s >= -BOUNDARY_BAND for s in slacks])


def _check_finite(env):
    """Each field of ``env`` stored as a float; a ValidationError unless it is a finite number."""
    for name, value in vars(env).items():
        if not abs(value := _real(value, name)) <= _FLOAT_MAX:
            raise ValidationError(f"{name} must be a finite number, got {value!r}")
        object.__setattr__(env, name, value)


@dataclass(frozen=True)
class ThermalEnvironment:
    """Correlated-thermal environment (tau, omega, g, g'), bona fide and
    separable as ``thermal_slacks`` decides."""

    tau: float
    omega: float
    g: float = 0.0
    gp: float = 0.0

    def __post_init__(self):
        _check_finite(self)
        if not 0.0 < self.tau < 1.0:
            raise ValidationError(f"transmissivity must lie in (0, 1), got {self.tau!r}")
        if self.omega < 1.0 - BOUNDARY_BAND:
            raise ValidationError(f"thermal variance must be >= 1, got {self.omega!r}")
        slacks = thermal_slacks(self.omega, self.g, self.gp)[:3]
        if not holds(slacks):
            name, slack = min(zip(THERMAL_CONDITIONS, slacks), key=lambda kv: kv[1])
            raise ValidationError(f"bona-fide violation: {name} fails by {-slack:.6g}")

    @staticmethod
    def physical(tau, omega, g, gp):
        """The physical mask of ``masks`` alone (array-friendly)."""
        return holds(thermal_slacks(omega, g, gp)[:3])

    @staticmethod
    def masks(tau, omega, g, gp):
        """Physical, separable and boundary masks (array-friendly).

        Boundary means that some inequality is saturated within the band.
        """
        slacks = thermal_slacks(omega, g, gp)
        boundary = functools.reduce(np.logical_or, [abs(s) <= BOUNDARY_BAND for s in slacks])
        return holds(slacks[:3]), holds(slacks[3:]), boundary

    @staticmethod
    def kappas(tau, omega, g, gp):
        """(kappa, kappa') = (1/tau - 1)(omega - g, omega + g'), array-friendly; inf on overflow."""
        with np.errstate(over="ignore"):
            a, _, _, d = _thermal_variances(omega, g, gp)
            f = 1.0 / tau - 1.0
            return np.maximum(f * a, 0.0), np.maximum(f * d, 0.0)

    @staticmethod
    def links(tau, omega, g, gp):
        """Link map (t, e, h, h') of ``protocols.evolved_cm``, array-friendly."""
        loss = 1.0 - tau
        return tau, loss * omega, loss * g, loss * gp

    @property
    def is_separable(self) -> bool:
        return bool(self.masks(**vars(self))[1])

    @property
    def is_boundary(self) -> bool:
        """True when any physicality or separability inequality is saturated."""
        return bool(self.masks(**vars(self))[2])

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
        _check_finite(self)
        n_slack, c_slack, cp_slack = additive_slacks(self.n, self.c, self.cp)
        if not holds([n_slack]):
            raise ValidationError(f"additive noise variance must be >= 0, got {self.n!r}")
        for name, value, slack in (("c", self.c, c_slack), ("cp", self.cp, cp_slack)):
            if not holds([slack]):
                raise ValidationError(f"correlation coefficient {name}={value!r} outside [-1, 1]")

    @staticmethod
    def physical(n, c, cp):
        """The physical mask of ``masks`` alone (array-friendly)."""
        return holds(additive_slacks(n, c, cp))

    @staticmethod
    def masks(n, c, cp):
        """Physical, separable and boundary masks (array-friendly, numpy bools
        for scalars); classical noise is always separable, never boundary."""
        physical = AdditiveEnvironment.physical(n, c, cp)
        return physical, np.ones_like(physical)[()], np.zeros_like(physical)[()]

    @staticmethod
    def kappas(n, c, cp):
        """(kappa, kappa') = ((1 - c) n, (1 + c') n), array-friendly; inf on overflow."""
        with np.errstate(over="ignore"):
            return np.maximum((1.0 - c) * n, 0.0), np.maximum((1.0 + cp) * n, 0.0)

    @staticmethod
    def links(n, c, cp):
        """Link map (t, e, h, h') of ``protocols.evolved_cm``, array-friendly; a
        cell the band admits past n = 0 or |c|, |c'| = 1 gets its edge state."""
        n, c, cp = np.maximum(n, 0.0), np.clip(c, -1.0, 1.0), np.clip(cp, -1.0, 1.0)
        return 1.0, n, n * c, n * cp

    def mirrored(self) -> "AdditiveEnvironment":
        return AdditiveEnvironment(self.n, -self.c, -self.cp)


def _checked_family(family, *allowed):
    """``family`` if it is one of ``allowed`` (by default either environment
    class); else a ValidationError."""
    allowed = allowed or (ThermalEnvironment, AdditiveEnvironment)
    if family not in allowed:
        raise ValidationError(f"unsupported environment type {getattr(family, '__name__', family)!r}")
    return family


def thermal_env_cm(env: ThermalEnvironment) -> CovarianceMatrix:
    """Covariance matrix [[omega I, G], [G, omega I]], G = diag(g, g'); NumericDegeneracyError past float64."""
    _checked_family(type(env), ThermalEnvironment)
    i2 = np.eye(2)
    gmat = np.diag([env.g, env.gp])
    m = np.block([[env.omega * i2, gmat], [gmat, env.omega * i2]])
    return _built(m, f"the bona-fide environment at omega={env.omega:g} fails float64 validation")


def kappa_params(env) -> tuple[float, float]:
    """Effective relay noise parameters (kappa, kappa') of an environment:
    its family's ``kappas``, both >= 0 (boundary rounding is clamped at zero)."""
    k, kp = _checked_family(type(env)).kappas(**vars(env))
    return float(k), float(kp)


def entanglement_breaking_threshold(tau: float) -> float:
    """Thermal variance (1 + tau) / (1 - tau) above which each link breaks entanglement."""
    if not 0.0 < (tau := _real(tau, "transmissivity")) < 1.0:
        raise ValidationError(f"transmissivity must lie in (0, 1), got {tau!r}")
    return (1.0 + tau) / (1.0 - tau)


def thermal_mutual_information(omega, g, gp):
    """Quantum mutual information (bits) between the two environment modes.

    Array-friendly.  Quantifies the amount of (separable) correlation the
    environment offers: 2 h(omega) minus the joint entropy.  Zero iff
    g = g' = 0.  NumericDegeneracyError where the spectrum overflows float64
    (omega near 1.3e154, where a product of two variances does).
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # each variance clamped at 0 for band-edge cells
        a, b, c, d = (np.maximum(v, 0.0) for v in _thermal_variances(omega, g, gp))
        nu_minus, nu_plus = np.sqrt(a * b), np.sqrt(c * d)
        info = 2.0 * _h_arr(omega) - _h_arr(nu_minus) - _h_arr(nu_plus)
    _held(lambda: f"the environment mutual information at omega={np.max(omega):g} overflows float64", info)
    return info


def env_mutual_information(env: ThermalEnvironment) -> float:
    """Quantum mutual information (bits) of an environment; see thermal_mutual_information."""
    _checked_family(type(env), ThermalEnvironment)
    return float(thermal_mutual_information(env.omega, env.g, env.gp))


def additive_limit(env: ThermalEnvironment) -> AdditiveEnvironment:
    """Map a thermal environment to its additive-noise limit parameters.

    n = (1 - tau) omega, c = g / (omega - 1), c' = g' / (omega - 1).  The map
    is undefined at omega = 1 and the resulting coefficients must lie in
    [-1, 1] to describe a valid additive environment.
    """
    _checked_family(type(env), ThermalEnvironment)
    if env.omega <= 1.0 + BOUNDARY_BAND:
        raise ValidationError("additive limit is undefined at omega = 1")
    scale = env.omega - 1.0
    return AdditiveEnvironment((1.0 - env.tau) * env.omega, env.g / scale, env.gp / scale)


def additive_env_classical_cm(env: AdditiveEnvironment) -> np.ndarray:
    """Classical 4x4 covariance of the displacement noise (xi_1, ..., xi_4).

    Equal to n [[I, C], [C, I]] with C = diag(c, c'), taken from the family's
    ``links``, so parameters the band admits past an edge give the edge
    covariance; positive semidefinite for all admissible parameters, and
    singular at |c| = 1 or |c'| = 1.
    """
    _, e, h, hp = _checked_family(type(env), AdditiveEnvironment).links(**vars(env))
    cross = np.diag([h, hp])
    return np.block([[e * np.eye(2), cross], [cross, e * np.eye(2)]])

