"""Closed-form analyzers for the relay protocols.

Covers entanglement swapping, coherent-state teleportation, one-way
entanglement/key distillation and practical relay QKD, each for finite
resource variance mu and in the asymptotic large-mu limit, plus the
single-repeater secret-key bound for additive-noise links.

Every closed-form figure of merit is a function of mu and the pair
(kappa, kappa'): ``environments.kappa_params`` gives it for one
environment, and an environment family's ``kappas`` map gives it for whole
grids of that family's parameters.  ``relay_metrics`` evaluates every
figure at once over numpy arrays of kappas, and the CLI's ``scan`` and
``thresholds`` call it on whole grids.  The scalar API is its two
per-point views, ``protocol_report`` and ``protocol_report_asymptotic``,
whose fields name every figure of merit (``qkd_rate`` is the report's
``key_rate``).  Covariance-matrix builders (``evolved_cm``, ``swapped_cm``)
and the generic ``key_rate_from_cm`` stay separate: they are the
independent path the closed forms are checked against; ``evolved_cm``
reads the environment through its family's ``links`` map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import (
    CovarianceMatrix,
    NumericDegeneracyError,
    ValidationError,
    _as_matrix,
    _check_finite,
    _condition,
    _h_arr,
    symplectic_spectrum,
)
from .environments import (
    BOUNDARY_BAND,
    AdditiveEnvironment,
    ThermalEnvironment,
    _checked_family,
    entanglement_breaking_threshold,
    kappa_params,
)

_SQRT_FLOAT_MAX = math.sqrt(np.finfo(float).max)  # ~1.34e154: a product of two larger numbers overflows

FLAG_GUARD = 1e-12  # open-inequality guard band for protocol success flags
FLAG_KEYS = ("swap_ok", "tele_quantum", "distill_ok", "qkd_ok")  # relay_metrics keys of the flags
FLAG_VALUES = (False, True, "marginal")  # the success flag each relay_metrics flag code stands for


@dataclass(frozen=True)
class SwapInput:
    """Resources fed to the relay: Bob's TMSV variance mu, optionally a
    different Alice variance phi, and the environment of the two links."""

    mu: float
    env: ThermalEnvironment | AdditiveEnvironment
    phi: float | None = None

    def __post_init__(self):
        if not 1.0 <= self.mu < math.inf:
            raise ValidationError(f"mu must be finite and >= 1, got {self.mu!r}")
        if self.phi is not None and not 1.0 <= self.phi < math.inf:
            raise ValidationError(f"phi must be finite and >= 1, got {self.phi!r}")

    @property
    def phi_value(self) -> float:
        return self.mu if self.phi is None else self.phi

    @property
    def symmetric(self) -> bool:
        return self.phi is None or self.phi == self.mu


@dataclass(frozen=True)
class TeleportCorrection:
    """Receiver-side correction: squeezer scale and amplifier gain, with the
    intermediate theta parameters and the corrected output covariance."""

    squeeze_r: float
    gain_eta: float
    theta1: float
    theta1_prime: float
    output_cm: np.ndarray


@dataclass(frozen=True)
class ProtocolReport:
    """All analyzer outputs at one parameter point, fields in ``to_dict`` order.

    ``flags`` holds swap_ok / tele_quantum / distill_ok / qkd_ok, each True,
    False or "marginal" when the defining inequality sits inside the guard
    band.  Asymptotic reports carry mu = inf and infinite raw mutual
    information / Holevo terms whose difference (the rate) stays finite.
    """

    mu: float
    xi: float
    kappa: float
    kappa_prime: float
    epsilon: float
    log_neg: float
    fidelity: float
    coherent_info: float
    mutual_info_ab: float
    holevo_eve: float
    key_rate: float
    flags: dict
    key_rate_lb: float | None = None

    def to_dict(self) -> dict:
        """The fields in order, without ``key_rate_lb`` when it is None; the
        flags in a copy of their dict, whose values are immutable."""
        out = dict(vars(self), flags=dict(self.flags))
        if self.key_rate_lb is None:
            del out["key_rate_lb"]
        return out


def _flag(value, threshold, want_greater: bool):
    """Success flags, elementwise, as int8 codes into ``FLAG_VALUES``: 1 (True),
    0 (False), or 2 ("marginal") inside the guard band."""
    gap = np.asarray((value - threshold) if want_greater else (threshold - value))
    return np.where(np.abs(gap) <= FLAG_GUARD, 2, gap > 0.0).astype(np.int8)


def _nu_pair(mu, k, kp):
    """Symplectic eigenvalues of the symmetric swapped state, kappa's then kappa''s."""
    return np.sqrt(mu * (1.0 + mu * k) / (mu + k)), np.sqrt(mu * (1.0 + mu * kp) / (mu + kp))


def relay_metrics(mu, k, kp, xi: float = 1.0) -> dict:
    """Every closed-form relay metric from (mu, kappa, kappa'), array-friendly.

    Returns arrays keyed like ``ProtocolReport``: epsilon, log_neg, fidelity,
    coherent_info, mutual_info_ab, holevo_eve, key_rate, key_rate_lb and
    the four success flags (``FLAG_KEYS``) as int8 codes into
    ``FLAG_VALUES``.  At finite mu the fidelity is pinned to 1/2 at mu = 1,
    where there is no entanglement resource, and key_rate_lb is None.
    ``mu = inf`` gives the large-mu set: epsilon_opt = sqrt(kappa
    kappa'), ideal-reconciliation rate R_opt with its epsilon-only lower
    bound R_LB, infinite mutual information and Holevo terms, and xi is
    ignored.  A negative or nan kappa raises ValidationError.  A figure that
    float64 cannot hold (nan, or inf at finite mu, where every figure is
    finite in exact arithmetic) raises NumericDegeneracyError, naming mu.
    """
    k, kp = np.asarray(k, float), np.asarray(kp, float)
    if not (np.all(k >= 0.0) and np.all(kp >= 0.0)):
        raise ValidationError("kappa and kappa' must be >= 0, got a negative or nan value")
    asymptotic = np.ndim(mu) == 0 and mu == math.inf
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if asymptotic:
            out = _large_mu_metrics(k, kp)
        else:
            _check_xi(xi)
            mu = np.asarray(mu, float)
            if not np.all(mu >= 1.0):
                raise ValidationError("mu must be >= 1")
            out = _finite_mu_metrics(mu, k, kp, xi)
        out["log_neg"] = np.maximum(-np.log2(out["epsilon"]), 0.0)
    figures = np.broadcast_arrays(*(v for v in out.values() if v is not None))
    bad = (np.isnan(figures) if asymptotic else ~np.isfinite(figures)).any(axis=0)
    if bad.any():
        mu_bad = np.broadcast_to(mu, bad.shape)[bad][0]
        raise NumericDegeneracyError(f"the closed-form metrics at mu={mu_bad:g} overflow float64")
    out.update(
        swap_ok=_flag(out["epsilon"], 1.0, want_greater=False),
        tele_quantum=_flag(out["fidelity"], 0.5, want_greater=True),
        distill_ok=_flag(out["coherent_info"], 0.0, want_greater=True),
        qkd_ok=_flag(out["key_rate"], 0.0, want_greater=True),
    )
    return out


def _finite_mu_metrics(mu, k, kp, xi):
    nlo, nhi = _nu_pair(mu, k, kp)
    # swapping: smallest PTS eigenvalue; teleportation: average fidelity
    eps = np.sqrt((1.0 + mu * k) * (1.0 + mu * kp) / ((mu + k) * (mu + kp)))
    tmu2 = mu * mu - 1.0
    n = (
        (2.0 / tmu2)
        * np.sqrt((1.0 + mu + 2.0 * k) * (1.0 + mu + 2.0 * kp))
        * np.sqrt(1.0 + kp + mu * (1.0 + k))
        * np.sqrt(1.0 + k + mu * (1.0 + kp))
    )
    # distillation: h(nu_b) - h(nu_-) - h(nu_+) with Bob's reduced eigenvalue nu_b
    nb = 0.5 * np.sqrt(
        (1.0 + 2.0 * mu * k + mu * mu) * (1.0 + 2.0 * mu * kp + mu * mu) / ((mu + k) * (mu + kp))
    )
    # QKD: heterodyne mutual information and Holevo bound h(nu_-) + h(nu_+) - h(nu_c)
    # products, not ** 2: numpy squares arrays but calls pow() on scalars
    sq, sqp = (1.0 + mu + 2.0 * k), (1.0 + mu + 2.0 * kp)
    sigma = (sq * sq) * (sqp * sqp) / (16.0 * (1.0 + k) * (1.0 + kp) * (mu + k) * (mu + kp))
    nc = np.sqrt(
        (1.0 + mu + 2.0 * mu * k) * (1.0 + mu + 2.0 * mu * kp)
        / ((1.0 + mu + 2.0 * k) * (1.0 + mu + 2.0 * kp))
    )
    mutual = 0.5 * np.log2(sigma)
    h_lo, h_hi = _h_arr(nlo), _h_arr(nhi)
    holevo = h_lo + h_hi - _h_arr(nc)
    return {
        "epsilon": eps,
        "fidelity": np.where(mu > 1.0, 2.0 / n, 0.5),
        "coherent_info": _h_arr(nb) - h_lo - h_hi,
        "mutual_info_ab": mutual,
        "holevo_eve": holevo,
        "key_rate": xi * mutual - holevo,
        "key_rate_lb": None,
    }


def _large_mu_metrics(k, kp):
    eps = np.sqrt(k * kp)
    f_opt = 1.0 / np.sqrt((1.0 + k) * (1.0 + kp))
    r_opt = np.where(
        eps > 0.0,
        np.log2(1.0 / (math.e**2 * np.sqrt((1.0 + k) * (1.0 + kp) * k * kp)))
        + _h_arr(np.sqrt((1.0 + 2.0 * k) * (1.0 + 2.0 * kp))),
        np.inf,
    )
    r_lb = np.where(
        eps > 0.0,
        np.log2(f_opt) - np.log2(math.e**2 * eps) + _h_arr(1.0 + 2.0 * eps),
        np.inf,
    )
    return {
        "epsilon": eps,
        "fidelity": f_opt,
        "coherent_info": -np.log2(math.e * eps),
        "mutual_info_ab": np.full_like(eps, np.inf),
        "holevo_eve": np.full_like(eps, np.inf),
        "key_rate": r_opt,
        "key_rate_lb": r_lb,
    }


# ---------------------------------------------------------------------------
# pre-measurement four-mode state


def evolved_cm(inp, family=None, params=None) -> CovarianceMatrix:
    """Covariance matrix of modes (a, b, A', B') after the noisy links.

    Mode a is Alice's kept arm (variance phi), b is Bob's kept arm
    (variance mu); A' and B' are the transmitted arms arriving at the relay.
    The family's link map (t, e, h, h') takes each transmitted arm of
    variance v to t v + e and scales its coupling to the kept arm by
    sqrt(t); h and h' are the q and p correlations the environment leaves
    between A' and B'.

    ``evolved_cm(SwapInput)`` builds one 8x8 state.  ``evolved_cm(mu, family,
    params)`` builds a stack with phi = mu in one pass: ``family`` is
    ``ThermalEnvironment`` or ``AdditiveEnvironment`` and ``params`` maps its
    fields to broadcastable values, whose broadcast shape the stack takes.
    Either way the result is validated as one ``CovarianceMatrix``; entries
    past the float64 range raise NumericDegeneracyError, naming mu.
    """
    if isinstance(inp, SwapInput):
        family = _checked_family(type(inp.env))  # before vars(), which needs a __dict__
        phi, mu, params = inp.phi_value, inp.mu, vars(inp.env)
    else:
        family = _checked_family(family)
        phi = mu = np.asarray(inp, dtype=float)
        if not np.all((mu >= 1.0) & (mu < math.inf)):
            raise ValidationError("mu must be finite and >= 1")
    t, e, h, hp = family.links(**params)
    s = np.sqrt(t)
    with np.errstate(over="ignore"):
        ca, cb = np.sqrt(phi * phi - 1.0) * s, np.sqrt(mu * mu - 1.0) * s
        y, x = t * phi + e, t * mu + e
    if not all(np.isfinite(v).all() for v in (ca, cb, y, x)):
        raise NumericDegeneracyError(f"the evolved states at mu={np.max(mu):g} overflow float64")
    entries = {(0, 0): phi, (1, 1): phi, (2, 2): mu, (3, 3): mu, (4, 4): y, (5, 5): y,
               (6, 6): x, (7, 7): x, (0, 4): ca, (1, 5): -ca, (2, 6): cb, (3, 7): -cb,
               (4, 6): h, (5, 7): hp}
    m = np.zeros(np.broadcast_shapes(*map(np.shape, entries.values())) + (8, 8))
    for (i, j), value in entries.items():
        m[..., i, j] = m[..., j, i] = value
    return CovarianceMatrix(m)


# ---------------------------------------------------------------------------
# swapping


def swapped_cm(inp: SwapInput) -> CovarianceMatrix:
    """Conditional covariance of the remote pair (a, b) after Bell detection.

    Independent of the broadcast outcome, which only shifts the mean.  The
    q sector is damped by theta_q = (phi + mu)/2 + kappa and the p sector by
    theta_p = (phi + mu)/2 + kappa'.
    """
    phi, mu = inp.phi_value, inp.mu
    k, kp = kappa_params(inp.env)
    tphi = math.sqrt(phi * phi - 1.0)
    tmu = math.sqrt(mu * mu - 1.0)
    tq = (phi + mu) / 2.0 + k
    tp = (phi + mu) / 2.0 + kp
    m = np.array(
        [
            [phi - tphi * tphi / (2 * tq), 0.0, tphi * tmu / (2 * tq), 0.0],
            [0.0, phi - tphi * tphi / (2 * tp), 0.0, -tphi * tmu / (2 * tp)],
            [tphi * tmu / (2 * tq), 0.0, mu - tmu * tmu / (2 * tq), 0.0],
            [0.0, -tphi * tmu / (2 * tp), 0.0, mu - tmu * tmu / (2 * tp)],
        ]
    )
    return CovarianceMatrix(m)


def thermal_reactivation_g(tau: float, gp, omega: float | None = None):
    """Swapping-reactivation threshold g(g') where kappa kappa' = 1.

    Defaults to the entanglement-breaking noise omega_EB(tau); points below
    the returned g reactivate nothing, points above swap entanglement for
    every mu > 1.  Array-friendly in g'.
    """
    if omega is None:
        omega = entanglement_breaking_threshold(tau)
    gp = np.asarray(gp, float)
    f = 1.0 / tau - 1.0
    return omega - 1.0 / (f * f * (omega + gp))


def additive_reactivation_c(n: float, cp):
    """Additive-family threshold c(c') where (1 - c)(1 + c') = 1/n^2."""
    if n <= 0.0:
        raise ValidationError("threshold curve requires n > 0")
    cp = np.asarray(cp, float)
    return 1.0 - 1.0 / (n * n * (1.0 + cp))


# ---------------------------------------------------------------------------
# teleportation


def teleport_correction(inp: SwapInput) -> TeleportCorrection:
    """Receiver correction restoring the input mean of the teleported state.

    A squeezer balances the q/p damping and a quantum-limited amplifier with
    gain >= 1 rescales the mean back to the input amplitude.  Undefined at
    mu = 1 where there is no entanglement resource and the gain diverges.
    """
    mu = inp.mu
    if mu <= 1.0:
        raise ValidationError("no entanglement resource: teleportation needs mu > 1")
    k, kp = kappa_params(inp.env)
    t1, t1p = (mu + 1.0) / 2.0 + k, (mu + 1.0) / 2.0 + kp
    peak = max(mu, t1, t1p)
    if not math.isfinite(4.0 * peak * peak):  # bounds mu^2, theta^2 and 4 theta theta'
        raise NumericDegeneracyError(
            f"the teleport correction at mu={mu:g} overflows float64 (theta={t1:g}, theta'={t1p:g})")
    r = math.sqrt(t1 / t1p)
    eta = 4.0 * t1 * t1p / (mu * mu - 1.0)
    # (4 mu/(mu^2 - 1)) theta^2 - 2 theta + eta - 1, expanded so that nothing
    # cancels as mu grows
    shared = (2.0 * (1.0 + k + kp) + 4.0 * k * kp / (mu + 1.0)) / (mu - 1.0)
    v_out = np.diag([t / (mu - 1.0) * (2.0 + 4.0 * mu * kk / (mu + 1.0)) + shared
                     for t, kk in ((t1, k), (t1p, kp))])
    return TeleportCorrection(r, eta, t1, t1p, v_out)


# ---------------------------------------------------------------------------
# practical QKD


def _check_xi(xi: float):
    if not 0.0 < xi <= 1.0:
        raise ValidationError(f"reconciliation efficiency must lie in (0, 1], got {xi!r}")


def qkd_rate(inp: SwapInput, xi: float = 1.0) -> float:
    """Secret-key rate xi * I_AB - chi_E in bits per relay use:
    ``protocol_report(inp, xi).key_rate``, for identical sources.

    Non-positive results are returned as such (mu = 1 gives exactly zero
    mutual information and zero rate).
    """
    return protocol_report(inp, xi).key_rate


def key_rate_from_cm(cm, xi: float = 1.0) -> dict:
    """Secret-key metrics of an arbitrary two-mode conditional state.

    Generic path used both as the independent oracle for the closed-form
    rate and for experimentally reconstructed covariance matrices: Alice
    heterodynes mode 0, Bob mode 1, the eavesdropper holds the full
    purification.  Bob's state conditioned on Alice's heterodyne comes from
    the Schur complement in ``gaussian``; a singular heterodyne block raises
    NumericDegeneracyError.  Symplectic eigenvalues of estimated matrices
    may dip below 1 by statistical noise and are clamped at 1.

    Returns a dict with mutual_info, holevo, rate and nu_c.
    """
    _check_xi(xi)
    m = _check_finite(_as_matrix(cm), "covariance matrix")
    if m.shape != (4, 4):
        raise ValidationError("key-rate evaluation requires a two-mode covariance matrix")
    overflow = "the key rate's 2x2 determinants overflow float64 for entries past 1e154"
    if np.abs(m).max() > _SQRT_FLOAT_MAX:
        raise NumericDegeneracyError(overflow)
    b = m[2:, 2:]
    b_cond = _condition(m, [2, 3], [0, 1], 1.0, "heterodyne conditioning block is singular")[0]
    if np.abs(b_cond).max() > _SQRT_FLOAT_MAX:  # conditioning grows only a matrix that is not PSD
        raise NumericDegeneracyError(overflow)
    denom = 1.0 + np.linalg.det(b_cond) + np.trace(b_cond)
    numer = 1.0 + np.linalg.det(b) + np.trace(b)
    if denom <= 0.0 or numer <= 0.0:
        raise ValidationError("conditional state is unphysical; more samples needed")
    mutual = 0.5 * math.log2(numer / denom)
    try:
        nlo, nhi = symplectic_spectrum(cm)
    except ValidationError:
        raise ValidationError("conditional state is unphysical; more samples needed") from None
    nc = math.sqrt(max(np.linalg.det(b_cond), 0.0))
    holevo = float(_h_arr(nlo) + _h_arr(nhi) - _h_arr(nc))
    return {
        "mutual_info": mutual,
        "holevo": holevo,
        "rate": xi * mutual - holevo,
        "nu_c": nc,
    }


# ---------------------------------------------------------------------------
# repeater bound


def repeater_bound_phi(n: float) -> float:
    """Single-repeater secret-key bound for additive-noise Gaussian links.

    Phi(n) = (n/2 - 1)/ln 2 - log2(n/2) for 0 < n <= 2 and 0 beyond; it
    diverges as n -> 0 (noiseless links), and n inside the boundary band
    below 0 reads as 0, as in ``AdditiveEnvironment``.
    """
    if not n >= -BOUNDARY_BAND:
        raise ValidationError(f"additive noise must be >= 0, got {n!r}")
    if n <= 0.0:
        return math.inf
    if n > 2.0:
        return 0.0
    return (n / 2.0 - 1.0) / math.log(2.0) - math.log2(n / 2.0)


# ---------------------------------------------------------------------------
# per-point reports


def protocol_report(inp: SwapInput, xi: float = 1.0) -> ProtocolReport:
    """Run every finite-mu analyzer at one parameter point."""
    if not inp.symmetric:
        raise ValidationError("the closed forms assume identical sources; set phi = mu")
    k, kp = kappa_params(inp.env)
    return _report(relay_metrics(inp.mu, k, kp, xi), k, kp, inp.mu, xi)


def protocol_report_asymptotic(env) -> ProtocolReport:
    """Large-mu report: optimal swapping, teleportation, distillation and QKD."""
    k, kp = kappa_params(env)
    return _report(relay_metrics(math.inf, k, kp), k, kp, math.inf, 1.0)


# relay_metrics keys of the report's figures, in field order
_FIGURES = ("epsilon", "log_neg", "fidelity", "coherent_info", "mutual_info_ab", "holevo_eve",
            "key_rate")


def _report(m: dict, k: float, kp: float, mu: float, xi: float) -> ProtocolReport:
    lb = m["key_rate_lb"]
    flags = {name: FLAG_VALUES[m[name].item()] for name in FLAG_KEYS}
    return ProtocolReport(mu, xi, k, kp, *(float(m[name]) for name in _FIGURES), flags,
                          None if lb is None else float(lb))
