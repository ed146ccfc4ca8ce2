"""Closed-form analyzers for the relay protocols.

Covers entanglement swapping, coherent-state teleportation, one-way
entanglement/key distillation and practical relay QKD, each for finite
resource variance mu and in the asymptotic large-mu limit, plus the
single-repeater secret-key bound for additive-noise links.

Every closed-form figure of merit is a function of mu and the pair
(kappa, kappa') delivered by ``environments.kappa_params`` (or, for whole
grids, by ``thermal_kappas``/``additive_kappas``).  ``relay_metrics``
evaluates all of them at once over numpy arrays of kappas; the per-point
reports and the scalar helpers below are views of it, and the CLI's
``scan`` and ``thresholds`` call it on whole grids.  Covariance-matrix
builders (``evolved_cm``, ``swapped_cm``) and the generic
``key_rate_from_cm`` stay separate: they are the independent path the
closed forms are checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import (
    CovarianceMatrix,
    ValidationError,
    _h_arr,
    symplectic_spectrum,
    two_mode_spectrum,
)
from .environments import (
    AdditiveEnvironment,
    ThermalEnvironment,
    entanglement_breaking_threshold,
    kappa_params,
)

FLAG_GUARD = 1e-12  # open-inequality guard band for protocol success flags

_I2 = np.eye(2)


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
    """All analyzer outputs at one parameter point.

    ``flags`` holds swap_ok / tele_quantum / distill_ok / qkd_ok, each True,
    False or "marginal" when the defining inequality sits inside the guard
    band.  Asymptotic reports carry mu = inf and infinite raw mutual
    information / Holevo terms whose difference (the rate) stays finite.
    """

    epsilon: float
    log_neg: float
    fidelity: float
    coherent_info: float
    mutual_info_ab: float
    holevo_eve: float
    key_rate: float
    flags: dict
    kappa: float
    kappa_prime: float
    mu: float
    xi: float
    key_rate_lb: float | None = None

    def to_dict(self) -> dict:
        out = {
            "mu": self.mu,
            "xi": self.xi,
            "kappa": self.kappa,
            "kappa_prime": self.kappa_prime,
            "epsilon": self.epsilon,
            "log_neg": self.log_neg,
            "fidelity": self.fidelity,
            "coherent_info": self.coherent_info,
            "mutual_info_ab": self.mutual_info_ab,
            "holevo_eve": self.holevo_eve,
            "key_rate": self.key_rate,
            "flags": dict(self.flags),
        }
        if self.key_rate_lb is not None:
            out["key_rate_lb"] = self.key_rate_lb
        return out


def _flag(value, threshold, want_greater: bool):
    """Success flags, elementwise: True, False, or "marginal" inside the guard band."""
    gap = np.asarray((value - threshold) if want_greater else (threshold - value))
    flags = np.array((gap > 0.0).tolist(), dtype=object)  # Python bools, as JSON wants
    flags[np.abs(gap) <= FLAG_GUARD] = "marginal"
    return flags


def _nu_pair(mu, k, kp):
    """Symplectic eigenvalues of the symmetric swapped state, kappa's then kappa''s."""
    return np.sqrt(mu * (1.0 + mu * k) / (mu + k)), np.sqrt(mu * (1.0 + mu * kp) / (mu + kp))


def relay_metrics(mu, k, kp, xi: float = 1.0) -> dict:
    """Every closed-form relay metric from (mu, kappa, kappa'), array-friendly.

    Returns arrays keyed like ``ProtocolReport``: epsilon, log_neg, fidelity,
    coherent_info, mutual_info_ab, holevo_eve, key_rate, key_rate_lb and
    the four success flags.  At finite mu the fidelity is pinned to 1/2 at
    mu = 1, where there is no entanglement resource, and key_rate_lb is
    None.  ``mu = inf`` gives the large-mu set: epsilon_opt = sqrt(kappa
    kappa'), ideal-reconciliation rate R_opt with its epsilon-only lower
    bound R_LB, infinite mutual information and Holevo terms, and xi is
    ignored.
    """
    k, kp = np.asarray(k, float), np.asarray(kp, float)
    with np.errstate(divide="ignore", invalid="ignore"):
        if np.ndim(mu) == 0 and mu == math.inf:
            out = _large_mu_metrics(k, kp)
        else:
            _check_xi(xi)
            mu = np.asarray(mu, float)
            if not np.all(mu >= 1.0):
                raise ValidationError("mu must be >= 1")
            out = _finite_mu_metrics(mu, k, kp, xi)
        out["log_neg"] = np.maximum(-np.log2(out["epsilon"]), 0.0)
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
    holevo = _h_arr(nlo) + _h_arr(nhi) - _h_arr(nc)
    return {
        "epsilon": eps,
        "fidelity": np.where(mu > 1.0, 2.0 / n, 0.5),
        "coherent_info": _h_arr(nb) - _h_arr(nlo) - _h_arr(nhi),
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


def _metrics(inp: SwapInput, xi: float = 1.0) -> dict:
    k, kp = kappa_params(inp.env)
    return relay_metrics(inp.mu, k, kp, xi)


# ---------------------------------------------------------------------------
# pre-measurement four-mode state


def _links(family, params):
    """Link map (t, e, h, h') of an environment family, array-friendly.

    Each link takes a transmitted arm of variance v to t v + e and scales
    its coupling to the kept arm by sqrt(t); h and h' are the q and p
    correlations the environment leaves between A' and B'.
    """
    if family is ThermalEnvironment:
        tau = params["tau"]
        loss = 1.0 - tau
        return tau, loss * params["omega"], loss * params["g"], loss * params["gp"]
    if family is AdditiveEnvironment:
        n = params["n"]
        return 1.0, n, n * params["c"], n * params["cp"]
    raise ValidationError(f"unsupported environment type {getattr(family, '__name__', family)!r}")


def evolved_cm(inp, family=None, params=None) -> CovarianceMatrix:
    """Covariance matrix of modes (a, b, A', B') after the noisy links.

    Mode a is Alice's kept arm (variance phi), b is Bob's kept arm
    (variance mu); A' and B' are the transmitted arms arriving at the relay.

    ``evolved_cm(SwapInput)`` builds one 8x8 state.  ``evolved_cm(mu, family,
    params)`` builds a stack with phi = mu in one pass: ``family`` is
    ``ThermalEnvironment`` or ``AdditiveEnvironment`` and ``params`` maps its
    fields to broadcastable values, whose broadcast shape the stack takes.
    Either way the result is validated as one ``CovarianceMatrix``.
    """
    if isinstance(inp, SwapInput):
        phi, mu, family, params = inp.phi_value, inp.mu, type(inp.env), vars(inp.env)
    else:
        phi = mu = np.asarray(inp, dtype=float)
        if not np.all((mu >= 1.0) & (mu < math.inf)):
            raise ValidationError("mu must be finite and >= 1")
    t, e, h, hp = _links(family, params)
    s = np.sqrt(t)
    ca, cb = np.sqrt(phi * phi - 1.0) * s, np.sqrt(mu * mu - 1.0) * s
    y, x = t * phi + e, t * mu + e
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


def additive_swapped_cm(mu: float, env: AdditiveEnvironment) -> CovarianceMatrix:
    return swapped_cm(SwapInput(mu, env))


def swap_epsilon(inp: SwapInput) -> float:
    """Smallest PTS eigenvalue of the symmetric swapped state.

    sqrt[(1 + mu k)(1 + mu k') / ((mu + k)(mu + k'))]; equals 1 at mu = 1 and
    drops below 1, for any mu > 1, exactly when k k' < 1.
    """
    return protocol_report(inp).epsilon


def swap_epsilon_asymptotic(env) -> float:
    """Large-mu optimum sqrt(kappa kappa')."""
    return protocol_report_asymptotic(env).epsilon


def swapped_spectrum(inp: SwapInput) -> tuple[float, float]:
    """Symplectic spectrum (nu_minus, nu_plus) of the swapped state."""
    if not inp.symmetric:
        return two_mode_spectrum(swapped_cm(inp))
    k, kp = kappa_params(inp.env)
    lo, hi = sorted(float(nu) for nu in _nu_pair(inp.mu, k, kp))
    return lo, hi


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


def _thetas(inp: SwapInput) -> tuple[float, float]:
    k, kp = kappa_params(inp.env)
    half = (inp.mu + 1.0) / 2.0
    return half + k, half + kp


def teleport_correction(inp: SwapInput) -> TeleportCorrection:
    """Receiver correction restoring the input mean of the teleported state.

    A squeezer balances the q/p damping and a quantum-limited amplifier with
    gain >= 1 rescales the mean back to the input amplitude.  Undefined at
    mu = 1 where there is no entanglement resource and the gain diverges.
    """
    if inp.mu <= 1.0:
        raise ValidationError("no entanglement resource: teleportation needs mu > 1")
    t1, t1p = _thetas(inp)
    tmu2 = inp.mu * inp.mu - 1.0
    r = math.sqrt(t1 / t1p)
    eta = 4.0 * t1 * t1p / tmu2
    mu = inp.mu
    v_out = (
        (4.0 * mu / tmu2) * np.diag([t1 * t1, t1p * t1p])
        - 2.0 * np.diag([t1, t1p])
        + (eta - 1.0) * _I2
    )
    return TeleportCorrection(r, eta, t1, t1p, v_out)


def teleport_fidelity(inp: SwapInput) -> float:
    """Outcome-independent average fidelity; > 1/2 certifies quantum operation."""
    if inp.mu <= 1.0:
        raise ValidationError("no entanglement resource: teleportation needs mu > 1")
    return float(_metrics(inp)["fidelity"])


def teleport_fidelity_asymptotic(env) -> float:
    """Large-mu fidelity [(1+kappa)(1+kappa')]^(-1/2).

    Never exceeds 1/(1 + sqrt(kappa kappa')), with equality under
    antisymmetric correlations (kappa = kappa').
    """
    return protocol_report_asymptotic(env).fidelity


# ---------------------------------------------------------------------------
# distillation (coherent information)


def coherent_information(inp: SwapInput) -> float:
    """One-way distillation lower bound h(nu_b) - h(nu_-) - h(nu_+) in bits."""
    return protocol_report(inp).coherent_info


def coherent_information_asymptotic(env) -> float:
    """Large-mu limit -log2(e * sqrt(kappa kappa')); +inf for noiseless links."""
    return protocol_report_asymptotic(env).coherent_info


# ---------------------------------------------------------------------------
# practical QKD


def _check_xi(xi: float):
    if not 0.0 < xi <= 1.0:
        raise ValidationError(f"reconciliation efficiency must lie in (0, 1], got {xi!r}")


def qkd_mutual_information(inp: SwapInput) -> float:
    """Alice-Bob mutual information (bits) of the heterodyne protocol."""
    return float(_metrics(inp)["mutual_info_ab"])


def qkd_holevo_bound(inp: SwapInput) -> float:
    """Eavesdropper Holevo bound h(nu_-) + h(nu_+) - h(nu_c) in bits."""
    return float(_metrics(inp)["holevo_eve"])


def qkd_rate(inp: SwapInput, xi: float = 1.0) -> float:
    """Secret-key rate xi * I_AB - chi_E in bits per relay use.

    Non-positive results are returned as such (mu = 1 gives exactly zero
    mutual information and zero rate).
    """
    return float(_metrics(inp, xi)["key_rate"])


def additive_qkd_rate(mu: float, env: AdditiveEnvironment, xi: float = 1.0) -> float:
    return qkd_rate(SwapInput(mu, env), xi)


def qkd_rate_asymptotic(env) -> tuple[float, float]:
    """(R_opt, R_LB) for large mu and ideal reconciliation.

    R_LB never exceeds R_opt and the two coincide under antisymmetric
    correlations; R_LB can only be positive below epsilon_opt ~ 0.192.
    Both are +inf when kappa kappa' = 0.
    """
    report = protocol_report_asymptotic(env)
    return report.key_rate, report.key_rate_lb


def key_rate_from_cm(cm, xi: float = 1.0) -> dict:
    """Secret-key metrics of an arbitrary two-mode conditional state.

    Generic path used both as the independent oracle for the closed-form
    rate and for experimentally reconstructed covariance matrices: Alice
    heterodynes mode 0, Bob mode 1, the eavesdropper holds the full
    purification.  Symplectic eigenvalues of estimated matrices may dip
    below 1 by statistical noise and are clamped at 1.

    Returns a dict with mutual_info, holevo, rate and nu_c.
    """
    _check_xi(xi)
    m = cm.m if isinstance(cm, CovarianceMatrix) else np.asarray(cm, dtype=float)
    if m.shape != (4, 4):
        raise ValidationError("key-rate evaluation requires a two-mode covariance matrix")
    a, b, c = m[:2, :2], m[2:, 2:], m[:2, 2:]
    b_cond = b - c.T @ np.linalg.solve(a + _I2, c)
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
    diverges as n -> 0 (noiseless links).
    """
    if n < 0.0:
        raise ValidationError("additive noise must be >= 0")
    if n == 0.0:
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


def _report(m: dict, k: float, kp: float, mu: float, xi: float) -> ProtocolReport:
    lb = m["key_rate_lb"]
    return ProtocolReport(
        epsilon=float(m["epsilon"]),
        log_neg=float(m["log_neg"]),
        fidelity=float(m["fidelity"]),
        coherent_info=float(m["coherent_info"]),
        mutual_info_ab=float(m["mutual_info_ab"]),
        holevo_eve=float(m["holevo_eve"]),
        key_rate=float(m["key_rate"]),
        flags={name: m[name].item() for name in ("swap_ok", "tele_quantum", "distill_ok", "qkd_ok")},
        kappa=k,
        kappa_prime=kp,
        mu=mu,
        xi=xi,
        key_rate_lb=None if lb is None else float(lb),
    )
