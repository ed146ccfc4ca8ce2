"""Closed-form analyzers for the relay protocols.

Covers entanglement swapping, coherent-state teleportation, one-way
entanglement/key distillation and practical relay QKD, each for finite
resource variance mu and in the asymptotic large-mu limit, plus the
single-repeater secret-key bound for additive-noise links.  The two
sources are identical two-mode squeezed vacua: both have variance mu.

Every closed-form figure of merit is a function of mu and the pair
(kappa, kappa'): ``environments.kappa_params`` gives it for one
environment, and an environment family's ``kappas`` map gives it for whole
grids of that family's parameters.  ``relay_metrics`` evaluates the
figures it is asked for over numpy arrays of kappas, and the CLI's
``scan`` and ``thresholds`` call it on whole grids for the figures they
print.  The scalar API is its two
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
    _FLOAT_MAX,
    CovarianceMatrix,
    NumericDegeneracyError,
    ValidationError,
    _as_matrix,
    _built,
    _condition,
    _floats,
    _h_arr,
    _held,
    _real,
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

_SQRT_FLOAT_MAX = math.sqrt(_FLOAT_MAX)  # ~1.34e154: a product of two larger numbers overflows

FLAG_GUARD = 1e-12  # open-inequality guard band for protocol success flags
# each success flag's figure, threshold and the side of it that succeeds (want_greater)
_FLAG_RULES = {"swap_ok": ("epsilon", 1.0, False), "tele_quantum": ("fidelity", 0.5, True),
               "distill_ok": ("coherent_info", 0.0, True), "qkd_ok": ("key_rate", 0.0, True)}
FLAG_KEYS = tuple(_FLAG_RULES)  # relay_metrics keys of the flags
FLAG_VALUES = (False, True, "marginal")  # the success flag each relay_metrics flag code stands for
# relay_metrics keys of the report's figures, in field order, and every key it returns
_FIGURES = ("epsilon", "log_neg", "fidelity", "coherent_info", "mutual_info_ab", "holevo_eve",
            "key_rate")
_METRIC_KEYS = (*_FIGURES, "key_rate_lb", *FLAG_KEYS)
_KEY_SET = frozenset(_METRIC_KEYS)


@dataclass(frozen=True)
class SwapInput:
    """Resources fed to the relay: the variance mu of both identical TMSV
    sources and the environment of the two links."""

    mu: float
    env: ThermalEnvironment | AdditiveEnvironment

    def __post_init__(self):
        object.__setattr__(self, "mu", _real(self.mu, "mu"))
        if not 1.0 <= self.mu <= _FLOAT_MAX:
            raise ValidationError(f"mu must be finite and >= 1, got {self.mu!r}")
        _checked_family(type(self.env))


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
    gap = (value - threshold) if want_greater else (threshold - value)
    return np.where(np.abs(gap) <= FLAG_GUARD, np.int8(2), gap > 0.0)


class _Lazy(dict):
    """Values computed on first lookup, each once, by ``formulas[key](self)``."""

    __slots__ = ("formulas",)

    def __init__(self, formulas):
        self.formulas = formulas

    def __missing__(self, key):
        value = self[key] = self.formulas[key](self)
        return value


def relay_metrics(mu, k, kp, xi: float = 1.0, names=None) -> dict:
    """The closed-form relay metrics ``names`` from (mu, kappa, kappa'), array-friendly.

    Returns arrays keyed like ``ProtocolReport``: epsilon, log_neg, fidelity, coherent_info,
    mutual_info_ab, holevo_eve, key_rate, key_rate_lb and the four success flags
    (``FLAG_KEYS``) as int8 codes into ``FLAG_VALUES``; ``names=None`` returns them all.
    Only the requested keys and what they share are computed, each by one formula, so a
    key has the same bits whatever else is requested.  A 0-d input runs on numpy scalars,
    with the bits of that cell of an array call.  At finite mu the fidelity is pinned
    to 1/2 at mu = 1, where there is no entanglement resource, and key_rate_lb is None.
    ``mu = inf`` gives the large-mu set: epsilon_opt = sqrt(kappa kappa'),
    ideal-reconciliation rate R_opt with its epsilon-only lower bound R_LB, infinite
    mutual information and Holevo terms, and xi is ignored.  A negative or nan kappa
    raises ValidationError.  A requested figure, or the figure of a requested flag, that
    float64 cannot hold (nan, or inf at finite mu, where every figure is finite in exact
    arithmetic) raises NumericDegeneracyError, naming the first such cell's mu, kappa
    and kappa'.
    """
    names = _METRIC_KEYS if names is None else names
    if not _KEY_SET.issuperset(names):
        raise ValidationError(f"unknown relay metrics {sorted(set(names) - _KEY_SET)}")
    mu, k, kp = (_floats(x, what, finite=False)[()] for x, what in ((mu, "mu"), (k, "kappa"), (kp, "kappa'")))
    if not ((k >= 0.0) & (kp >= 0.0)).all():
        raise ValidationError("kappa and kappa' must be >= 0, got a negative or nan value")
    asymptotic = mu.ndim == 0 and mu == math.inf
    if asymptotic:
        formulas = _large_mu_formulas(k, kp)
    else:
        xi = _check_xi(xi)
        if not (mu >= 1.0).all():
            raise ValidationError("mu must be >= 1")
        formulas = _finite_mu_formulas(mu, k, kp, xi)
    v = _Lazy({**formulas, **_SHARED_FORMULAS})
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = {name: v[name] for name in names}
        checked = [v[name] for name in {_FLAG_RULES[n][0] if n in _FLAG_RULES else n for n in names}]
    figures = [f for f in checked if f is not None]  # each of the broadcast shape of mu, kappa and kappa'
    bad = (np.isnan(figures) if asymptotic else ~np.isfinite(figures)).any(axis=0)
    if bad.any():
        mu_bad, k_bad, kp_bad = (np.broadcast_to(a, bad.shape)[bad][0] for a in (mu, k, kp))
        raise NumericDegeneracyError(
            f"the closed-form metrics at mu={mu_bad:g}, kappa={k_bad:g}, kappa'={kp_bad:g} overflow float64")
    return out


# the formulas of both mu regimes: log_neg and the success flags
_SHARED_FORMULAS = {
    "log_neg": lambda v: np.maximum(-np.log2(v["epsilon"]), 0.0),
    **{flag: lambda v, f=figure, t=threshold, g=want_greater: _flag(v[f], t, g)
       for flag, (figure, threshold, want_greater) in _FLAG_RULES.items()},
}


def _finite_mu_formulas(mu, k, kp, xi) -> dict:
    """The finite-mu figures and their shared h(nu_-), h(nu_+), as formulas of a ``_Lazy``."""

    def fidelity(v):  # teleportation: average fidelity
        tmu2 = mu * mu - 1.0
        n = (
            (2.0 / tmu2)
            * np.sqrt((1.0 + mu + 2.0 * k) * (1.0 + mu + 2.0 * kp))
            * np.sqrt(1.0 + kp + mu * (1.0 + k))
            * np.sqrt(1.0 + k + mu * (1.0 + kp))
        )
        return np.where(mu > 1.0, 2.0 / n, 0.5)

    def coherent_info(v):  # distillation: h(nu_b) - h(nu_-) - h(nu_+) with Bob's reduced eigenvalue nu_b
        nb = 0.5 * np.sqrt(
            (1.0 + 2.0 * mu * k + mu * mu) * (1.0 + 2.0 * mu * kp + mu * mu) / ((mu + k) * (mu + kp))
        )
        return _h_arr(nb) - v["h_nu"][0] - v["h_nu"][1]

    def mutual_info_ab(v):  # QKD: heterodyne mutual information
        # products, not ** 2: numpy squares arrays but calls pow() on scalars
        sq, sqp = (1.0 + mu + 2.0 * k), (1.0 + mu + 2.0 * kp)
        sigma = (sq * sq) * (sqp * sqp) / (16.0 * (1.0 + k) * (1.0 + kp) * (mu + k) * (mu + kp))
        return 0.5 * np.log2(sigma)

    def holevo_eve(v):  # Holevo bound h(nu_-) + h(nu_+) - h(nu_c)
        nc = np.sqrt(
            (1.0 + mu + 2.0 * mu * k) * (1.0 + mu + 2.0 * mu * kp)
            / ((1.0 + mu + 2.0 * k) * (1.0 + mu + 2.0 * kp))
        )
        return v["h_nu"][0] + v["h_nu"][1] - _h_arr(nc)

    return {
        "h_nu": lambda v: tuple(_h_arr(np.sqrt(mu * (1.0 + mu * q) / (mu + q))) for q in (k, kp)),
        # swapping: smallest PTS eigenvalue
        "epsilon": lambda v: np.sqrt((1.0 + mu * k) * (1.0 + mu * kp) / ((mu + k) * (mu + kp))),
        "fidelity": fidelity,
        "coherent_info": coherent_info,
        "mutual_info_ab": mutual_info_ab,
        "holevo_eve": holevo_eve,
        "key_rate": lambda v: xi * v["mutual_info_ab"] - v["holevo_eve"],
        "key_rate_lb": lambda v: None,
    }


def _large_mu_formulas(k, kp) -> dict:
    """The large-mu figures, as formulas of a ``_Lazy``."""
    return {
        "epsilon": lambda v: np.sqrt(k * kp),
        "fidelity": lambda v: 1.0 / np.sqrt((1.0 + k) * (1.0 + kp)),
        "coherent_info": lambda v: -np.log2(math.e * v["epsilon"]),
        "mutual_info_ab": lambda v: np.full_like(v["epsilon"], np.inf),
        "holevo_eve": lambda v: np.full_like(v["epsilon"], np.inf),
        "key_rate": lambda v: np.where(
            v["epsilon"] > 0.0,
            np.log2(1.0 / (math.e**2 * np.sqrt((1.0 + k) * (1.0 + kp) * k * kp)))
            + _h_arr(np.sqrt((1.0 + 2.0 * k) * (1.0 + 2.0 * kp))),
            np.inf,
        ),
        "key_rate_lb": lambda v: np.where(
            v["epsilon"] > 0.0,
            np.log2(v["fidelity"]) - np.log2(math.e**2 * v["epsilon"]) + _h_arr(1.0 + 2.0 * v["epsilon"]),
            np.inf,
        ),
    }


# ---------------------------------------------------------------------------
# pre-measurement four-mode state


def evolved_cm(inp, family=None, params=None) -> CovarianceMatrix:
    """Covariance matrix of modes (a, b, A', B') after the noisy links.

    Modes a and b are the kept arms of the two identical sources of variance
    mu; A' and B' are the transmitted arms arriving at the relay.  The
    family's link map (t, e, h, h') takes each transmitted arm to t mu + e
    and scales its coupling to the kept arm by sqrt(t); h and h' are the q
    and p correlations the environment leaves between A' and B'.

    ``evolved_cm(SwapInput)`` builds one 8x8 state.  ``evolved_cm(mu, family,
    params)`` builds a stack in one pass: ``family`` is ``ThermalEnvironment``
    or ``AdditiveEnvironment`` and ``params`` maps its fields to
    broadcastable values, whose broadcast shape the stack takes.  A missing
    or unknown field, a non-finite parameter, a cell outside the family's
    physical mask or a tau outside [0, 1] raises ValidationError; a result
    float64 cannot hold or validate, NumericDegeneracyError naming the largest mu.
    """
    if isinstance(inp, SwapInput):
        inp, family, params = inp.mu, type(inp.env), vars(inp.env)
    fields = _checked_family(family).__dataclass_fields__
    if set(params or ()) != fields.keys():
        raise ValidationError(f"{family.__name__} takes the parameters {', '.join(fields)}")
    params = {name: _floats(params[name], name) for name in fields}
    mu = _floats(inp, "mu")
    if not np.all(mu >= 1.0):
        raise ValidationError("mu must be finite and >= 1")
    with np.errstate(over="ignore", invalid="ignore"):
        t, e, h, hp = family.links(**params)
        c, x = np.sqrt(mu * mu - 1.0) * np.sqrt(t), t * mu + e
    if not (np.all(family.physical(**params)) and np.all((t >= 0.0) & (t <= 1.0))):
        raise ValidationError("the environment parameters must be physical, with tau in [0, 1]")
    entries = {(0, 0): mu, (1, 1): mu, (2, 2): mu, (3, 3): mu, (4, 4): x, (5, 5): x,
               (6, 6): x, (7, 7): x, (0, 4): c, (1, 5): -c, (2, 6): c, (3, 7): -c,
               (4, 6): h, (5, 7): hp}
    m = np.zeros(np.broadcast_shapes(*map(np.shape, entries.values())) + (8, 8))
    for (i, j), value in entries.items():
        m[..., i, j] = m[..., j, i] = value
    return _built(m, lambda: f"the evolved states at mu={np.max(mu):g} cannot be held in float64")


# ---------------------------------------------------------------------------
# swapping


def swapped_cm(inp: SwapInput) -> CovarianceMatrix:
    """Conditional covariance of the remote pair (a, b) after Bell detection.

    Independent of the broadcast outcome, which only shifts the mean.  Both
    sources have variance mu; the q sector is damped by theta_q = mu + kappa
    and the p sector by theta_p = mu + kappa'.  NumericDegeneracyError past float64.
    """
    mu = inp.mu
    k, kp = kappa_params(inp.env)
    tmu = math.sqrt(mu * mu - 1.0)
    dq, dp = tmu * tmu / (2 * (mu + k)), tmu * tmu / (2 * (mu + kp))  # (mu^2 - 1) / (2 theta)
    return _built(np.array([[mu - dq, 0.0, dq, 0.0], [0.0, mu - dp, 0.0, -dp],
                            [dq, 0.0, mu - dq, 0.0], [0.0, -dp, 0.0, mu - dp]]),
                  f"the swapped state at mu={mu:g} cannot be held in float64")


def thermal_reactivation_g(tau: float, gp, omega: float | None = None):
    """Swapping-reactivation threshold g(g') where kappa kappa' = 1.

    Defaults to the entanglement-breaking noise omega_EB(tau); points below
    the returned g reactivate nothing, points above swap entanglement for
    every mu > 1.  Array-friendly in g'.  A tau outside (0, 1), a
    non-finite omega or g', or g' <= -omega, where the curve has no point,
    raises ValidationError; a g past float64 raises NumericDegeneracyError.
    """
    w_eb = entanglement_breaking_threshold(tau := _real(tau, "transmissivity"))
    omega = w_eb if omega is None else _real(omega, "omega")
    gp = _floats(gp, "g'")
    if not (abs(omega) <= _FLOAT_MAX and np.all(gp > -omega)):
        raise ValidationError("threshold curve requires finite omega and g' > -omega")
    f = 1.0 / tau - 1.0
    with np.errstate(divide="ignore", over="ignore"):
        g = omega - 1.0 / (f * f * (omega + gp))
    _held(f"the threshold curve at tau={tau:g} overflows float64", g)
    return g


def additive_reactivation_c(n: float, cp):
    """Additive-family threshold c(c') where (1 - c)(1 + c') = 1/n^2.

    A non-finite or non-positive n, or a non-finite c' or c' <= -1, where the
    curve has no point, raises ValidationError; a c past float64 raises
    NumericDegeneracyError.
    """
    n, cp = _real(n, "n"), _floats(cp, "c'")
    if not (0.0 < n <= _FLOAT_MAX and np.all(cp > -1.0)):
        raise ValidationError("threshold curve requires finite n > 0 and c' > -1")
    with np.errstate(divide="ignore", over="ignore"):
        c = 1.0 - 1.0 / (n * n * (1.0 + cp))
    _held(f"the threshold curve at n={n:g} overflows float64", c)
    return c


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
    _held(f"the teleport correction at mu={mu:g} overflows float64 (theta={t1:g}, theta'={t1p:g})",
          4.0 * peak * peak)  # bounds mu^2, theta^2 and 4 theta theta'
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


def _check_xi(xi) -> float:
    """``xi`` as a float if it lies in (0, 1]; else a ValidationError."""
    if not 0.0 < (xi := _real(xi, "reconciliation efficiency")) <= 1.0:
        raise ValidationError(f"reconciliation efficiency must lie in (0, 1], got {xi!r}")
    return xi


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
    xi = _check_xi(xi)
    m = _as_matrix(cm, "covariance matrix")
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
    with np.errstate(divide="ignore", invalid="ignore"):
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
    if not (n := _real(n, "additive noise")) >= -BOUNDARY_BAND:
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
    k, kp = kappa_params(inp.env)
    return _report(relay_metrics(inp.mu, k, kp, xi), k, kp, inp.mu, xi)


def protocol_report_asymptotic(env) -> ProtocolReport:
    """Large-mu report: optimal swapping, teleportation, distillation and QKD."""
    k, kp = kappa_params(env)
    return _report(relay_metrics(math.inf, k, kp), k, kp, math.inf, 1.0)


def _report(m: dict, k: float, kp: float, mu: float, xi: float) -> ProtocolReport:
    lb = m["key_rate_lb"]
    flags = {name: FLAG_VALUES[m[name].item()] for name in FLAG_KEYS}
    return ProtocolReport(mu, xi, k, kp, *(float(m[name]) for name in _FIGURES), flags,
                          None if lb is None else float(lb))
