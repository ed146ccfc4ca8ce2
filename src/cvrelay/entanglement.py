"""Multipartite entanglement structure of the pre-measurement four-mode state.

The four modes are ordered (a, b, A', B') everywhere: the two kept arms
followed by the two arms arriving at the relay.  The bipartite
log-negativities are closed forms of the link map; PPT tests on 1 x m
bipartitions are decisive for Gaussian states, so the quadripartite
verdicts are exact up to numerics; the tripartite classification also
needs the pure-state witness test separating bound entanglement (class 4)
from full separability (class 5).  The PPT tests and the classification
run on stacks of covariance matrices, shaped (..., 2n, 2n), in one pass;
the per-state functions are views of the stacked ones.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .gaussian import (
    NumericDegeneracyError,
    ValidationError,
    _as_matrix,
    _transpose,
    _unstack,
    partial_transpose,
    symplectic_form,
)
from .environments import ThermalEnvironment, _checked_family, entanglement_breaking_threshold

# Every PPT verdict (1x3 groupings, tripartite modes, witness blocks) reads a
# smallest eigenvalue against max(PSD_ABS_TOL, PSD_REL_TOL * ||V||_2): the
# eigensolver's error grows like eps * ||V||_2, which the floor follows from
# ||V||_2 = 1e5 on, so that rounding noise does not decide a sign at large mu.
PSD_ABS_TOL = 1e-9
PSD_REL_TOL = 1e-14

BOUNDARY_SIGMA = 1e-9  # |Sigma| below this is reported as a boundary cell


@functools.cache
def _witness_grid():
    """Entries (qq, pp, qp) of the pure single-mode states
    sigma = R(phi) diag(s, 1/s) R(phi)^T over a 200 x 96 (squeeze, angle) grid.

    Built on first use, as most runs never get past the vacuum shortcut and
    the grid takes half a megabyte.
    """
    s = np.exp(2.0 * np.logspace(math.log10(1e-4), math.log10(5.0), 200))[:, None]
    angle = np.linspace(0.0, math.pi, 96, endpoint=False)
    cos, sin = np.cos(angle)[None, :], np.sin(angle)[None, :]
    return s * cos * cos + sin * sin / s, s * sin * sin + cos * cos / s, (s - 1.0 / s) * cos * sin


_WITNESS_BLOCK = 4  # states searched together; bounds the grid temporaries to a few MB

_MODE_NAMES = ("a", "b", "Ap", "Bp")


def _min_eig_tol(m: np.ndarray):
    """PSD tolerance max(PSD_ABS_TOL, PSD_REL_TOL * ||m||_2) of every matrix in
    a stack of symmetric ones.  Their eigenvalues are computed only where
    n max|m_ij|, an upper bound of ||m||_2 that squares no entry, could lift
    the tolerance above PSD_ABS_TOL (with a factor 2 to spare for rounding)."""
    tol = np.full(m.shape[:-2], PSD_ABS_TOL)
    big = np.abs(m).max(axis=(-2, -1)) >= 0.5 * PSD_ABS_TOL / PSD_REL_TOL / m.shape[-1]
    if big.any():
        tol[big] = np.maximum(PSD_ABS_TOL, PSD_REL_TOL * np.abs(np.linalg.eigvalsh(m[big])).max(axis=-1))
    return tol


def _ppt_margins(m: np.ndarray, modes):
    """``ppt_min_eigenvalue`` of each listed single mode, stacked on the last
    axis, and ``_min_eig_tol(m)``: a mode is PPT where its margin >= -tol."""
    return np.stack([ppt_min_eigenvalue(m, [k]) for k in modes], axis=-1), _min_eig_tol(m)


def ppt_min_eigenvalue(cm, modes):
    """Smallest eigenvalue of Lambda V Lambda + i Omega for the given modes.

    A float for one matrix, an array over the leading axes for a stack; a
    non-finite matrix is a ValidationError.
    """
    m = partial_transpose(cm, modes)
    test = m.astype(complex) + 1j * symplectic_form(m.shape[-1] // 2)
    return _unstack(np.linalg.eigvalsh(test).min(axis=-1))


# ---------------------------------------------------------------------------
# bipartite layer


def _link_log_negativities(mu, t, e, h, hp) -> list:
    """Log-negativities aA', aB', ab and A'B' of the states ``evolved_cm``
    builds from link map (t, e, h, h'), array-friendly; NumericDegeneracyError,
    naming mu, where float64 cannot hold one.  Transposed on a, both (a, A')
    sectors are [[mu, c], [c, x]], c and x as in ``evolved_cm``: their PT
    eigenvalue nu is det/lambda_max, det = mu e + t.  The (A', B') ones,
    [[x, h], [h, x]] and [[x, -h'], [-h', x]], share eigenvectors.  Mode a
    couples only to A' and b only to B', so aB' and ab are 0."""
    with np.errstate(over="ignore", invalid="ignore"):
        c, x = np.sqrt(mu * mu - 1.0) * np.sqrt(t), t * mu + e
        lam_max = (mu + x) / 2.0 + np.hypot((mu - x) / 2.0, c)
        # e +- h, which may be 0, goes before t mu: (t mu + e) + h can round it away
        nu = np.broadcast_arrays((mu * e + t) / lam_max,
                                 np.minimum(np.sqrt(t * mu + (e + h)) * np.sqrt(t * mu + (e - hp)),
                                            np.sqrt(t * mu + (e - h)) * np.sqrt(t * mu + (e + hp))))
    if not all(np.all((v > 0.0) & (v < math.inf)) for v in nu):
        raise NumericDegeneracyError(f"the evolved states at mu={np.max(mu):g} overflow float64")
    aap, apbp = (np.where(v < 1.0, -np.log2(v), 0.0) for v in nu)
    return [aap, np.zeros_like(aap), np.zeros_like(aap), apbp]


# ---------------------------------------------------------------------------
# tripartite layer


@dataclass(frozen=True)
class TripartiteClass:
    """Three-mode classification result.

    class_id runs from 1 (fully entangled) to 5 (fully separable);
    ``mode_ppt`` records the per-mode PPT verdicts in input order.  A class-4
    verdict with ``certified=False`` means the pure-state witness search was
    exhausted without certifying separability: the search grid is sound but
    not complete.
    """

    class_id: int
    mode_ppt: tuple[bool, bool, bool]
    certified: bool = True


def _witness_pair(m: np.ndarray):
    """Test matrices for the class-4/5 criterion of PPT three-mode states (stackable)."""
    omega2 = symplectic_form(2)
    a = m[..., :2, :2].astype(complex)
    w = m[..., :2, 2:].astype(complex)
    v_bc = m[..., 2:, 2:].astype(complex)
    w_h = _transpose(w.conj())
    t = a - w @ np.linalg.pinv(v_bc + 1j * omega2, rcond=1e-12) @ w_h
    t_tilde = a - w @ np.linalg.pinv(v_bc + 1j * partial_transpose(omega2, [0]), rcond=1e-12) @ w_h
    # halves before the sum: t + t^H overflows for entries past ~9e307
    return 0.5 * t + 0.5 * _transpose(t.conj()), 0.5 * t_tilde + 0.5 * _transpose(t_tilde.conj())


def _dominates_pure_state(t: np.ndarray, t_tilde: np.ndarray) -> np.ndarray:
    """Search, per state of a stack, for a single-mode pure-state CM sigma
    with T >= sigma and T~ >= sigma."""
    tol = np.maximum(_min_eig_tol(t.real), _min_eig_tol(t_tilde.real))
    # vacuum shortcut: sigma = I certifies most separable states immediately
    eye = np.eye(2)
    found = ((np.linalg.eigvalsh(t - eye).min(axis=-1) >= -tol)
             & (np.linalg.eigvalsh(t_tilde - eye).min(axis=-1) >= -tol))

    def dominated(mat, tol):
        sqq, spp, sqp = _witness_grid()
        a = mat[:, 0, 0, None, None].real - sqq
        d = mat[:, 1, 1, None, None].real - spp
        off = mat[:, 0, 1, None, None] - sqp
        min_eig = 0.5 * (a + d) - np.sqrt(0.25 * (a - d) ** 2 + np.abs(off) ** 2)
        return min_eig >= -tol[:, None, None]

    rest = np.flatnonzero(~found)
    for at in range(0, len(rest), _WITNESS_BLOCK):
        idx = rest[at : at + _WITNESS_BLOCK]
        both = dominated(t[idx], tol[idx]) & dominated(t_tilde[idx], tol[idx])
        found[idx] = both.any(axis=(1, 2))
    return found


def _tripartite_core(m: np.ndarray):
    """Stacked classification of (N, 6, 6) states: class ids, per-mode PPT
    verdicts (N, 3) and certification flags, as in ``tripartite_classify``."""
    margins, tol = _ppt_margins(m, range(3))
    ppt = margins >= -tol[..., None]
    class_id = ppt.sum(axis=-1) + 1
    full = np.flatnonzero(class_id == 4)
    class_id[full[_dominates_pure_state(*_witness_pair(m[full]))]] = 5
    return class_id, ppt, class_id != 4


def tripartite_classify(cm) -> TripartiteClass:
    """Classify a three-mode Gaussian state by per-mode PPT plus witness test."""
    m = _as_matrix(cm)  # a non-finite one fails the PPT tests' partial_transpose
    if m.shape != (6, 6):
        raise ValidationError("tripartite classification requires a three-mode state")
    class_id, ppt, certified = _tripartite_core(m[None])
    return TripartiteClass(int(class_id[0]), tuple(ppt[0].tolist()), bool(certified[0]))


# ---------------------------------------------------------------------------
# quadripartite layer


@dataclass(frozen=True)
class QuadripartiteRegion:
    """Sign pattern of the two analytic classifiers and the resulting region.

    Regions: "I" separable in every 1x3 grouping, "II" entangled in the
    {A'}{a b B'} grouping, "III" entangled in {a}{b A' B'}, "IV" entangled
    in all groupings, or "boundary" when either classifier sits within
    ``BOUNDARY_SIGMA`` of zero.
    """

    sigma_prime: float
    sigma_double_prime: float
    region: str


def quad_sigma_functions(tau: float, r: float, g, gp) -> dict:
    """Large-mu classifier polynomials at noise omega = r * omega_EB(tau).

    Array-friendly in (g, g').  A tau outside (0, 1) or a non-finite r, g
    or g' raises ValidationError.  Where r^4 alone passes float64, zeta, f'
    and f'' are inf and sigma', sigma'' are f; a sigma' or sigma'' that
    float64 cannot hold raises NumericDegeneracyError, naming r.
    """
    if not 0.0 < tau < 1.0:
        raise ValidationError(f"transmissivity must lie in (0, 1), got {tau!r}")
    g, gp = np.asarray(g, float), np.asarray(gp, float)  # float64 powers overflow to inf, not an error
    if not (math.isfinite(r) and np.isfinite(g).all() and np.isfinite(gp).all()):
        raise ValidationError("the quadripartite classifier needs finite r, g and g'")
    opt, omt, r = 1.0 + tau, 1.0 - tau, np.float64(r)
    with np.errstate(over="ignore", invalid="ignore"):
        f = opt**2 * (r * r - 1.0) - g * g * omt**2
        zeta = opt**4 * r**4 - opt**2 * (
            2.0 + g * g * omt**2 + gp * gp * omt**2 + 2.0 * tau * tau
        ) * r * r
        f_prime = omt**2 * (opt - g * gp * omt) ** 2 + zeta
        f_dprime = omt**2 * (opt + g * gp * omt) ** 2 + zeta
        sp, sdp = np.minimum(f, f_prime), np.minimum(f, f_dprime)
    if not (np.isfinite(sp).all() and np.isfinite(sdp).all()):
        raise NumericDegeneracyError(f"the quadripartite classifier at r={r:g} overflows float64")
    return {"f": f, "f_prime": f_prime, "f_double_prime": f_dprime, "zeta": zeta,
            "sigma_prime": sp, "sigma_double_prime": sdp}


REGIONS = ("I", "II", "III", "IV", "boundary")  # the region each region_codes code stands for


def region_codes(sigma_a, sigma_ap, tol):
    """1x3 regions from the classifiers of modes a and A' (array-friendly), as
    int8 codes into ``REGIONS``.

    Positive means separable in that grouping: "I" both, "II" only the
    mode-a classifier, "III" only the mode-A' one, "IV" neither, and
    "boundary" when either lies within ``tol`` (a number, or one per cell)
    of zero.
    """
    sa, sap = np.asarray(sigma_a), np.asarray(sigma_ap)
    return np.select(
        [(np.abs(sa) < tol) | (np.abs(sap) < tol), (sa > 0.0) & (sap > 0.0), sa > 0.0, sap > 0.0],
        np.array([4, 0, 1, 2], dtype=np.int8),
        np.int8(3),
    )


def quadripartite_regions(tau: float, omega: float, g, gp):
    """Array-friendly core of ``quadripartite_classify``: (sigma', sigma'',
    region codes into ``REGIONS``)."""
    r = omega / entanglement_breaking_threshold(tau)
    if r <= 1.0:
        raise ValidationError(
            "analytic quadripartite classifier requires omega above the "
            "entanglement-breaking threshold"
        )
    try:
        funcs = quad_sigma_functions(tau, r, g, gp)
    except NumericDegeneracyError:
        raise NumericDegeneracyError(f"the quadripartite classifier at omega={omega:g} overflows float64") from None
    sp, sdp = funcs["sigma_prime"], funcs["sigma_double_prime"]
    return sp, sdp, region_codes(sp, sdp, BOUNDARY_SIGMA)


def quadripartite_classify(env: ThermalEnvironment) -> QuadripartiteRegion:
    """Analytic large-mu 1x3 entanglement region of a noisy environment.

    Valid above the entanglement-breaking threshold (r = omega/omega_EB > 1),
    where the only possibly surviving entanglement is quadripartite.
    """
    _checked_family(type(env), ThermalEnvironment)
    sp, sdp, region = quadripartite_regions(env.tau, env.omega, env.g, env.gp)
    return QuadripartiteRegion(float(sp), float(sdp), REGIONS[region])


def quadripartite_numeric(cm, grouping_mode: int | str) -> str:
    """PPT verdict for a 1x3 grouping of a four-mode state at finite mu.

    ``grouping_mode`` singles out the lone mode, by index or by name among
    ("a", "b", "Ap", "Bp").  Returns "separable-PPT" or "entangled"; for
    1 x m bipartitions of Gaussian states PPT is equivalent to separability.
    """
    if isinstance(grouping_mode, str):
        try:
            grouping_mode = _MODE_NAMES.index(grouping_mode)
        except ValueError:
            raise ValidationError(f"unknown mode name {grouping_mode!r}") from None
    m = _as_matrix(cm)
    if m.shape != (8, 8):
        raise ValidationError("quadripartite test requires a four-mode state")
    margin, tol = _ppt_margins(m, [grouping_mode])
    return "separable-PPT" if margin[0] >= -tol else "entangled"


def quadripartite_numeric_regions(cm):
    """Finite-mu twin of ``quadripartite_regions`` over a stack of four-mode
    states: the PPT margins of modes a and A' and their region codes, which
    are the ``quadripartite_numeric`` verdicts, or "boundary" within tol."""
    m = _as_matrix(cm)
    if m.shape[-2:] != (8, 8):
        raise ValidationError("quadripartite test requires a four-mode state")
    margins, tol = _ppt_margins(m, (0, 2))
    sigma_a, sigma_ap = margins[..., 0], margins[..., 1]
    return sigma_a, sigma_ap, region_codes(sigma_a, sigma_ap, tol)
