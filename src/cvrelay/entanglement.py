"""Multipartite entanglement structure of the pre-measurement four-mode state.

The four modes are ordered (a, b, A', B') everywhere: the two kept arms
followed by the two arms arriving at the relay.  PPT tests on 1 x m
bipartitions are decisive for Gaussian states, so the bipartite and
quadripartite verdicts below are exact up to numerics; the tripartite
classification additionally needs the pure-state witness test separating
bound entanglement (class 4) from full separability (class 5).

The PPT tests, log-negativities and the tripartite classification run on
stacks of covariance matrices, shaped (..., 2n, 2n), in one pass; the
per-state functions are views of the stacked ones.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .gaussian import (
    CovarianceMatrix,
    ValidationError,
    _as_matrix,
    _check_finite,
    _transpose,
    _unstack,
    log_negativity,
    partial_transpose,
    pt_reflection,
    symplectic_form,
)
from .environments import ThermalEnvironment, entanglement_breaking_threshold

# Positivity of the Hermitian PPT test matrices is judged on the smallest
# eigenvalue; the absolute floor is widened in proportion to the matrix norm
# so that mu ~ 1e6 states do not drown the test in eigensolver noise.
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
_PAIRS = {"aAp": (0, 2), "aBp": (0, 3), "ab": (0, 1), "ApBp": (2, 3)}


def _min_eig_tol(m: np.ndarray):
    """PSD tolerance of every matrix in a stack, widened with its spectral norm.

    For the symmetric matrices it is applied to, the spectral norm is the
    largest eigenvalue modulus.
    """
    return np.maximum(PSD_ABS_TOL, PSD_REL_TOL * np.abs(np.linalg.eigvalsh(m)).max(axis=-1))


def ppt_min_eigenvalue(cm, modes):
    """Smallest eigenvalue of Lambda V Lambda + i Omega for the given modes.

    A float for one matrix, an array over the leading axes for a stack; a
    non-finite matrix is a ValidationError.
    """
    m = _check_finite(partial_transpose(cm, modes), "matrix")
    test = m.astype(complex) + 1j * symplectic_form(m.shape[-1] // 2)
    return _unstack(np.linalg.eigvalsh(test).min(axis=-1))


def is_ppt(cm, modes):
    """PPT verdict for the given modes: a bool, or an array for a stack."""
    m = _as_matrix(cm)
    return _unstack(np.asarray(ppt_min_eigenvalue(m, modes)) >= -_min_eig_tol(m))


# ---------------------------------------------------------------------------
# bipartite layer


def _pair_log_negativities(cm: CovarianceMatrix) -> dict:
    """Log-negativities of the pairings aA', aB', ab and A'B' over a stack of
    evolved states; by the a/b symmetry of identical sources they cover
    every pair."""
    return {name: log_negativity(cm.reduced(pair), [0]) for name, pair in _PAIRS.items()}


def logneg_kept_vs_transmitted_asymptotic(tau: float, omega: float) -> float:
    """Large-mu log-negativity of the aA' pairing.

    max{0, log2[(1 + tau)/((1 - tau) omega)]}: it hits zero exactly at the
    entanglement-breaking threshold omega_EB(tau).
    """
    return max(0.0, math.log2((1.0 + tau) / ((1.0 - tau) * omega)))


def pts_transmitted_pair_large_mu(mu: float, tau: float, omega: float, g: float, gp: float) -> float:
    """Leading-order smallest PTS eigenvalue of the A'B' pair.

    tau mu + (1 - tau)(2 omega - |g - g'|)/2; exact on the antidiagonal
    g + g' = 0 and an upper bound elsewhere, with vanishing relative error
    as mu grows.
    """
    return tau * mu + 0.5 * (1.0 - tau) * (2.0 * omega - abs(g - gp))


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
    lam = np.diag(pt_reflection(2, [0]))
    a = m[..., :2, :2].astype(complex)
    w = m[..., :2, 2:].astype(complex)
    v_bc = m[..., 2:, 2:].astype(complex)
    w_h = _transpose(w.conj())
    t = a - w @ np.linalg.pinv(v_bc + 1j * omega2, rcond=1e-12) @ w_h
    t_tilde = a - w @ np.linalg.pinv(v_bc + 1j * lam @ omega2 @ lam, rcond=1e-12) @ w_h
    return 0.5 * (t + _transpose(t.conj())), 0.5 * (t_tilde + _transpose(t_tilde.conj()))


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
    tol = _min_eig_tol(m)  # is_ppt per mode, with the norm taken once for all three
    ppt = np.stack([ppt_min_eigenvalue(m, [k]) >= -tol for k in range(3)], axis=-1)
    class_id = ppt.sum(axis=-1) + 1
    full = np.flatnonzero(class_id == 4)
    class_id[full[_dominates_pure_state(*_witness_pair(m[full]))]] = 5
    return class_id, ppt, class_id != 4


def tripartite_classify(cm) -> TripartiteClass:
    """Classify a three-mode Gaussian state by per-mode PPT plus witness test."""
    m = _check_finite(_as_matrix(cm), "matrix")
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

    Array-friendly in (g, g').
    """
    opt, omt, r = 1.0 + tau, 1.0 - tau, np.float64(r)  # a float64 r**4 overflows to inf, not an error
    f = opt**2 * (r * r - 1.0) - g * g * omt**2
    zeta = opt**4 * r**4 - opt**2 * (
        2.0 + g * g * omt**2 + gp * gp * omt**2 + 2.0 * tau * tau
    ) * r * r
    f_prime = omt**2 * (opt - g * gp * omt) ** 2 + zeta
    f_dprime = omt**2 * (opt + g * gp * omt) ** 2 + zeta
    return {
        "f": f,
        "f_prime": f_prime,
        "f_double_prime": f_dprime,
        "zeta": zeta,
        "sigma_prime": np.minimum(f, f_prime),
        "sigma_double_prime": np.minimum(f, f_dprime),
    }


REGIONS = ("I", "II", "III", "IV", "boundary")  # the region each region_codes code stands for


def region_codes(sigma_a, sigma_ap, tol: float):
    """1x3 regions from the classifiers of modes a and A' (array-friendly), as
    int8 codes into ``REGIONS``.

    Positive means separable in that grouping: "I" both, "II" only the
    mode-a classifier, "III" only the mode-A' one, "IV" neither, and
    "boundary" when either lies within ``tol`` of zero.
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
    funcs = quad_sigma_functions(tau, r, g, gp)
    sp, sdp = funcs["sigma_prime"], funcs["sigma_double_prime"]
    return sp, sdp, region_codes(sp, sdp, BOUNDARY_SIGMA)


def quadripartite_classify(env: ThermalEnvironment) -> QuadripartiteRegion:
    """Analytic large-mu 1x3 entanglement region of a noisy environment.

    Valid above the entanglement-breaking threshold (r = omega/omega_EB > 1),
    where the only possibly surviving entanglement is quadripartite.
    """
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
    return "separable-PPT" if is_ppt(m, [grouping_mode]) else "entangled"
