"""Covariance-matrix algebra for multimode Gaussian states.

Quadrature ordering is (q1, p1, ..., qn, pn) and everything is expressed in
shot-noise units: the vacuum state has variance 1 in each quadrature, so a
physical covariance matrix has all symplectic eigenvalues >= 1.

The module provides the covariance-matrix container, symplectic spectra and
entropies, partial transposition / log-negativity, Gaussian unitaries, and a
general Schur-complement oracle for conditioning on heterodyne and CV Bell
measurements, whose one conditioning core the key rate and the experiment's
estimator share.  All functions are pure; none of them mutates its arguments.

The container and the spectral functions also take stacks of matrices,
shaped (..., 2n, 2n): every matrix is validated and evaluated on its own,
and a single matrix is simply a stack without leading axes.  Stacked calls
return arrays; single-matrix calls return Python floats.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

# Structural tolerances are tighter than physics tolerances: conditioning
# involves one matrix inversion, so physics checks get an order of headroom.
SYMMETRY_RTOL = 1e-12
UNCERTAINTY_TOL = 1e-9
# The rounding of the symplectic spectrum grows like eps * max|V|^2 (on 2,000
# evolved relay states up to mu = 1e7, through the q/p-separated SVD of
# _spectrum_of: nu_min within 1.1 eps max|V|^2 of its 40-digit value, at
# most 1.4 eps max|V|^2 below 1); the uncertainty check allows this many
# times that, where it exceeds UNCERTAINTY_TOL.
_SPECTRUM_ROUNDING = 16.0
SYMPLECTIC_TOL = 1e-10


class ValidationError(ValueError):
    """A domain object or an operation input violates its contract."""


class NumericDegeneracyError(ArithmeticError):
    """A conditioning or estimation block is singular to working precision."""


class NotPositiveDefiniteError(ValidationError):
    """A matrix that must be positive definite failed its Cholesky factorisation."""


def symplectic_form(n_modes: int) -> np.ndarray:
    """Block-diagonal symplectic form, one [[0, 1], [-1, 0]] block per mode.

    The array is cached per mode count and read-only.
    """
    if n_modes < 1:
        raise ValidationError("n_modes must be a positive integer")
    return _symplectic_form(n_modes)


@functools.lru_cache(maxsize=None)
def _symplectic_form(n_modes: int) -> np.ndarray:
    omega = np.kron(np.eye(n_modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    omega.flags.writeable = False
    return omega


def _as_matrix(cm) -> np.ndarray:
    return cm.m if isinstance(cm, CovarianceMatrix) else np.asarray(cm, dtype=float)


def _transpose(m: np.ndarray) -> np.ndarray:
    """Transpose of every matrix in a stack."""
    return np.swapaxes(m, -1, -2)


def _unstack(x):
    """Python scalar for a 0-d result, the array itself for a stacked one."""
    return x.item() if np.ndim(x) == 0 else x


def _check_2n_symmetric(m: np.ndarray, what: str):
    """A stack shaped (..., 2n, 2n) of finite, symmetric matrices, or a ValidationError."""
    if m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.shape[-1] == 0 or m.shape[-1] % 2:
        raise ValidationError(f"{what} must be 2n x 2n, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValidationError(f"{what} has non-finite entries")
    scale = np.maximum(1.0, np.abs(m).max(axis=(-2, -1)))
    if np.any(np.abs(m - _transpose(m)).max(axis=(-2, -1)) > SYMMETRY_RTOL * scale):
        raise ValidationError(f"{what} is not symmetric")


def _check_positive_definite(m: np.ndarray, what: str) -> np.ndarray:
    """Lower Cholesky factor of every matrix in a stack (one stacked call); a
    factor that float64 cannot hold (an entry overflowed) fails too."""
    try:
        chol = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        chol = None
    if chol is None or not np.isfinite(chol).all():
        raise NotPositiveDefiniteError(f"{what} is not positive definite")
    return chol


def _spectrum_of(m: np.ndarray, chol: np.ndarray | None = None) -> np.ndarray:
    """Symplectic spectra of a stack of symmetric matrices, ascending.

    With m = L L^T, i*Omega*m is similar to the Hermitian i L^T Omega L, whose
    eigenvalues are the spectrum and its negatives (Williamson), so the +/-
    pairs hold by construction.  ``chol`` is L where the caller has factored
    m already.

    When no matrix of the stack couples a q to a p quadrature (every state
    the relay builds, and their partial transposes), neither does L, and
    i L^T Omega L is unitarily similar to [[0, iM], [-iM^T, 0]] with the real
    n x n M = Lq^T Lp: the spectrum is the singular values of M, from one
    stacked real SVD.  Otherwise one stacked ``eigvalsh`` of i L^T Omega L
    gives it.
    """
    n = m.shape[-1] // 2
    if chol is None:
        chol = _check_positive_definite(m, "matrix")
    if not (chol[..., ::2, 1::2].any() or chol[..., 1::2, ::2].any()):
        qp = _transpose(chol[..., ::2, ::2]) @ chol[..., 1::2, 1::2]
        return np.linalg.svd(qp, compute_uv=False)[..., ::-1]
    return np.linalg.eigvalsh(1j * (_transpose(chol) @ symplectic_form(n) @ chol))[..., n:]


class CovarianceMatrix:
    """A 2n x 2n quadrature covariance matrix in shot-noise units, or a
    stack of them shaped (..., 2n, 2n).

    Construction validates every matrix of the stack at once: symmetry,
    positive definiteness (one stacked Cholesky) and the uncertainty
    principle (smallest symplectic eigenvalue >= 1 within
    ``UNCERTAINTY_TOL``, or within the spectrum's rounding where a matrix's
    entries are large enough to make that the wider band; one stacked
    spectral call on the Cholesky factors, a real n x n SVD when the stack
    couples no q to a p quadrature, as every state the relay builds, and a
    Hermitian 2n x 2n eigenvalue call otherwise).  One bad matrix rejects
    the whole stack.  The stored array is read-only.
    """

    __slots__ = ("m", "n_modes")

    def __init__(self, entries):
        m = np.array(entries, dtype=float)
        _check_2n_symmetric(m, "covariance matrix")
        # near the float64 limit a symmetrised entry that overflows fails the
        # Cholesky check, and the spectrum's rounding band saturates at inf
        with np.errstate(over="ignore", invalid="ignore"):
            m = 0.5 * (m + _transpose(m))
            nu_min = _spectrum_of(m, _check_positive_definite(m, "covariance matrix"))[..., 0]
            scale = np.abs(m).max(axis=(-2, -1))
            tol = np.maximum(UNCERTAINTY_TOL, _SPECTRUM_ROUNDING * np.finfo(float).eps * scale * scale)
        bad = np.flatnonzero(nu_min < 1.0 - tol)
        if len(bad):
            where = f" (stack entry {bad[0]})" if m.ndim > 2 else ""
            raise ValidationError(
                "uncertainty principle violated: smallest symplectic eigenvalue "
                f"{nu_min.flat[bad[0]]:.12g} < 1{where}"
            )
        self._store(m)

    @classmethod
    def _trusted(cls, m: np.ndarray) -> "CovarianceMatrix":
        """Wrap a matrix that is valid by construction, skipping the checks."""
        cm = object.__new__(cls)
        cm._store(m)
        return cm

    def _store(self, m: np.ndarray):
        m.flags.writeable = False
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n_modes", m.shape[-1] // 2)

    def __setattr__(self, name, value):
        raise AttributeError("CovarianceMatrix is immutable")

    def __repr__(self):
        stack = f", stack={self.m.shape[:-2]}" if self.m.ndim > 2 else ""
        return f"CovarianceMatrix(n_modes={self.n_modes}{stack})"

    def reduced(self, modes) -> "CovarianceMatrix":
        """Covariance matrix of a subset of modes (partial trace of the rest).

        A principal block of a valid covariance matrix is itself valid (its
        smallest symplectic eigenvalue is no smaller), so it is not checked
        again.
        """
        idx = np.asarray(_quad_indices(self.n_modes, modes))
        return CovarianceMatrix._trusted(self.m[..., idx[:, None], idx])


def _quad_indices(n_modes: int, modes) -> list[int]:
    modes = list(modes)
    if len(set(modes)) != len(modes):
        raise ValidationError("duplicate mode indices")
    for k in modes:
        if not 0 <= k < n_modes:
            raise ValidationError(f"mode index {k} out of range for {n_modes} modes")
    return [q for k in modes for q in (2 * k, 2 * k + 1)]


@dataclass(frozen=True)
class GaussianState:
    """Gaussian state: mean quadrature vector, covariance matrix, mode labels."""

    mean: np.ndarray
    cm: CovarianceMatrix
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        mean = np.array(self.mean, dtype=float)
        mean.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        if mean.shape != (2 * self.cm.n_modes,):
            raise ValidationError(
                f"mean has length {mean.shape}, expected {2 * self.cm.n_modes}"
            )
        labels = tuple(self.labels) or tuple(f"m{k}" for k in range(self.cm.n_modes))
        if len(labels) != self.cm.n_modes:
            raise ValidationError("one label per mode required")
        object.__setattr__(self, "labels", labels)

    @property
    def n_modes(self) -> int:
        return self.cm.n_modes

    def reduced(self, modes) -> "GaussianState":
        idx = _quad_indices(self.n_modes, modes)
        return GaussianState(
            self.mean[idx], self.cm.reduced(modes), tuple(self.labels[k] for k in modes)
        )


class SymplecticMatrix:
    """A real matrix S with S Omega S^T = Omega (checked entrywise)."""

    __slots__ = ("m", "n_modes")

    def __init__(self, entries):
        m = np.array(entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2:
            raise ValidationError(f"symplectic matrix must be 2n x 2n, got {m.shape}")
        n = m.shape[0] // 2
        omega = symplectic_form(n)
        if float(np.abs(m @ omega @ m.T - omega).max()) > SYMPLECTIC_TOL:
            raise ValidationError("matrix does not preserve the symplectic form")
        m.flags.writeable = False
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n_modes", n)

    def __setattr__(self, name, value):
        raise AttributeError("SymplecticMatrix is immutable")

    def transposed(self) -> "SymplecticMatrix":
        return SymplecticMatrix(self.m.T)

    def __matmul__(self, other: "SymplecticMatrix") -> "SymplecticMatrix":
        return SymplecticMatrix(self.m @ other.m)


# ---------------------------------------------------------------------------
# constructors


def vacuum_cm(n_modes: int = 1) -> CovarianceMatrix:
    return CovarianceMatrix(np.eye(2 * n_modes))


def thermal_cm(variance: float, n_modes: int = 1) -> CovarianceMatrix:
    """Thermal state of the given quadrature variance (vacuum at 1)."""
    if variance < 1.0 - UNCERTAINTY_TOL:
        raise ValidationError("thermal variance must be >= 1 in shot-noise units")
    return CovarianceMatrix(variance * np.eye(2 * n_modes))


def tmsv_cm(mu: float) -> CovarianceMatrix:
    """Two-mode squeezed vacuum with quadrature variance mu >= 1."""
    if mu < 1.0:
        raise ValidationError("TMSV variance must be >= 1")
    i2 = np.eye(2)
    z = np.diag([1.0, -1.0])
    c = math.sqrt(mu * mu - 1.0)
    return CovarianceMatrix(np.block([[mu * i2, c * z], [c * z, mu * i2]]))


def direct_sum(*cms) -> CovarianceMatrix:
    mats = [_as_matrix(c) for c in cms]
    total = sum(m.shape[0] for m in mats)
    out = np.zeros((total, total))
    at = 0
    for m in mats:
        out[at : at + m.shape[0], at : at + m.shape[0]] = m
        at += m.shape[0]
    return CovarianceMatrix(out)


def beam_splitter(tau: float) -> SymplecticMatrix:
    """Two-mode beam splitter of transmissivity tau."""
    if not 0.0 <= tau <= 1.0:
        raise ValidationError("transmissivity must lie in [0, 1]")
    i2 = np.eye(2)
    t, r = math.sqrt(tau), math.sqrt(1.0 - tau)
    return SymplecticMatrix(np.block([[t * i2, r * i2], [-r * i2, t * i2]]))


def quadrature_squeezer(s: float) -> SymplecticMatrix:
    """Single-mode squeezer diag(s, 1/s) rescaling q by s and p by 1/s."""
    if s <= 0.0:
        raise ValidationError("squeezing scale must be positive")
    return SymplecticMatrix(np.diag([s, 1.0 / s]))


def rotation(theta: float) -> SymplecticMatrix:
    c, s = math.cos(theta), math.sin(theta)
    return SymplecticMatrix(np.array([[c, s], [-s, c]]))


def expand_symplectic(s: SymplecticMatrix, modes, n_total: int) -> SymplecticMatrix:
    """Embed a k-mode symplectic matrix into n_total modes, identity elsewhere."""
    modes = list(modes)
    if len(modes) != s.n_modes:
        raise ValidationError("mode list does not match the symplectic matrix size")
    idx = _quad_indices(n_total, modes)
    out = np.eye(2 * n_total)
    out[np.ix_(idx, idx)] = s.m
    return SymplecticMatrix(out)


def permute_modes(state: GaussianState, order) -> GaussianState:
    """Reorder the modes of a state; `order` lists old indices in new order."""
    order = list(order)
    if sorted(order) != list(range(state.n_modes)):
        raise ValidationError("order must be a permutation of all mode indices")
    idx = _quad_indices(state.n_modes, order)
    return GaussianState(
        state.mean[idx],
        CovarianceMatrix(state.cm.m[np.ix_(idx, idx)]),
        tuple(state.labels[k] for k in order),
    )


# ---------------------------------------------------------------------------
# spectra, entropies, entanglement


def symplectic_spectrum(cm) -> np.ndarray:
    """Symplectic eigenvalues of a covariance matrix, ascending.

    Raw arrays are accepted but must be shaped (..., 2n, 2n), finite,
    symmetric and positive definite.
    """
    m = _as_matrix(cm)
    if not isinstance(cm, CovarianceMatrix):
        _check_2n_symmetric(m, "matrix")
    return _spectrum_of(m)


def two_mode_spectrum(cm, transposed: bool = False):
    """Closed-form symplectic spectrum of a two-mode covariance matrix.

    With ``transposed=True`` the invariant det A + det B + 2 det C is replaced
    by det A + det B - 2 det C, which yields the spectrum of the partial
    transpose.  Returns (nu_minus, nu_plus): floats for one matrix, arrays
    over the leading axes for a stack.
    """
    m = _as_matrix(cm)
    if m.shape[-2:] != (4, 4):
        raise ValidationError("closed form requires a two-mode (4x4) matrix")
    det_a = np.linalg.det(m[..., :2, :2])
    det_b = np.linalg.det(m[..., 2:, 2:])
    det_c = np.linalg.det(m[..., :2, 2:])
    det_v = np.linalg.det(m)
    delta = det_a + det_b + (-2.0 if transposed else 2.0) * det_c
    disc = np.maximum(delta * delta - 4.0 * det_v, 0.0)
    hi_sq = (delta + np.sqrt(disc)) / 2.0
    if np.any(hi_sq <= 0.0):
        raise ValidationError("matrix has no real symplectic spectrum")
    # small root via the product form: avoids cancellation when hi >> lo
    return _unstack(np.sqrt(np.maximum(det_v, 0.0) / hi_sq)), _unstack(np.sqrt(hi_sq))


def entropic_h(x: float) -> float:
    """Entropy (bits) of a single symplectic eigenvalue x >= 1.

    h(x) = ((x+1)/2) log2((x+1)/2) - ((x-1)/2) log2((x-1)/2); h(1) = 0.
    """
    if x < 1.0 - UNCERTAINTY_TOL:
        raise ValidationError(f"entropic function requires x >= 1, got {x!r}")
    if x <= 1.0:
        return 0.0
    a = (x + 1.0) / 2.0
    b = (x - 1.0) / 2.0
    return a * math.log2(a) - b * math.log2(b)


def _h_arr(x):
    # vectorised entropic function without domain checks; clamps x below 1
    x = np.maximum(np.asarray(x, dtype=float), 1.0)
    a = (x + 1.0) / 2.0
    b = (x - 1.0) / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        out = a * np.log2(a) - np.where(b > 0.0, b * np.log2(b), 0.0)
    return out


def von_neumann_entropy(cm) -> float:
    """Von Neumann entropy in bits, summed over the symplectic spectrum."""
    return float(sum(entropic_h(nu) for nu in symplectic_spectrum(cm)))


def pt_reflection(n_modes: int, modes) -> np.ndarray:
    """Diagonal of the partial-transposition matrix: p -> -p on given modes."""
    d = np.ones(2 * n_modes)
    for k in set(modes):
        if not 0 <= k < n_modes:
            raise ValidationError(f"mode index {k} out of range")
        d[2 * k + 1] = -1.0
    return d


def partial_transpose(cm, modes) -> np.ndarray:
    """Partial transpose of a covariance matrix on the given modes.

    Returns a plain array: the result is generally not a physical covariance
    matrix.  An empty mode set is the identity map; applying the operation
    twice restores the input bit-exactly.
    """
    m = _as_matrix(cm)
    d = pt_reflection(m.shape[-1] // 2, modes)
    return d[:, None] * m * d[None, :]


def smallest_pts_eigenvalue(cm, modes):
    """Smallest symplectic eigenvalue of the partial transpose.

    A value < 1 certifies entanglement across the chosen bipartition.  The
    two-mode single-mode-transpose case uses the closed form (nan where its
    determinants overflow float64); otherwise the spectrum of the transposed
    matrix is computed numerically.  A float for one matrix, an array over
    the leading axes for a stack.
    """
    m = _as_matrix(cm)
    modes = list(modes)
    if m.shape[-2:] == (4, 4) and len(modes) == 1:
        with np.errstate(over="ignore", invalid="ignore"):
            return two_mode_spectrum(m, transposed=True)[0]
    return _unstack(_spectrum_of(partial_transpose(m, modes))[..., 0])


def log_negativity(cm, modes):
    """Entanglement monotone max{0, -log2(smallest PTS eigenvalue)} in bits.

    A float for one matrix, an array over the leading axes for a stack.
    """
    eps = np.asarray(smallest_pts_eigenvalue(cm, modes))
    with np.errstate(divide="ignore"):
        return _unstack(np.where(eps < 1.0, -np.log2(eps), 0.0))


# ---------------------------------------------------------------------------
# Gaussian unitaries and measurements


def apply_symplectic(state: GaussianState, s: SymplecticMatrix, d=None) -> GaussianState:
    """Gaussian unitary: mean -> S mean + d, V -> S V S^T."""
    if s.n_modes != state.n_modes:
        raise ValidationError("symplectic matrix and state have different mode counts")
    d = np.zeros(2 * state.n_modes) if d is None else np.asarray(d, dtype=float)
    if d.shape != (2 * state.n_modes,):
        raise ValidationError("displacement vector has the wrong length")
    return GaussianState(
        s.m @ state.mean + d, CovarianceMatrix(s.m @ state.cm.m @ s.m.T), state.labels
    )


def displace(state: GaussianState, d) -> GaussianState:
    d = np.asarray(d, dtype=float)
    return GaussianState(state.mean + d, state.cm, state.labels)


def _condition(v, kept, measured, noise: float, message: str):
    """Schur complement of a Gaussian on the quadratures ``measured``: the
    covariance V_kk - V_km theta^-1 V_mk of the ``kept`` ones, unsymmetrised,
    and the gain V_km theta^-1 onto their mean, with theta = V_mm + noise I
    (noise 0 for homodyne or classical variables, 1 for heterodyne).  theta
    is singular, NumericDegeneracyError(message), where its smallest
    eigenvalue is at most 1e-13 max(1, max|diag V|)."""
    theta = v[np.ix_(measured, measured)] + noise * np.eye(len(measured))
    if np.linalg.eigvalsh(theta)[0] <= 1e-13 * max(1.0, float(np.abs(np.diag(v)).max())):
        raise NumericDegeneracyError(message)
    cross = v[np.ix_(kept, measured)]
    solved = np.linalg.solve(theta, cross.T)
    return v[np.ix_(kept, kept)] - cross @ solved, solved.T


def condition_on_gaussian_measurement(
    state: GaussianState, measured_modes, kind: str, outcome=None
) -> GaussianState:
    """Conditional state of the unmeasured modes after a Gaussian measurement.

    ``kind`` is "heterodyne" (projection onto coherent states, one per
    measured mode) or "bell" (balanced beam splitter over exactly two
    measured modes followed by homodyne of (q1-q2)/sqrt(2) and
    (p1+p2)/sqrt(2)).  ``outcome`` holds the measured values: two per mode
    for heterodyne, the pair (q_minus, p_plus) for bell; it defaults to
    zeros.  The conditional covariance matrix never depends on the outcome.
    """
    measured = list(measured_modes)
    n = state.n_modes
    mi = _quad_indices(n, measured)  # validates range and duplicates
    if len(measured) == n:
        raise ValidationError("at least one mode must be retained")
    kept = [k for k in range(n) if k not in set(measured)]

    if kind == "heterodyne":
        noise, what = 1.0, "heterodyne"
    elif kind == "bell":
        if len(measured) != 2:
            raise ValidationError("bell measurement requires exactly two measured modes")
        i, j = measured
        # mode i -> (i - j)/sqrt(2), mode j -> (i + j)/sqrt(2); homodyne of q_i and p_j
        state = apply_symplectic(state, expand_symplectic(beam_splitter(0.5), [j, i], n))
        mi, noise, what = [2 * i, 2 * j + 1], 0.0, "homodyne"
    else:
        raise ValidationError(f"unknown measurement kind {kind!r}")
    z = np.zeros(len(mi)) if outcome is None else np.asarray(outcome, float)
    if z.shape != (len(mi),):
        raise ValidationError(f"{kind} outcome needs {len(mi)} entries, got shape {z.shape}")
    ki = _quad_indices(n, kept)
    cond, gain = _condition(state.cm.m, ki, mi, noise, f"{what} conditioning block is singular")
    mean = state.mean[ki] + gain @ (z - state.mean[mi])
    return GaussianState(mean, CovarianceMatrix(0.5 * (cond + cond.T)), tuple(state.labels[k] for k in kept))
