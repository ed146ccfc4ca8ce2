"""Covariance-matrix algebra for multimode Gaussian states.

Quadrature ordering is (q1, p1, ..., qn, pn) and everything is expressed in
shot-noise units: the vacuum state has variance 1 in each quadrature, so a
physical covariance matrix has all symplectic eigenvalues >= 1.

The module provides the covariance-matrix container, symplectic spectra and
entropies (one formula for points and arrays, which does not cancel at large
eigenvalues), partial transposition / log-negativity, Gaussian unitaries, and
a general Schur-complement oracle for conditioning on heterodyne and CV Bell
measurements, whose one conditioning core the key rate and the experiment's
estimator share.  All functions are pure; none of them mutates its arguments.

The container and the spectral functions also take stacks of matrices,
shaped (..., 2n, 2n): every matrix is validated and evaluated on its own,
bit for bit as in a single call, and a single matrix is simply a stack
without leading axes.  Stacked calls return arrays; single-matrix calls
return Python floats.

The rules of the whole package are written here once: ``_held`` makes a
result that float64 cannot hold a NumericDegeneracyError, ``_built`` makes
a state built from valid input that fails validation one too,
``_quad_indices`` rejects a mode that is not an integer, out of range or
listed twice, and ``_count`` a count that is not an integer.  Every numeric
argument is read by one of three readers, whose ValidationError names the
argument and its first offending entry: ``_real`` a scalar, ``_floats`` an
array, and ``_as_matrix`` a matrix or a stack of them.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
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
_FLOAT_MAX = float(np.finfo(float).max)  # the largest finite float64, as a Python float


class ValidationError(ValueError):
    """A domain object or an operation input violates its contract."""


class NumericDegeneracyError(ArithmeticError):
    """A conditioning or estimation block is singular to working precision."""


def _held(message, *values) -> None:
    """NumericDegeneracyError(message) unless every entry of every value is
    finite; a callable message is called for its text, on failure only."""
    if not all(np.isfinite(v).all() for v in values):
        raise NumericDegeneracyError(message() if callable(message) else message)


def _built(m, message) -> "CovarianceMatrix":
    """``CovarianceMatrix(m)`` of a state built from valid input, so physical in exact
    arithmetic: a check it fails is float64's, NumericDegeneracyError(message), as in ``_held``."""
    try:
        return CovarianceMatrix(m)
    except ValidationError:
        raise NumericDegeneracyError(message() if callable(message) else message) from None


def _real(x, what: str) -> float:
    """``x`` as a Python float if it is a real number (a bool, an int, a float or numpy's) inside
    float64, nan and inf left to the entry's domain test; else a ValidationError naming ``what``."""
    try:
        if isinstance(x, numbers.Real):
            return float(x)
    except OverflowError:  # an int past float64
        pass
    raise ValidationError(f"{what} must be a real number inside float64, got {type(x).__name__}")


def _floats(x, what: str, finite: bool = True) -> np.ndarray:
    """``x`` as a float64 array (not a copy where it is one) of numbers ``_real`` reads, finite
    unless ``finite=False``; else a ValidationError naming ``what`` and its first offending entry."""
    try:
        a = np.asarray(x)
    except ValueError:  # ragged nesting
        raise ValidationError(f"{what} must be an array of real numbers, got ragged nesting") from None
    if a.dtype.kind not in "biuf" or a.dtype.itemsize > 8:  # entry by entry: objects, floats past float64
        a = np.array([_real(v, f"each entry of {what}") for v in a.flat]).reshape(a.shape)
    a = np.asarray(a, dtype=float)
    if finite and not (ok := np.isfinite(a)).all():
        raise ValidationError(f"{what} must be finite, got {a[~ok][0]} at flat index {np.argmin(ok)}")
    return a


def _count(n, what: str) -> int:
    """``operator.index(n)``: an integer count, else a ValidationError naming ``what``."""
    try:
        return operator.index(n)
    except TypeError:
        raise ValidationError(f"{what} must be an integer, got {type(n).__name__}") from None


@functools.lru_cache(maxsize=None, typed=True)  # typed: 2.0 is no cache hit for 2
def symplectic_form(n_modes: int) -> np.ndarray:
    """Block-diagonal symplectic form, one [[0, 1], [-1, 0]] block per mode.

    The array is cached per mode count and read-only.
    """
    if _count(n_modes, "n_modes") < 1:
        raise ValidationError("n_modes must be a positive integer")
    omega = np.kron(np.eye(n_modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    omega.flags.writeable = False
    return omega


def _as_matrix(cm, what: str, symmetric: bool = False) -> np.ndarray:
    """The entries of a CovarianceMatrix, or ``_floats(cm, what)`` shaped (..., 2n, 2n)
    and, with ``symmetric``, every matrix symmetric; else a ValidationError."""
    if isinstance(cm, CovarianceMatrix):
        return cm.m
    m = _floats(cm, what)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.shape[-1] == 0 or m.shape[-1] % 2:
        raise ValidationError(f"{what} must be 2n x 2n, got shape {m.shape}")
    if symmetric and np.any(np.abs(m - _transpose(m)).max(axis=(-2, -1))
                            > SYMMETRY_RTOL * np.maximum(1.0, np.abs(m).max(axis=(-2, -1)))):
        raise ValidationError(f"{what} is not symmetric")
    return m


def _transpose(m: np.ndarray) -> np.ndarray:
    """Transpose of every matrix in a stack."""
    return np.swapaxes(m, -1, -2)


def _unstack(x):
    """Python scalar for a 0-d result, the array itself for a stacked one."""
    return x.item() if np.ndim(x) == 0 else x


def _check_positive_definite(m: np.ndarray, what: str) -> np.ndarray:
    """Lower Cholesky factor of every matrix in a stack (one stacked call); a
    factor that float64 cannot hold (an entry overflowed) fails too."""
    try:
        chol = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        chol = None
    if chol is None or not np.isfinite(chol).all():
        raise ValidationError(f"{what} is not positive definite")
    return chol


def _spectrum_of(m: np.ndarray, chol: np.ndarray | None = None) -> np.ndarray:
    """Symplectic spectra of a stack of symmetric matrices, ascending.

    With m = L L^T, i*Omega*m is similar to the Hermitian i L^T Omega L, whose
    eigenvalues are the spectrum and its negatives (Williamson), so the +/-
    pairs hold by construction.  ``chol`` is L where the caller has factored
    m already.

    Where a matrix couples no q to a p quadrature (every state the relay
    builds, and their partial transposes), neither does L, and i L^T Omega L
    is unitarily similar to [[0, iM], [-iM^T, 0]] with the real n x n
    M = Lq^T Lp: the spectrum is the singular values of M, from a real SVD.
    The other matrices take ``eigvalsh`` of i L^T Omega L.  The branch is
    chosen per matrix, each branch taking its matrices in one stacked call,
    so a matrix's spectrum does not depend on its stack-mates.
    """
    n = m.shape[-1] // 2
    if chol is None:
        chol = _check_positive_definite(m, "matrix")
    coupled = chol[..., ::2, 1::2].any(axis=(-2, -1)) | chol[..., 1::2, ::2].any(axis=(-2, -1))
    if not coupled.any():
        qp = _transpose(chol[..., ::2, ::2]) @ chol[..., 1::2, 1::2]
        return np.linalg.svd(qp, compute_uv=False)[..., ::-1]
    if not coupled.all():  # a mixed stack: each part on its own branch
        nus = np.empty(m.shape[:-2] + (n,))
        for part in (coupled, ~coupled):
            nus[part] = _spectrum_of(m[part], chol[part])
        return nus
    return np.linalg.eigvalsh(1j * (_transpose(chol) @ symplectic_form(n) @ chol))[..., n:]


class CovarianceMatrix:
    """A 2n x 2n quadrature covariance matrix in shot-noise units, or a
    stack of them shaped (..., 2n, 2n).

    Construction validates every matrix of the stack at once: symmetry,
    positive definiteness (one stacked Cholesky) and the uncertainty
    principle (smallest symplectic eigenvalue >= 1 within
    ``UNCERTAINTY_TOL``, or within the spectrum's rounding where a matrix's
    entries are large enough to make that the wider band; the spectra of
    the Cholesky factors, a real n x n SVD for the matrices that couple no q
    to a p quadrature, as every state the relay builds, and a Hermitian
    2n x 2n eigenvalue call for the others).  One bad matrix rejects the
    whole stack.  The stored array is read-only.
    """

    __slots__ = ("m", "n_modes")

    def __init__(self, entries):
        m = _as_matrix(entries, "covariance matrix", symmetric=True)
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
    try:
        modes = [_count(k, "each mode") for k in modes]
    except TypeError:  # not iterable
        raise ValidationError(f"modes must be an iterable of integers, got {type(modes).__name__}") from None
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
        if not isinstance(self.cm, CovarianceMatrix):
            raise ValidationError(f"cm must be a CovarianceMatrix, got {type(self.cm).__name__}")
        mean = _floats(self.mean, "mean").copy()
        mean.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        if mean.shape != (2 * self.cm.n_modes,):
            raise ValidationError(f"mean has length {mean.shape}, expected {2 * self.cm.n_modes}")
        labels = tuple(self.labels) or tuple(f"m{k}" for k in range(self.cm.n_modes))
        if len(labels) != self.cm.n_modes:
            raise ValidationError("one label per mode required")
        object.__setattr__(self, "labels", labels)

    @property
    def n_modes(self) -> int:
        return self.cm.n_modes

    def reduced(self, modes) -> "GaussianState":
        idx = _quad_indices(self.n_modes, modes)
        modes = [q // 2 for q in idx[::2]]  # read once: ``modes`` may be an iterator
        return GaussianState(self.mean[idx], self.cm.reduced(modes), tuple(self.labels[k] for k in modes))


class SymplecticMatrix:
    """A real matrix S with S Omega S^T = Omega (checked entrywise)."""

    __slots__ = ("m", "n_modes")

    def __init__(self, entries):
        m = np.array(_as_matrix(entries, "symplectic matrix"))  # a copy, in the layout of the entries
        if m.ndim != 2:
            raise ValidationError(f"symplectic matrix must be 2n x 2n, got shape {m.shape}")
        n = m.shape[0] // 2
        omega = symplectic_form(n)
        with np.errstate(over="ignore", invalid="ignore"):  # entries past ~1e154: nan or inf, rejected
            if not np.abs(m @ omega @ m.T - omega).max() <= SYMPLECTIC_TOL:
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
    return thermal_cm(1.0, n_modes)


def thermal_cm(variance: float, n_modes: int = 1) -> CovarianceMatrix:
    """Thermal state of the given quadrature variance (vacuum at 1); NumericDegeneracyError past float64."""
    if not 1.0 - UNCERTAINTY_TOL <= (variance := _real(variance, "thermal variance")) <= _FLOAT_MAX:
        raise ValidationError(f"thermal variance must be finite and >= 1 in shot-noise units, got {variance!r}")
    if _count(n_modes, "n_modes") < 1:
        raise ValidationError("n_modes must be a positive integer")
    return _built(variance * np.eye(2 * n_modes),
                  f"the thermal state of variance {variance:g} cannot be held in float64")


def tmsv_cm(mu: float) -> CovarianceMatrix:
    """Two-mode squeezed vacuum of finite quadrature variance mu >= 1; NumericDegeneracyError past float64."""
    if not 1.0 <= (mu := _real(mu, "TMSV variance")) <= _FLOAT_MAX:
        raise ValidationError(f"TMSV variance must be finite and >= 1, got {mu!r}")
    c = math.sqrt(mu - 1.0) * math.sqrt(mu + 1.0)  # sqrt(mu^2 - 1) without squaring mu
    z = np.diag([c, -c], 2)  # q-q and p-p couplings of the two modes
    return _built(mu * np.eye(4) + z + z.T, f"the TMSV of variance {mu:g} cannot be held in float64")


def direct_sum(*cms) -> CovarianceMatrix:
    mats = [_as_matrix(c, "matrix") for c in cms]
    if not all(m.ndim == 2 for m in mats):
        raise ValidationError("a direct sum takes single matrices, not stacks")
    total = sum(m.shape[0] for m in mats)
    out = np.zeros((total, total))
    at = 0
    for m in mats:
        out[at : at + m.shape[0], at : at + m.shape[0]] = m
        at += m.shape[0]
    return CovarianceMatrix(out)


def beam_splitter(tau: float) -> SymplecticMatrix:
    """Two-mode beam splitter of transmissivity tau."""
    if not 0.0 <= (tau := _real(tau, "transmissivity")) <= 1.0:
        raise ValidationError("transmissivity must lie in [0, 1]")
    i2 = np.eye(2)
    t, r = math.sqrt(tau), math.sqrt(1.0 - tau)
    return SymplecticMatrix(np.block([[t * i2, r * i2], [-r * i2, t * i2]]))


def quadrature_squeezer(s: float) -> SymplecticMatrix:
    """Single-mode squeezer diag(s, 1/s) rescaling q by s and p by 1/s."""
    if not 0.0 < (s := _real(s, "squeezing scale")) <= _FLOAT_MAX:
        raise ValidationError(f"squeezing scale must be positive and finite, got {s!r}")
    _held(f"squeezing scale {s!r}: 1/s overflows float64", 1.0 / s)
    return SymplecticMatrix(np.diag([s, 1.0 / s]))


def rotation(theta: float) -> SymplecticMatrix:
    if not abs(theta := _real(theta, "rotation angle")) <= _FLOAT_MAX:
        raise ValidationError(f"rotation angle must be finite, got {theta!r}")
    c, s = math.cos(theta), math.sin(theta)
    return SymplecticMatrix(np.array([[c, s], [-s, c]]))


def expand_symplectic(s: SymplecticMatrix, modes, n_total: int) -> SymplecticMatrix:
    """Embed a k-mode symplectic matrix into n_total modes, identity elsewhere."""
    idx = _quad_indices(_count(n_total, "n_total"), modes)
    if len(idx) != 2 * s.n_modes:
        raise ValidationError("mode list does not match the symplectic matrix size")
    out = np.eye(2 * n_total)
    out[np.ix_(idx, idx)] = s.m
    return SymplecticMatrix(out)


def permute_modes(state: GaussianState, order) -> GaussianState:
    """Reorder the modes of a state; `order` lists old indices in new order."""
    try:
        idx = _quad_indices(state.n_modes, order)
    except ValidationError:  # not integers, one listed twice or out of range
        idx = []
    if len(idx) != 2 * state.n_modes:
        raise ValidationError("order must be a permutation of all mode indices")
    return state.reduced([q // 2 for q in idx[::2]])


# ---------------------------------------------------------------------------
# spectra, entropies, entanglement


def symplectic_spectrum(cm) -> np.ndarray:
    """Symplectic eigenvalues of a covariance matrix, ascending.

    Raw arrays are accepted but must be shaped (..., 2n, 2n), finite,
    symmetric and positive definite.
    """
    return _spectrum_of(_as_matrix(cm, "matrix", symmetric=True))


def _positive(nu: np.ndarray) -> np.ndarray:
    """``nu`` if all are > 0, as the symplectic eigenvalues of a positive
    definite matrix are; else rounding lost one: NumericDegeneracyError."""
    if not np.all(nu > 0.0):
        raise NumericDegeneracyError("a symplectic eigenvalue is lost to float64 rounding")
    return nu


def two_mode_spectrum(cm):
    """Closed-form symplectic spectrum of a two-mode matrix, from the
    invariants det A + det B + 2 det C and det V (Serafini, J. Phys. B 37
    (2004) L21).

    Returns (nu_minus, nu_plus): floats for one matrix, arrays over the
    leading axes for a stack.  Each matrix must be 4 x 4, finite, symmetric
    and positive definite, as a partial transpose of a covariance matrix is
    (a ValidationError otherwise).  Determinants past float64 (entries past
    ~1e77), or a root that rounding leaves at or below 0, are a
    NumericDegeneracyError.
    """
    m = _as_matrix(cm, "matrix", symmetric=True)
    if m.shape[-2:] != (4, 4):
        raise ValidationError("closed form requires a two-mode (4x4) matrix")
    _check_positive_definite(m, "matrix")
    with np.errstate(over="ignore", invalid="ignore"):
        det_a = np.linalg.det(m[..., :2, :2])
        det_b = np.linalg.det(m[..., 2:, 2:])
        det_c = np.linalg.det(m[..., :2, 2:])
        det_v = np.linalg.det(m)
        delta = det_a + det_b + 2.0 * det_c
        disc = delta * delta - 4.0 * det_v  # not finite if any of the above is not
    _held("the two-mode determinants overflow float64", disc)
    hi_sq = _positive((delta + np.sqrt(np.maximum(disc, 0.0))) / 2.0)
    # small root via the product form: avoids cancellation when hi >> lo
    return _unstack(np.sqrt(_positive(det_v / hi_sq))), _unstack(np.sqrt(hi_sq))


def _h_arr(x):
    """Entropy (bits) of symplectic eigenvalues, elementwise; x below 1 reads as 1.

    h = a log2 a - b log2 b with a = (x+1)/2, b = (x-1)/2, written log2 a + b log1p(1/b)/ln 2,
    which does not cancel as x grows; the product b log1p(1/b), nan at b = 0 and at b = inf,
    reads as 0 there (fmax drops a nan): callers ignore numpy's divide and invalid errors."""
    x = np.maximum(x, 1.0)
    b = (x - 1.0) / 2.0
    return np.log2((x + 1.0) / 2.0) + np.fmax(b * np.log1p(1.0 / b), 0.0) / math.log(2.0)


def entropic_h(x):
    """Entropy (bits) of symplectic eigenvalues x >= 1, the checked view of
    ``_h_arr``: a float for a scalar, an array for an array; h(inf) = inf.
    ValidationError for nan or x < 1 - UNCERTAINTY_TOL."""
    x = _floats(x, "entropic argument", finite=False)
    if not (x >= 1.0 - UNCERTAINTY_TOL).all():
        raise ValidationError(f"entropic function requires x >= 1, got {float(x.min())!r}")
    with np.errstate(divide="ignore", invalid="ignore"):
        return _unstack(_h_arr(x))


def von_neumann_entropy(cm):
    """Von Neumann entropy in bits, summed over the symplectic spectrum (stackable)."""
    return _unstack(entropic_h(symplectic_spectrum(cm)).sum(axis=-1))


def partial_transpose(cm, modes) -> np.ndarray:
    """Partial transpose of a covariance matrix on the given modes: p -> -p
    on each of them, an exact sign flip of its rows and columns.

    Returns a plain array: the result is generally not a physical covariance
    matrix.  An empty mode set is the identity map; applying the operation
    twice restores the input bit-exactly.  A mode out of range or listed
    twice is a ValidationError.
    """
    m = _as_matrix(cm, "matrix")
    d = np.ones(m.shape[-1])
    d[_quad_indices(m.shape[-1] // 2, modes)[1::2]] = -1.0  # the p rows of the modes
    return d[:, None] * m * d[None, :]


def smallest_pts_eigenvalue(cm, modes):
    """Smallest symplectic eigenvalue of the partial transpose.

    A value < 1 certifies entanglement across the chosen bipartition.  The
    two-mode single-mode-transpose case takes ``two_mode_spectrum`` of the
    transposed matrix, the others ``symplectic_spectrum``, with their
    ValidationErrors; an eigenvalue that rounding leaves at or below 0 is a
    NumericDegeneracyError.  A float for one matrix, an array over the
    leading axes for a stack.
    """
    m = _as_matrix(cm, "matrix")
    modes = [q // 2 for q in _quad_indices(m.shape[-1] // 2, modes)[::2]]
    m = partial_transpose(m, modes)
    if m.shape[-2:] == (4, 4) and len(modes) == 1:
        return two_mode_spectrum(m)[0]
    return _unstack(_positive(symplectic_spectrum(m)[..., 0]))


def log_negativity(cm, modes):
    """Entanglement monotone max{0, -log2(smallest PTS eigenvalue)} in bits,
    with the errors of ``smallest_pts_eigenvalue``: never inf.

    A float for one matrix, an array over the leading axes for a stack.
    """
    eps = np.asarray(smallest_pts_eigenvalue(cm, modes))
    return _unstack(np.where(eps < 1.0, -np.log2(eps), 0.0))


# ---------------------------------------------------------------------------
# Gaussian unitaries and measurements


def apply_symplectic(state: GaussianState, s: SymplecticMatrix, d=None) -> GaussianState:
    """Gaussian unitary: mean -> S mean + d, V -> S V S^T (d finite); NumericDegeneracyError past float64."""
    if s.n_modes != state.n_modes:
        raise ValidationError("symplectic matrix and state have different mode counts")
    d = np.zeros(2 * state.n_modes) if d is None else _floats(d, "displacement")
    if d.shape != (2 * state.n_modes,):
        raise ValidationError("displacement vector has the wrong length")
    with np.errstate(over="ignore", invalid="ignore"):
        mean, m = s.m @ state.mean + d, s.m @ state.cm.m @ s.m.T
    return _computed_state(mean, m, state.labels, "transformed state")


def displace(state: GaussianState, d) -> GaussianState:
    return apply_symplectic(state, SymplecticMatrix(np.eye(2 * state.n_modes)), d)


def _computed_state(mean, m, labels, what: str) -> GaussianState:
    """The state of moments computed from a valid state's; NumericDegeneracyError where float64 cannot hold it."""
    _held(f"the {what} overflows float64", mean)
    return GaussianState(mean, _built(m, f"the {what} cannot be held in float64"), labels)


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
    zeros.  The conditional covariance matrix never depends on the outcome,
    and one that float64 cannot hold is a NumericDegeneracyError.
    """
    n = state.n_modes
    mi = _quad_indices(n, measured_modes)
    measured = [q // 2 for q in mi[::2]]
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
    z = np.zeros(len(mi)) if outcome is None else _floats(outcome, f"{kind} outcome")
    if z.shape != (len(mi),):
        raise ValidationError(f"{kind} outcome needs {len(mi)} entries, got shape {z.shape}")
    ki = _quad_indices(n, kept)
    with np.errstate(over="ignore", invalid="ignore"):
        cond, gain = _condition(state.cm.m, ki, mi, noise, f"{what} conditioning block is singular")
        mean = state.mean[ki] + gain @ (z - state.mean[mi])
        cond = 0.5 * cond + 0.5 * cond.T
    return _computed_state(mean, cond, tuple(state.labels[k] for k in kept), "conditional state")
