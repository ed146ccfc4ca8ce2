"""Shot-level Monte-Carlo model of the proof-of-principle relay experiment.

Each shot draws Gaussian-modulated coherent amplitudes for Alice and Bob,
adds correlated classical displacements from the side channel, adds unit
shot noise per quadrature, passes both modes through the lossy relay and
records the CV Bell outcome gamma = ((qA' - qB')/sqrt2, (pA' + pB')/sqrt2).
The estimator converts amplitudes to their entanglement-based heterodyne
equivalents, reconstructs the joint classical second moments and Schur
complements on gamma to recover the conditional two-mode covariance matrix,
from which the secret-key rate follows by the generic analyzer.

Randomness comes from a counter-based Philox generator; every shot consumes
exactly DRAWS_PER_SHOT uniform draws, so the stream can be partitioned at
any chunk boundary without changing a single sample.

The estimator streams: ``run_point`` feeds it a run's shots in chunks of
any size, in shot order, and only running moments are kept.  The shots
are re-cut into fixed blocks of MOMENT_BLOCK, aligned to the absolute shot
index.  Each block gives its size n_b, mean m_b and centred co-moment
M_b = sum (x - m_b)(x - m_b)^T, and the blocks are merged in index order by
the pairwise update of Chan, Golub & LeVeque (1983) and Pebay
(SAND2008-6212):

    n = n_a + n_b,  d = m_b - m_a,  m = m_a + d n_b / n,
    M = M_a + M_b + d d^T n_a n_b / n.

Every sum is therefore taken in the same order whatever the chunking, and
the estimate is bit-identical for any chunk size.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, fields

import numpy as np

from .gaussian import NumericDegeneracyError, ValidationError
from .environments import AdditiveEnvironment, additive_env_classical_cm
from .protocols import key_rate_from_cm

RNG_ALGORITHM = "philox4x64"
DRAWS_PER_SHOT = 16  # 4 signal + 4 side-channel + 4 shot-noise + 4 loss draws
DEFAULT_CHUNK = 1 << 16
DRAW_BLOCK = 1 << 12  # most shots drawn and mixed at once; bounds the draw buffers
MOMENT_BLOCK = 1 << 12  # shots per co-moment block, aligned to the absolute shot index

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class ExperimentConfig:
    """One run of the simulated experiment.

    ``mu`` is the modulation variance (signal variance mu - 1 per
    quadrature), ``seed`` a 64-bit unsigned key, and ``stream`` an optional
    sub-stream index so sweeps can derive independent reproducible points
    from one master seed.
    """

    mu: float
    env: AdditiveEnvironment
    shots: int
    seed: int
    relay_efficiency: float = 1.0
    xi: float = 1.0
    stream: int = 0

    def __post_init__(self):
        if not 1.0 <= self.mu < math.inf:
            raise ValidationError(f"modulation variance must be finite and >= 1, got {self.mu!r}")
        if self.shots < 1:
            raise ValidationError("shots must be a positive integer")
        if not 0 <= self.seed < 2**64:
            raise ValidationError("seed must be a 64-bit unsigned integer")
        if not 0.0 < self.relay_efficiency <= 1.0:
            raise ValidationError("relay efficiency must lie in (0, 1]")
        if not 0.0 < self.xi <= 1.0:
            raise ValidationError("reconciliation efficiency must lie in (0, 1]")


@dataclass(frozen=True)
class ShotBatch:
    """Column-wise shot data: amplitudes (qa, pa, qb, pb) and gamma (qg, pg)."""

    qa: np.ndarray
    pa: np.ndarray
    qb: np.ndarray
    pb: np.ndarray
    qg: np.ndarray
    pg: np.ndarray

    def __len__(self) -> int:
        return self.qa.shape[0]

    def write_csv(self, fileobj, header: bool = True):
        """Dump the shots: header qa,pa,qb,pb,qg,pg (``header=False`` for a
        later chunk of the same dump), 12 significant digits."""
        if header:
            fileobj.write(",".join(_COLUMNS) + "\r\n")
        for row in zip(*(getattr(self, name) for name in _COLUMNS)):
            fileobj.write(",".join(f"{v:.12g}" for v in row) + "\r\n")


_COLUMNS = tuple(f.name for f in fields(ShotBatch))  # the shot columns, in dump order


def _noise_sqrt(env: AdditiveEnvironment) -> np.ndarray:
    """Symmetric PSD square root of the classical noise covariance.

    A symmetric root (not Cholesky) because the perfectly correlated cases
    |c| = 1 are rank deficient.
    """
    cm = additive_env_classical_cm(env)
    vals, vecs = np.linalg.eigh(cm)
    if vals.min() < -1e-9 * max(1.0, vals.max()):
        raise ValidationError("classical noise covariance is not positive semidefinite")
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T


def _philox(seed: int, stream: int, start: int) -> np.random.Generator:
    """Generator positioned at the first draw of shot ``start``.

    Each uniform costs exactly one 64-bit Philox output and DRAWS_PER_SHOT
    is a multiple of the 4-output Philox counter block, so jumping the
    counter to shot ``start`` lands on the same values for any partition.
    """
    bitgen = np.random.Philox(key=[seed, stream])
    bitgen.advance(DRAWS_PER_SHOT * start // 4)  # advance() counts counter blocks
    return np.random.Generator(bitgen)


def _draw_normals(gen: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` (shots x DRAWS_PER_SHOT) with standard normals, in place:
    one uniform per entry through the inverse normal CDF."""
    from scipy.special import ndtri  # here, not at the top: scipy dominates import time

    gen.random(out=out)
    np.clip(out, 1e-300, np.nextafter(1.0, 0.0), out=out)
    return ndtri(out, out=out)


def simulate_shot_batch(config: ExperimentConfig, start: int = 0, stop: int | None = None) -> ShotBatch:
    """Simulate the shots [start, stop) of a configuration (default: all).

    A shot depends only on the seed, the stream and its index, so any split
    of a run into ranges gives bit-identical shots.  Normals are drawn and
    mixed min(DRAW_BLOCK, stop - start) shots at a time into one
    (6, stop - start) array whose rows are the returned columns.
    """
    stop = config.shots if stop is None else stop
    if not 0 <= start < stop <= config.shots:
        raise ValidationError(f"shot range [{start}, {stop}) is not a non-empty part of [0, {config.shots})")
    sig = math.sqrt(config.mu - 1.0)
    t, r = math.sqrt(config.relay_efficiency), math.sqrt(1.0 - config.relay_efficiency)
    # n [[I, C], [C, I]] couples q1 with q2 and p1 with p2 only: arm j takes
    # root entries (j, j mod 2) on draw 4 + j mod 2 and (j, 2 + j mod 2) on
    # draw 6 + j mod 2; the other two entries are exact zeros.
    lroot = _noise_sqrt(config.env)
    near = lroot[[0, 1, 2, 3], [0, 1, 0, 1]].reshape(2, 2, 1)
    far = lroot[[0, 1, 2, 3], [2, 3, 2, 3]].reshape(2, 2, 1)
    out = np.empty((6, stop - start))
    block = min(DRAW_BLOCK, stop - start)
    u, z = np.empty((block, DRAWS_PER_SHOT)), np.empty((DRAWS_PER_SHOT, block))
    xi, tmp = np.empty((2, 2, 2, block))
    gen = _philox(config.seed, config.stream, start)
    for lo in range(0, stop - start, block):
        k = min(block, stop - start - lo)
        zk, xk, o = z[:, :k], xi[..., :k], out[:, lo : lo + k]
        zk[...] = _draw_normals(gen, u[:k]).T  # one contiguous row per draw
        np.multiply(zk[0:4], sig, out=o[0:4])  # (qa, pa, qb, pb) coherent amplitudes
        np.multiply(zk[4:6], near, out=xk)
        xk += np.multiply(zk[6:8], far, out=tmp[..., :k])
        quads = xk.reshape(4, k)  # arms (q1, p1, q2, p2)
        quads += o[0:4]
        quads += zk[8:12]  # side channel + shot noise
        quads *= t
        quads += np.multiply(zk[12:16], r, out=zk[12:16])  # relay loss, vacuum admixture
        np.subtract(quads[0], quads[2], out=o[4])
        np.add(quads[1], quads[3], out=o[5])
        o[4:6] /= _SQRT2
    return ShotBatch(*out)


@dataclass(frozen=True)
class EstimatedState:
    """Reconstructed conditional state and the rate extracted from it; the
    fields, in order, are those of an ``experiment`` report's point.

    ``cm_hat`` is the raw estimate: a finite-sample matrix that satisfies
    the uncertainty principle only within its statistical error band.
    ``stderr_bands`` holds the per-entry standard errors of ``cm_hat``.
    """

    key_rate_hat: float
    mutual_info: float
    holevo: float
    cm_hat: np.ndarray
    stderr_bands: np.ndarray
    sample_count: int


class _CoMoments:
    """Streamed size, mean and centred co-moment of the raw
    (qa, pa, qb, pb, qg, pg) rows, by the block merge of the module docstring.

    Chunks are added in shot order.  Shots wait in one block buffer until it
    holds MOMENT_BLOCK of them, or the run ends, and every block's
    statistics are computed from that buffer, so a block yields the same
    bits whichever chunks it came from.  The heterodyne scale is applied to
    the finished 6x6 matrix, not to the rows.
    """

    def __init__(self):
        self.count = 0
        self.mean = np.zeros(6)
        self.m2 = np.zeros((6, 6))
        self._block = np.empty((6, MOMENT_BLOCK))
        self._centred = np.empty((6, MOMENT_BLOCK))
        self._fill = 0

    def add(self, batch: ShotBatch):
        lo = 0
        while lo < len(batch):
            k = min(MOMENT_BLOCK - self._fill, len(batch) - lo)
            for row, name in zip(self._block, _COLUMNS):
                row[self._fill : self._fill + k] = getattr(batch, name)[lo : lo + k]
            self._fill, lo = self._fill + k, lo + k
            if self._fill == MOMENT_BLOCK:
                self._merge_block()

    def _merge_block(self):
        nb, self._fill = self._fill, 0
        x = self._block[:, :nb]
        mb = x.mean(axis=1)
        c = np.subtract(x, mb[:, None], out=self._centred[:, :nb])
        n = self.count + nb
        d = mb - self.mean
        self.mean += d * (nb / n)
        self.m2 += c @ c.T
        self.m2 += np.outer(d, d) * (self.count * nb / n)
        self.count = n

    def estimate(self, mu: float, xi: float) -> EstimatedState:
        """Estimate from all shots, after the last chunk: the unfinished
        block is merged as the final one.  The heterodyne scale
        (mu + 1)/sqrt(mu^2 - 1) needs actual modulation, mu > 1, which
        ``run_point`` checks before it simulates."""
        if self._fill:
            self._merge_block()
        if not self.count:
            raise ValidationError("no shots to estimate from")
        scale = (mu + 1.0) / math.sqrt(mu * mu - 1.0)
        d = np.array([scale, -scale, scale, -scale, 1.0, 1.0])
        cov = self.m2 / max(self.count - 1, 1) * np.outer(d, d)
        return estimate_from_second_moments(cov, self.count, xi)


def run_point(
    config: ExperimentConfig, chunk_shots: int = DEFAULT_CHUNK, dump: str | None = None
) -> EstimatedState:
    """Simulate and estimate one configuration, ``chunk_shots`` shots at a time.

    Only one chunk of shots is in memory at once; the estimate is
    bit-identical for any ``chunk_shots``.  ``dump`` names an optional CSV
    file that receives every shot (one header) as the chunks are simulated.
    The estimate needs modulation, mu > 1; a point without it is rejected
    before any shot is drawn, so it writes no dump.
    """
    if chunk_shots < 1:
        raise ValidationError("chunk_shots must be a positive integer")
    if config.mu <= 1.0 + 1e-12:
        raise ValidationError("covariance reconstruction needs signal modulation (mu > 1)")
    moments = _CoMoments()
    with open(dump, "w", encoding="utf-8", newline="") if dump else contextlib.nullcontext() as fh:
        for start in range(0, config.shots, chunk_shots):
            batch = simulate_shot_batch(config, start=start, stop=min(start + chunk_shots, config.shots))
            moments.add(batch)
            if fh:
                batch.write_csv(fh, header=not start)
    return moments.estimate(config.mu, config.xi)


def estimate_from_second_moments(cov: np.ndarray, sample_count: int, xi: float = 1.0) -> EstimatedState:
    """Schur-complement the joint (Alice, Bob, gamma) moments on gamma.

    Separated from the sampling path so the infinite-statistics limit can be
    fed through the identical reduction.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.shape != (6, 6):
        raise ValidationError("joint second-moment matrix must be 6x6")
    if not np.all(np.isfinite(cov)):
        raise NumericDegeneracyError("joint second moments are not finite")
    gg = cov[4:, 4:]
    if np.linalg.cond(gg) > 1e13:
        raise NumericDegeneracyError("gamma second-moment block is singular")
    xg = cov[:4, 4:]
    cond = cov[:4, :4] - xg @ np.linalg.solve(gg, xg.T)
    cond = 0.5 * (cond + cond.T)
    cm_hat = cond - np.eye(4)  # heterodyne variables carry one unit of vacuum
    count = max(sample_count, 1)
    stderr = np.sqrt((np.outer(np.diag(cond), np.diag(cond)) + cond**2) / count)
    metrics = key_rate_from_cm(cm_hat, xi)
    return EstimatedState(
        key_rate_hat=metrics["rate"],
        mutual_info=metrics["mutual_info"],
        holevo=metrics["holevo"],
        cm_hat=cm_hat,
        stderr_bands=stderr,
        sample_count=sample_count,
    )


def exact_second_moments(config: ExperimentConfig) -> np.ndarray:
    """Infinite-statistics joint moments of (Alice, Bob, gamma) variables.

    The population covariance the sampler converges to; useful for checking
    the estimator without Monte-Carlo noise, including lossy relays.
    """
    mu, env, eta = config.mu, config.env, config.relay_efficiency
    scale = (mu + 1.0) / math.sqrt(mu * mu - 1.0)
    sig = mu - 1.0
    noise = additive_env_classical_cm(env)
    cov = np.zeros((6, 6))
    # heterodyne-equivalent variables: variance scale^2 * (mu - 1) = mu + 1
    for k in range(4):
        cov[k, k] = scale * scale * sig
    st = math.sqrt(eta)
    # gamma couples to the amplitudes through the relay combination
    coupling = {0: (0, 1.0), 1: (1, 1.0), 2: (0, -1.0), 3: (1, 1.0)}
    reflect = (1.0, -1.0, 1.0, -1.0)
    for k, (gi, sign) in coupling.items():
        cov[k, 4 + gi] = cov[4 + gi, k] = reflect[k] * scale * st * sign * sig / _SQRT2
    # gamma second moments: signal + side channel + shot noise through loss
    var_q = eta * (sig + 1.0 + 0.5 * (noise[0, 0] + noise[2, 2]) - noise[0, 2]) + (1.0 - eta)
    var_p = eta * (sig + 1.0 + 0.5 * (noise[1, 1] + noise[3, 3]) + noise[1, 3]) + (1.0 - eta)
    cov[4, 4] = var_q
    cov[5, 5] = var_p
    return cov
