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

The estimator streams: ``run_point`` cuts a run into chunks of whole
MOMENT_BLOCKs and simulates them on worker threads, one chunk per worker
per round (Philox and ``ndtri`` release the GIL), which return block
moments, and the shots only for a dump.  Draws, moments, chunks and dumps
share one grid of MOMENT_BLOCK shots, aligned to the absolute shot index;
only a run's last block may be short.  A worker turns each block of its
chunk into its size n_b, mean m_b and centred co-moment
M_b = sum (x - m_b)(x - m_b)^T, and the main thread merges the blocks in
index order by the pairwise update of Chan, Golub & LeVeque (1983) and
Pebay (SAND2008-6212):

    n = n_a + n_b,  d = m_b - m_a,  m = m_a + d n_b / n,
    M = M_a + M_b + d d^T n_a n_b / n.

Every sum is therefore taken in the same order whatever the chunking and
however many workers run, and the estimate is bit-identical for any chunk
size on any machine.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass, fields

import numpy as np

from .gaussian import _FLOAT_MAX, ValidationError, _condition, _count, _floats, _held, _real
from .environments import AdditiveEnvironment, _checked_family, additive_env_classical_cm, kappa_params
from .protocols import _check_xi, key_rate_from_cm

RNG_ALGORITHM = "philox4x64"
DRAWS_PER_SHOT = 16  # 4 signal + 4 side-channel + 4 shot-noise + 4 loss draws
DEFAULT_CHUNK = 1 << 16
MOMENT_BLOCK = 1 << 12  # shots per draw, mixing and co-moment block, aligned to the absolute shot index

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class ExperimentConfig:
    """One run of the simulated experiment.

    ``mu`` is the modulation variance (signal variance mu - 1 per
    quadrature), ``env`` an additive environment, and the integers ``seed``
    and ``stream`` a 64-bit unsigned key and sub-stream index, so sweeps
    can derive independent reproducible points from one master seed.
    """

    mu: float
    env: AdditiveEnvironment
    shots: int
    seed: int
    relay_efficiency: float = 1.0
    xi: float = 1.0
    stream: int = 0

    def __post_init__(self):
        for name, read in (("mu", _real), ("relay_efficiency", _real), ("xi", _real),
                           ("shots", _count), ("seed", _count), ("stream", _count)):
            object.__setattr__(self, name, read(getattr(self, name), name))
        if not 1.0 <= self.mu <= _FLOAT_MAX:
            raise ValidationError(f"modulation variance must be finite and >= 1, got {self.mu!r}")
        _checked_family(type(self.env), AdditiveEnvironment)
        if self.shots < 1:
            raise ValidationError("shots must be a positive integer")
        if not (0 <= self.seed < 2**64 and 0 <= self.stream < 2**64):
            raise ValidationError("seed and stream must be 64-bit unsigned integers")
        if not 0.0 < self.relay_efficiency <= 1.0:
            raise ValidationError("relay efficiency must lie in (0, 1]")
        _check_xi(self.xi)


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
        """Dump the shots by ``np.savetxt``: header qa,pa,qb,pb,qg,pg (``header=False``
        for a later chunk of the same dump), 12 significant digits, CRLF rows."""
        np.savetxt(fileobj, np.stack([getattr(self, name) for name in _COLUMNS], axis=1), fmt="%.12g",
                   delimiter=",", newline="\r\n", header=",".join(_COLUMNS) if header else "", comments="")


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
    np.maximum(out, 1e-300, out=out)  # random() is (x >> 11) * 2**-53: at most nextafter(1, 0), but 0 is possible
    return ndtri(out, out=out)


def simulate_shot_batch(config: ExperimentConfig, start: int = 0, stop: int | None = None) -> ShotBatch:
    """Simulate the shots [start, stop) of a configuration (default: all).

    A shot depends only on the seed, the stream and its index, so any split
    of a run into ranges gives bit-identical shots.  Normals are drawn and
    mixed min(MOMENT_BLOCK, stop - start) shots at a time into one
    (6, stop - start) array whose rows are the returned columns.
    """
    stop = config.shots if stop is None else _count(stop, "stop")
    if not 0 <= _count(start, "start") < stop <= config.shots:
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
    block = min(MOMENT_BLOCK, stop - start)
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


def _heterodyne_scale(mu: float) -> float:
    """(mu + 1)/sqrt(mu^2 - 1), amplitude to heterodyne variable, without squaring mu."""
    return math.sqrt((mu + 1.0) / (mu - 1.0))


def _block_moments(batch: ShotBatch) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """Size, mean and centred co-moment of the raw (qa, pa, qb, pb, qg, pg)
    rows of each MOMENT_BLOCK of a batch that starts on the block grid (the
    last block may be short), for ``_CoMoments.merge``."""
    scratch = np.empty((6, MOMENT_BLOCK))
    blocks = []
    for lo in range(0, len(batch), MOMENT_BLOCK):
        nb = min(MOMENT_BLOCK, len(batch) - lo)
        x = np.stack([getattr(batch, name)[lo : lo + nb] for name in _COLUMNS], out=scratch[:, :nb])
        mb = x.mean(axis=1)
        x -= mb[:, None]
        # a fixed-order einsum, not the gemm x @ x.T: the same bits whatever CPU kernel BLAS picks
        blocks.append((nb, mb, np.einsum("ik,jk->ij", x, x, optimize=False)))
    return blocks


class _CoMoments:
    """Size, mean and centred co-moment of a run's rows so far, merged block
    by block in shot order by the update of the module docstring.  Only a
    run's last block may be short.  The heterodyne scale is applied to the
    finished 6x6 matrix, not to the rows.
    """

    def __init__(self):
        self.count = 0
        self.mean = np.zeros(6)
        self.m2 = np.zeros((6, 6))

    def merge(self, blocks):
        """Merge ``_block_moments`` output, the blocks that follow the ones merged so far."""
        for nb, mb, cm in blocks:
            if self.count % MOMENT_BLOCK:
                raise ValidationError("a block must start on the block grid; only the last may be short")
            n = self.count + nb
            d = mb - self.mean
            self.mean += d * (nb / n)
            self.m2 += cm
            self.m2 += np.outer(d, d) * (self.count * nb / n)
            self.count = n

    def estimate(self, mu: float, xi: float) -> EstimatedState:
        """Estimate from all shots, after the last block.  The heterodyne
        scale needs actual modulation, mu > 1, which ``run_point`` checks
        before it simulates."""
        if not self.count:
            raise ValidationError("no shots to estimate from")
        scale = _heterodyne_scale(mu)
        d = np.array([scale, -scale, scale, -scale, 1.0, 1.0])
        cov = self.m2 / max(self.count - 1, 1) * np.outer(d, d)
        return estimate_from_second_moments(cov, self.count, xi)


def _available_cpus() -> int:
    """CPUs this process may run on: the most chunks ``run_point`` simulates at once."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _chunk_moments(config: ExperimentConfig, start: int, chunk: int, keep: bool):
    """In a worker: block moments of ``chunk`` shots from ``start`` (fewer at the end), and the shots if ``keep``."""
    with np.errstate(over="ignore", invalid="ignore"):  # per thread: the estimate rejects what overflows
        batch = simulate_shot_batch(config, start=start, stop=min(start + chunk, config.shots))
        return _block_moments(batch), batch if keep else None


def run_point(
    config: ExperimentConfig, chunk_shots: int = DEFAULT_CHUNK, dump: str | None = None
) -> EstimatedState:
    """Simulate and estimate one configuration, chunk by chunk.

    ``chunk_shots`` is rounded down to whole MOMENT_BLOCKs, at least one.
    A pool of worker threads, one per available CPU (at most one per
    chunk), runs in rounds of one chunk per worker: each worker turns its
    chunk into block moments, which are merged here in shot order before
    the next round starts.  The estimate is therefore bit-identical for any
    ``chunk_shots`` and any number of workers, and a point holds at most
    workers x max(chunk_shots, MOMENT_BLOCK) shots and one round of tasks,
    however many shots it runs.  ``dump`` names an optional CSV file for
    every shot (one header).  It is opened before the first draw; then each
    worker also returns its chunk's shots, written here in shot order as
    they are merged, so a dump holds at most one chunk more in memory.
    The estimate needs modulation, mu > 1; a point without it is rejected
    before any shot is drawn, so it writes no dump.  Noise or moments past
    the float64 range turn non-finite, and the estimate rejects them.
    """
    from concurrent.futures import ThreadPoolExecutor  # here, not at the top: it adds ~4 ms to `import cvrelay.cli`

    if _count(chunk_shots, "chunk_shots") < 1:
        raise ValidationError("chunk_shots must be a positive integer")
    if config.mu <= 1.0 + 1e-12:
        raise ValidationError("covariance reconstruction needs signal modulation (mu > 1)")
    chunk = max(1, chunk_shots // MOMENT_BLOCK) * MOMENT_BLOCK
    moments = _CoMoments()
    with (np.errstate(over="ignore", invalid="ignore"),
          open(dump, "w", encoding="utf-8", newline="") if dump else contextlib.nullcontext() as fh):
        workers = min(_available_cpus(), -(-config.shots // chunk))
        with ThreadPoolExecutor(workers) as pool:
            for first in range(0, config.shots, workers * chunk):  # a round: one chunk per worker
                for blocks, batch in pool.map(lambda start: _chunk_moments(config, start, chunk, bool(fh)),
                                              range(first, config.shots, chunk)[:workers]):
                    if fh:
                        batch.write_csv(fh, header=not moments.count)  # the header before the first chunk only
                    moments.merge(blocks)
    return moments.estimate(config.mu, config.xi)


def estimate_from_second_moments(cov: np.ndarray, sample_count: int, xi: float = 1.0) -> EstimatedState:
    """Schur-complement the joint (Alice, Bob, gamma) moments on gamma.

    Separated from the sampling path so the infinite-statistics limit can be
    fed through the identical reduction.
    """
    cov = _floats(cov, "joint second-moment matrix", finite=False)  # moments past float64 are a NumericDegeneracyError
    if cov.shape != (6, 6):
        raise ValidationError("joint second-moment matrix must be 6x6")
    _held("joint second moments are not finite", cov)
    cond = _condition(cov, range(4), [4, 5], 0.0, "gamma second-moment block is singular")[0]
    cond = 0.5 * cond + 0.5 * cond.T  # halves before the sum, which could overflow
    cm_hat = cond - np.eye(4)  # heterodyne variables carry one unit of vacuum
    count = max(_count(sample_count, "sample_count"), 1)
    with np.errstate(over="ignore"):
        stderr = np.sqrt((np.outer(np.diag(cond), np.diag(cond)) + cond**2) / count)
    _held("the standard errors of the estimate overflow float64", stderr)
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
    the estimator without Monte-Carlo noise, including lossy relays: gamma
    has variances eta (mu + kappa) + 1 - eta and eta (mu + kappa') + 1 - eta.
    """
    mu, eta = config.mu, config.relay_efficiency
    k, kp = kappa_params(config.env)
    a = _heterodyne_scale(mu) * math.sqrt(eta) * (mu - 1.0) / _SQRT2
    with np.errstate(over="ignore", invalid="ignore"):
        cov = np.diag([mu + 1.0] * 4 + [eta * (mu + k) + (1.0 - eta), eta * (mu + kp) + (1.0 - eta)])
    cov[[0, 1, 2, 3], [4, 5, 4, 5]] = cov[[4, 5, 4, 5], [0, 1, 2, 3]] = [a, -a, -a, -a]
    _held("the exact second moments overflow float64", cov)
    return cov
