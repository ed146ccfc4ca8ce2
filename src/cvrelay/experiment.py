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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import NumericDegeneracyError, ValidationError
from .environments import AdditiveEnvironment, additive_env_classical_cm
from .protocols import key_rate_from_cm

RNG_ALGORITHM = "philox4x64"
DRAWS_PER_SHOT = 16  # 4 signal + 4 side-channel + 4 shot-noise + 4 loss draws
DEFAULT_CHUNK = 1 << 16

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
class ShotRecord:
    """One relay use: prepared amplitudes and the broadcast Bell outcome."""

    alice_amp: complex
    bob_amp: complex
    gamma: complex


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

    def records(self):
        for k in range(len(self)):
            yield ShotRecord(
                complex(self.qa[k], self.pa[k]),
                complex(self.qb[k], self.pb[k]),
                complex(self.qg[k], self.pg[k]),
            )

    def write_csv(self, fileobj):
        """Dump the shots: header qa,pa,qb,pb,qg,pg, 12 significant digits."""
        fileobj.write("qa,pa,qb,pb,qg,pg\r\n")
        cols = (self.qa, self.pa, self.qb, self.pb, self.qg, self.pg)
        for row in zip(*cols):
            fileobj.write(",".join(f"{v:.12g}" for v in row) + "\r\n")


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


def _chunk_normals(seed: int, stream: int, start: int, count: int) -> np.ndarray:
    """Standard normals for shots [start, start + count), any partition plan.

    Uniform draws are mapped through the inverse normal CDF; each uniform
    costs exactly one 64-bit Philox output and DRAWS_PER_SHOT is a multiple
    of the 4-output Philox counter block, so jumping the counter to shot
    ``start`` lands on the same values regardless of chunking.
    """
    from scipy.special import ndtri  # here, not at the top: scipy dominates import time

    bitgen = np.random.Philox(key=[seed, stream])
    bitgen.advance(DRAWS_PER_SHOT * start // 4)  # advance() counts counter blocks
    u = np.random.Generator(bitgen).random((count, DRAWS_PER_SHOT))
    return ndtri(np.clip(u, 1e-300, np.nextafter(1.0, 0.0)))


def _batch_from_normals(config: ExperimentConfig, z: np.ndarray) -> ShotBatch:
    sig = math.sqrt(config.mu - 1.0)
    lroot = _noise_sqrt(config.env)
    t = math.sqrt(config.relay_efficiency)
    r = math.sqrt(1.0 - config.relay_efficiency)
    amps = sig * z[:, 0:4]  # (qa, pa, qb, pb) coherent amplitudes
    # fixed-order column arithmetic: BLAS matmul kernels vary with the chunk
    # shape and would break bit-identity across partition plans
    xi = np.stack(
        [sum(lroot[j, k] * z[:, 4 + k] for k in range(4)) for j in range(4)], axis=1
    )
    quads = amps + xi + z[:, 8:12]  # side channel + shot noise
    lossy = t * quads + r * z[:, 12:16]  # relay loss, vacuum admixture
    return ShotBatch(
        qa=amps[:, 0],
        pa=amps[:, 1],
        qb=amps[:, 2],
        pb=amps[:, 3],
        qg=(lossy[:, 0] - lossy[:, 2]) / _SQRT2,
        pg=(lossy[:, 1] + lossy[:, 3]) / _SQRT2,
    )


def _chunks(config: ExperimentConfig, chunk_shots: int):
    if chunk_shots < 1:
        raise ValidationError("chunk_shots must be a positive integer")
    for start in range(0, config.shots, chunk_shots):
        count = min(chunk_shots, config.shots - start)
        z = _chunk_normals(config.seed, config.stream, start, count)
        yield _batch_from_normals(config, z)


def simulate_shot_batch(config: ExperimentConfig, chunk_shots: int = DEFAULT_CHUNK) -> ShotBatch:
    """Simulate all shots of a configuration as column arrays.

    Deterministic and partition-independent: identical seeds give
    bit-identical batches for any ``chunk_shots``.
    """
    parts = list(_chunks(config, chunk_shots))
    return ShotBatch(
        **{
            name: np.concatenate([getattr(p, name) for p in parts])
            for name in ("qa", "pa", "qb", "pb", "qg", "pg")
        }
    )


def simulate_shots(config: ExperimentConfig, chunk_shots: int = DEFAULT_CHUNK):
    """Stream the shots of a configuration one record at a time."""
    for batch in _chunks(config, chunk_shots):
        yield from batch.records()


@dataclass(frozen=True)
class EstimatedState:
    """Reconstructed conditional state and the rate extracted from it.

    ``cm_hat`` is the raw estimate: a finite-sample matrix that satisfies
    the uncertainty principle only within its statistical error band.
    ``stderr`` holds the per-entry standard errors of ``cm_hat``.
    """

    cm_hat: np.ndarray
    sample_count: int
    key_rate_hat: float
    mutual_info: float
    holevo: float
    stderr: np.ndarray
    xi: float


def _second_moments(batch: ShotBatch, mu: float) -> tuple[np.ndarray, int]:
    scale = (mu + 1.0) / math.sqrt(mu * mu - 1.0)
    x = np.stack(
        [
            scale * batch.qa,
            -scale * batch.pa,
            scale * batch.qb,
            -scale * batch.pb,
            batch.qg,
            batch.pg,
        ]
    )
    n = x.shape[1]
    centered = x - x.mean(axis=1, keepdims=True)
    cov = centered @ centered.T / (n - 1 if n > 1 else 1)
    return cov, n


def estimate_from_second_moments(cov: np.ndarray, sample_count: int, xi: float = 1.0) -> EstimatedState:
    """Schur-complement the joint (Alice, Bob, gamma) moments on gamma.

    Separated from the sampling path so the infinite-statistics limit can be
    fed through the identical reduction.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.shape != (6, 6):
        raise ValidationError("joint second-moment matrix must be 6x6")
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
        cm_hat=cm_hat,
        sample_count=sample_count,
        key_rate_hat=metrics["rate"],
        mutual_info=metrics["mutual_info"],
        holevo=metrics["holevo"],
        stderr=stderr,
        xi=xi,
    )


def estimate_conditional_cm(shots, mu: float, xi: float = 1.0) -> EstimatedState:
    """Reconstruct the conditional covariance matrix from recorded shots.

    ``shots`` is a ShotBatch or an iterable of ShotRecord.  Amplitudes are
    mapped to heterodyne-equivalent variables with the reflection-and-scale
    factor (mu + 1)/sqrt(mu^2 - 1), which requires actual modulation
    (mu > 1).  As the sample grows and at unit relay efficiency the estimate
    converges to the analytic swapped covariance matrix.
    """
    if mu <= 1.0 + 1e-12:
        raise ValidationError("covariance reconstruction needs signal modulation (mu > 1)")
    if not isinstance(shots, ShotBatch):
        recs = list(shots)
        if not recs:
            raise ValidationError("no shots to estimate from")
        shots = ShotBatch(
            qa=np.array([r.alice_amp.real for r in recs]),
            pa=np.array([r.alice_amp.imag for r in recs]),
            qb=np.array([r.bob_amp.real for r in recs]),
            pb=np.array([r.bob_amp.imag for r in recs]),
            qg=np.array([r.gamma.real for r in recs]),
            pg=np.array([r.gamma.imag for r in recs]),
        )
    cov, n = _second_moments(shots, mu)
    return estimate_from_second_moments(cov, n, xi)


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


def experimental_key_rate(est: EstimatedState, xi: float) -> float:
    """Secret-key rate of a reconstructed state at reconciliation efficiency xi."""
    return key_rate_from_cm(est.cm_hat, xi)["rate"]
