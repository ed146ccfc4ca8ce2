import io
import math

import numpy as np
import pytest

from cvrelay import experiment as ex
from cvrelay import protocols as prot
from cvrelay.environments import AdditiveEnvironment
from cvrelay.gaussian import NumericDegeneracyError, ValidationError
from cvrelay.protocols import SwapInput

ENV11 = AdditiveEnvironment(1.0, 1.0, 1.0)


def config(**kw):
    base = dict(mu=52.0, env=ENV11, shots=1000, seed=42)
    base.update(kw)
    return ex.ExperimentConfig(**base)


def batches_equal(a, b):
    return all(
        np.array_equal(getattr(a, k), getattr(b, k))
        for k in ("qa", "pa", "qb", "pb", "qg", "pg")
    )


def test_config_validation():
    with pytest.raises(ValidationError):
        config(mu=0.5)
    with pytest.raises(ValidationError):
        config(shots=0)
    with pytest.raises(ValidationError):
        config(relay_efficiency=0.0)
    with pytest.raises(ValidationError):
        config(seed=2**64)
    with pytest.raises(ValidationError):
        config(xi=1.5)


def test_determinism_same_seed():
    a = ex.simulate_shot_batch(config())
    b = ex.simulate_shot_batch(config())
    assert batches_equal(a, b)
    c = ex.simulate_shot_batch(config(seed=43))
    assert not batches_equal(a, c)


def range_chunks(cfg, chunk):
    for start in range(0, cfg.shots, chunk):
        yield ex.simulate_shot_batch(cfg, start=start, stop=min(start + chunk, cfg.shots))


@pytest.mark.parametrize("chunk, sizes", [
    (1, [1] * 2500), (13, [13] * 192 + [4]), (999, [999, 999, 502]), (4096, [2500]),
], ids=["1", "13", "999", "4096"])
def test_shot_ranges_concatenate_to_the_whole_run(chunk, sizes):
    # each range is drawn min(DRAW_BLOCK, its length) shots at a time
    cfg = config(shots=2500, relay_efficiency=0.9)
    parts = list(range_chunks(cfg, chunk))
    assert [len(p) for p in parts] == sizes
    full = ex.simulate_shot_batch(cfg)
    joined = ex.ShotBatch(*(np.concatenate([getattr(p, k) for p in parts]) for k in ex._COLUMNS))
    assert batches_equal(full, joined)


@pytest.mark.parametrize("start, stop", [(0, 0), (5, 3), (-1, 10), (0, 1001)])
def test_shot_range_must_be_a_non_empty_part_of_the_run(start, stop):
    with pytest.raises(ValidationError):
        ex.simulate_shot_batch(config(), start=start, stop=stop)


@pytest.mark.parametrize("chunk", [1, 13, 999, 4096, 65536])
def test_streamed_estimate_equals_the_whole_batch_estimate(chunk):
    # 9001 shots: two full moment blocks and a tail, cut at every chunk size
    cfg = config(
        env=AdditiveEnvironment(1.0, 0.6, 0.4), shots=9001, seed=8, relay_efficiency=0.98, xi=0.97
    )
    whole = ex.run_point(cfg, chunk_shots=cfg.shots)
    streamed = ex.run_point(cfg, chunk_shots=chunk)
    assert np.array_equal(whole.cm_hat, streamed.cm_hat)
    assert np.array_equal(whole.stderr_bands, streamed.stderr_bands)
    assert whole.key_rate_hat == streamed.key_rate_hat
    assert whole.sample_count == streamed.sample_count == 9001


def test_block_merge_matches_the_two_pass_moments():
    # the fixed-block merge reorders the sums; it must still be the sample covariance
    batch = ex.simulate_shot_batch(config(shots=10_000, seed=4))
    moments = ex._CoMoments()
    moments.add(batch)
    moments.estimate(52.0, 1.0)
    x = np.stack([getattr(batch, k) for k in ex._COLUMNS])
    centred = x - x.mean(axis=1, keepdims=True)
    assert moments.count == 10_000
    np.testing.assert_allclose(moments.mean, x.mean(axis=1), rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(moments.m2, centred @ centred.T, rtol=1e-12)


def test_gamma_variance_noiseless():
    # Var(q_gamma) = (mu - 1) + 1 per arm, combined: mu
    cfg = config(env=AdditiveEnvironment(0.0), shots=200_000, seed=1)
    batch = ex.simulate_shot_batch(cfg)
    se = 52.0 * math.sqrt(2.0 / cfg.shots)
    assert abs(batch.qg.var() - 52.0) < 3.0 * se
    assert abs(batch.pg.var() - 52.0) < 3.0 * se


def test_perfectly_correlated_noise_is_identical_per_arm():
    # c = c' = 1: the side channel displaces both arms by the same vector
    lroot = ex._noise_sqrt(AdditiveEnvironment(3.0, 1.0, 1.0))
    assert np.array_equal(lroot[0], lroot[2])
    assert np.array_equal(lroot[1], lroot[3])
    z = ex._draw_normals(ex._philox(5, 0, 0), np.empty((2000, ex.DRAWS_PER_SHOT)))
    xi = z[:, 4:8] @ lroot.T
    assert np.array_equal(xi[:, 0], xi[:, 2])
    assert np.array_equal(xi[:, 1], xi[:, 3])
    n = 3.0
    cov13 = np.mean(xi[:, 0] * xi[:, 2])
    assert abs(cov13 - n) < 5.0 * n * math.sqrt(2.0 / 2000)


def test_antidiagonal_noise_cancels_in_gamma():
    # (c, c') = (1, -1): gamma statistics do not depend on n at all
    b0 = ex.simulate_shot_batch(config(env=AdditiveEnvironment(0.0), shots=4000, seed=9))
    b5 = ex.simulate_shot_batch(
        config(env=AdditiveEnvironment(5.0, 1.0, -1.0), shots=4000, seed=9)
    )
    assert np.abs(b0.qg - b5.qg).max() < 1e-11
    assert np.abs(b0.pg - b5.pg).max() < 1e-11


def test_estimator_rejects_degenerate_input():
    with pytest.raises(ValidationError):
        ex.run_point(config(mu=1.0))
    with pytest.raises(NumericDegeneracyError):
        # a single shot cannot support the gamma block inversion
        ex.run_point(config(shots=1))


def test_run_point_rejects_a_non_positive_chunk():
    with pytest.raises(ValidationError):
        ex.run_point(config(), chunk_shots=0)


def test_estimator_rejects_an_empty_chunk_stream():
    with pytest.raises(ValidationError):
        ex._CoMoments().estimate(52.0, 1.0)


def test_estimate_converges_to_analytic_cm():
    cfg = config(shots=10**6, seed=7)
    est = ex.run_point(cfg)
    analytic = prot.swapped_cm(SwapInput(52.0, ENV11)).m
    # entrywise agreement within a 5-standard-error band
    assert np.all(np.abs(est.cm_hat - analytic) < 5.0 * est.stderr_bands)
    assert est.sample_count == 10**6


def test_infinite_statistics_reduction_is_exact():
    # feeding the population moments through the estimator recovers the
    # analytic swapped state exactly at unit efficiency
    for env in (ENV11, AdditiveEnvironment(2.5, 0.3, -0.7), AdditiveEnvironment(0.0)):
        cfg = config(env=env, shots=10)
        est = ex.estimate_from_second_moments(ex.exact_second_moments(cfg), 10**9)
        analytic = prot.swapped_cm(SwapInput(52.0, env)).m
        assert np.abs(est.cm_hat - analytic).max() < 1e-12


def test_lossy_infinite_statistics_shifts_kappas():
    # relay loss eta acts exactly as kappa -> kappa + (1 - eta)/eta on both
    # sectors of the reconstructed state, so the rate falls below theory
    eta = 0.98
    delta = (1.0 - eta) / eta
    cfg = config(env=ENV11, relay_efficiency=eta, shots=10)
    est = ex.estimate_from_second_moments(ex.exact_second_moments(cfg), 10**9)
    mu = 52.0
    k, kp = 0.0 + delta, 2.0 + delta
    tmu2 = mu * mu - 1.0
    tq, tp = mu + k, mu + kp
    shifted = np.array(
        [
            [mu - tmu2 / (2 * tq), 0, tmu2 / (2 * tq), 0],
            [0, mu - tmu2 / (2 * tp), 0, -tmu2 / (2 * tp)],
            [tmu2 / (2 * tq), 0, mu - tmu2 / (2 * tq), 0],
            [0, -tmu2 / (2 * tp), 0, mu - tmu2 / (2 * tp)],
        ]
    )
    assert np.abs(est.cm_hat - shifted).max() < 1e-12
    assert est.key_rate_hat < prot.qkd_rate(SwapInput(mu, ENV11), 1.0)


def test_estimated_cm_statistical_soundness():
    # over many independent seeds each entry stays within 4 standard errors
    # of the analytic value in at least 99% of runs
    analytic = prot.swapped_cm(SwapInput(52.0, ENV11)).m
    inside = np.zeros((4, 4), dtype=int)
    runs = 100
    for seed in range(runs):
        est = ex.run_point(config(shots=10**5, seed=seed))
        inside += (np.abs(est.cm_hat - analytic) < 4.0 * est.stderr_bands).astype(int)
    assert inside.min() >= 99, inside


def test_estimated_cm_uncertainty_within_band():
    from cvrelay.gaussian import symplectic_spectrum

    est = ex.run_point(config(shots=10**5, seed=123))
    nu_min = min(symplectic_spectrum(0.5 * (est.cm_hat + est.cm_hat.T)))
    assert nu_min >= 1.0 - 5.0 * est.stderr_bands.max()


def test_experimental_key_rate_xi_dependence():
    est = ex.run_point(config(shots=200_000, seed=5))
    r1 = prot.key_rate_from_cm(est.cm_hat, 1.0)["rate"]
    r097 = prot.key_rate_from_cm(est.cm_hat, 0.97)["rate"]
    assert r097 < r1
    assert r1 == pytest.approx(est.key_rate_hat)


def test_shot_dump_schema():
    batch = ex.simulate_shot_batch(config(shots=3))
    buf = io.StringIO()
    batch.write_csv(buf)
    lines = buf.getvalue().split("\r\n")
    assert lines[0] == "qa,pa,qb,pb,qg,pg"
    assert len(lines) == 5 and lines[-1] == ""
    first = lines[1].split(",")
    assert len(first) == 6
    assert float(first[0]) == pytest.approx(batch.qa[0], rel=1e-11)
    # a dump written chunk by chunk has one header and the same bytes
    cfg = config(shots=3)
    chunked = io.StringIO()
    for start in range(3):
        ex.simulate_shot_batch(cfg, start=start, stop=start + 1).write_csv(chunked, header=not start)
    assert chunked.getvalue() == buf.getvalue()
