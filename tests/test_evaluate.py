import math

import numpy as np
import pytest

from sparsehawkes import (
    Dataset,
    ModelParams,
    Sequence,
    dense_log_likelihood,
    holdout_loglik,
    influence_matrix,
    rmse_params,
    runtime_benchmark,
    softplus_inv,
)
from sparsehawkes.evaluate import (
    BenchmarkResult,
    RecoveryReport,
    write_benchmark_tsv,
    write_recovery_tsv,
    write_series_tsv,
)

from oracles import alpha_brute, random_params, random_sequence, sp


def truth_from(params):
    return params.mu(), params.beta(), influence_matrix(params)


def test_materialize_influence_matches_pairwise_oracle():
    params = random_params(np.random.default_rng(0), n=5, d=3)
    alpha = influence_matrix(params)
    for x in range(5):
        for y in range(5):
            assert alpha[x, y] == pytest.approx(alpha_brute(params, x, y), rel=1e-12)


def test_rmse_zero_when_estimated_equals_truth():
    params = random_params(np.random.default_rng(1), n=6, d=2)
    report = rmse_params(params, truth_from(params))
    assert report.rmse_mu == 0.0
    assert report.rmse_beta == 0.0
    assert report.rmse_alpha == 0.0
    assert math.isnan(report.loglik)
    assert report.config == {"num_entities": 6, "dim": 2}


def test_rmse_mu_constant_shift():
    params = random_params(np.random.default_rng(2), n=8, d=2)
    mu, beta, alpha = truth_from(params)
    report = rmse_params(params, (mu - 0.37, beta, alpha))
    assert report.rmse_mu == pytest.approx(0.37, rel=1e-12)
    assert report.rmse_alpha == 0.0


def test_rmse_hand_computed_three_entity_instance():
    # small enough to redo every number with scalar arithmetic
    params = ModelParams(
        theta_mu=np.array([0.0, 1.0, -1.0]),
        theta_beta=0.25,
        theta_self=np.array([0.5, -0.5, 0.0]),
        theta_u=np.array([[0.2], [0.4], [-0.3]]),
        theta_v=np.array([[0.1], [-0.2], [0.6]]),
        dim=1,
    )
    mu_true = np.array([0.7, 1.3, 0.3])
    beta_true = 0.9
    alpha_true = np.full((3, 3), 0.25)

    mu_sq = 0.0
    for x in range(3):
        mu_sq += (sp(params.theta_mu[x]) - mu_true[x]) ** 2
    want_mu = math.sqrt(mu_sq / 3)

    want_beta = abs(sp(0.25) - 0.9)

    a_sq = 0.0
    for x in range(3):
        for y in range(3):
            if x == y:
                a_hat = sp(params.theta_self[x])
            else:
                a_hat = sp(params.theta_u[x, 0]) * sp(params.theta_v[y, 0])
            a_sq += (a_hat - 0.25) ** 2
    want_alpha = math.sqrt(a_sq / 9)

    report = rmse_params(params, (mu_true, beta_true, alpha_true))
    assert report.rmse_mu == pytest.approx(want_mu, rel=1e-12)
    assert report.rmse_beta == pytest.approx(want_beta, rel=1e-12)
    assert report.rmse_alpha == pytest.approx(want_alpha, rel=1e-12)


def test_rmse_shape_mismatch_rejected():
    params = random_params(np.random.default_rng(3), n=4, d=2)
    mu, beta, alpha = truth_from(params)
    with pytest.raises(ValueError, match="mu"):
        rmse_params(params, (mu[:3], beta, alpha))
    with pytest.raises(ValueError, match="alpha"):
        rmse_params(params, (mu, beta, alpha[:3, :3]))


def test_recovery_report_rejects_negative_metric():
    with pytest.raises(ValueError, match="rmse_beta"):
        RecoveryReport(rmse_mu=0.0, rmse_beta=-1.0, rmse_alpha=0.0, loglik=0.0)


def poisson_model(n, rate=1.0):
    very_negative = -30.0  # activation is ~1e-13 here, influence negligible
    return ModelParams(
        theta_mu=np.full(n, softplus_inv(rate)),
        theta_beta=softplus_inv(1.0),
        theta_self=np.full(n, very_negative),
        theta_u=np.full((n, 2), very_negative),
        theta_v=np.full((n, 2), very_negative),
        dim=2,
    )


def poisson_sequences(rng, n, horizon, count, rate=1.0):
    seqs = []
    for _ in range(count):
        times = []
        t = 0.0
        while True:
            t += rng.exponential(1.0 / (rate * n))
            if t > horizon:
                break
            times.append(t)
        entities = rng.integers(0, n, size=len(times))
        seqs.append(Sequence.from_arrays(times, entities, horizon))
    return seqs


def test_holdout_matches_poisson_expectation():
    # unit-rate process scores log 1 per event minus one compensator unit
    # per event in expectation, so the per-event value sits near -1
    rng = np.random.default_rng(4)
    data = Dataset(3, poisson_sequences(rng, 3, horizon=40.0, count=60, rate=1.0))
    assert data.total_events > 5000
    value = holdout_loglik(poisson_model(3), data)
    assert value == pytest.approx(-1.0, abs=0.02)


def test_holdout_duplication_invariance():
    rng = np.random.default_rng(5)
    params = random_params(rng, n=6, d=2)
    seqs = [random_sequence(rng, n_entities=6, max_events=30, horizon=10.0)
            for _ in range(5)]
    once = holdout_loglik(params, Dataset(6, seqs))
    thrice = holdout_loglik(params, Dataset(6, seqs * 3))
    assert thrice == pytest.approx(once, abs=1e-12)


def test_holdout_agrees_with_dense_engine():
    rng = np.random.default_rng(6)
    params = random_params(rng, n=7, d=3)
    seqs = [random_sequence(rng, n_entities=7, max_events=40, horizon=8.0)
            for _ in range(6)]
    data = Dataset(7, seqs)
    lazy_value = holdout_loglik(params, data)
    dense_value = dense_log_likelihood(params, data) / data.total_events
    assert lazy_value == pytest.approx(dense_value, rel=1e-9)


def test_holdout_rejects_empty_events():
    data = Dataset(3, [Sequence.from_arrays([], [], 5.0)])
    with pytest.raises(ValueError, match="zero events"):
        holdout_loglik(random_params(np.random.default_rng(7), n=3, d=2), data)


def sparse_benchmark_data(rng, n, sequences, events_each):
    seqs = []
    for _ in range(sequences):
        times = np.cumsum(rng.exponential(0.5, size=events_each))
        entities = rng.integers(0, n, size=events_each)
        seqs.append(Sequence.from_arrays(times, entities, float(times[-1]) + 1.0))
    return Dataset(n, seqs)


def test_benchmark_validates_inputs():
    data = sparse_benchmark_data(np.random.default_rng(8), 5, 3, 4)
    with pytest.raises(ValueError, match="unknown engine"):
        runtime_benchmark("fast", data)
    with pytest.raises(ValueError, match="repetitions"):
        runtime_benchmark("lazy", data, repetitions=0)


def test_benchmark_record_shape():
    data = sparse_benchmark_data(np.random.default_rng(9), 6, 4, 5)
    result = runtime_benchmark("lazy", data, repetitions=3)
    assert result.engine == "lazy"
    assert result.repetitions == 3
    assert len(result.times) == 3
    assert result.median_seconds == np.median(result.times)
    assert result.spread_seconds >= 0.0
    assert result.threads == 1
    assert all(t > 0 for t in result.times)


def test_benchmark_touch_counts_follow_complexity_law():
    rng = np.random.default_rng(10)
    base = sparse_benchmark_data(rng, 100, 20, 5)
    padded = Dataset(200, base.sequences)  # never-active entities only

    dense_base = runtime_benchmark("dense", base, repetitions=1)
    dense_padded = runtime_benchmark("dense", padded, repetitions=1)
    lazy_base = runtime_benchmark("lazy", base, repetitions=1)
    lazy_padded = runtime_benchmark("lazy", padded, repetitions=1)

    # dense work is proportional to the universe, lazy only gains the
    # one-touch-per-entity cache term
    assert dense_padded.entity_touches == 2 * dense_base.entity_touches
    assert lazy_padded.entity_touches == lazy_base.entity_touches + 100
    assert lazy_base.entity_touches < dense_base.entity_touches


def test_benchmark_lazy_beats_dense_on_sparse_data():
    rng = np.random.default_rng(11)
    data = sparse_benchmark_data(rng, 4000, 40, 5)
    lazy = runtime_benchmark("lazy", data, repetitions=3)
    dense = runtime_benchmark("dense", data, repetitions=3)
    assert lazy.median_seconds < dense.median_seconds


def test_benchmark_repetition_count_stability():
    data = sparse_benchmark_data(np.random.default_rng(12), 50, 10, 6)
    one = runtime_benchmark("lazy", data, repetitions=1)
    five = runtime_benchmark("lazy", data, repetitions=5)
    assert one.median_seconds > 0
    assert five.median_seconds > 0
    # medians agree up to scheduler noise; the band is deliberately loose
    ratio = one.median_seconds / five.median_seconds
    assert 0.05 < ratio < 20


def test_recovery_tsv_round_trip(tmp_path):
    report = RecoveryReport(
        rmse_mu=1.25e-5, rmse_beta=0.037, rmse_alpha=0.0625,
        loglik=-6.9375, config={"num_entities": 50, "dim": 20},
    )
    path = tmp_path / "recovery.tsv"
    write_recovery_tsv(path, report)
    lines = path.read_text().splitlines()
    assert lines[0] == "metric\tvalue"
    table = dict(line.split("\t") for line in lines[1:])
    assert float(table["rmse_mu"]) == report.rmse_mu
    assert float(table["rmse_beta"]) == report.rmse_beta
    assert float(table["rmse_alpha"]) == report.rmse_alpha
    assert float(table["loglik"]) == report.loglik
    assert table["config.num_entities"] == "50"
    assert table["config.dim"] == "20"


def test_benchmark_tsv(tmp_path):
    results = [
        BenchmarkResult("dense", 3, 0.5, 0.01, [0.5, 0.49, 0.51], 1000, 1),
        BenchmarkResult("lazy", 3, 0.05, 0.002, [0.05, 0.048, 0.052], 120, 1),
    ]
    path = tmp_path / "bench.tsv"
    write_benchmark_tsv(path, results)
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    assert lines[0].split("\t") == [
        "engine", "repetitions", "median_seconds", "spread_seconds",
        "entity_touches", "threads",
    ]
    assert lines[1].split("\t")[0] == "dense"
    assert float(lines[2].split("\t")[2]) == 0.05


def test_series_tsv(tmp_path):
    path = tmp_path / "series.tsv"
    write_series_tsv(path, "epoch", "loglik", [(1, -10.5), (2, -9.25)])
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch\tloglik"
    assert lines[1] == "1\t-10.5"
    assert lines[2] == "2\t-9.25"
