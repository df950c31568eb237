import math

import numpy as np
import pytest
from scipy import stats

from sparsehawkes import influence_matrix
from sparsehawkes.simulate import (
    GroundTruth,
    InfluenceMatrix,
    UnstableConfigurationError,
    low_rank_approximation,
    rescale_for_stability,
    sample_scale_free_graph,
    spectral_radius_estimate,
    synthetic_dataset,
    thinning_sample,
    time_rescaling_residuals,
)

from oracles import random_params, random_sequence


def test_two_node_graph_is_the_fixed_seed_cycle():
    for seed in (0, 1, 99):
        g = sample_scale_free_graph(2, seed=seed)
        expected = np.array([[0, 1], [1, 0]], dtype=np.uint8)
        assert np.array_equal(g.values, expected)


def test_graph_same_seed_reproduces_and_seeds_differ():
    a = sample_scale_free_graph(300, seed=5)
    b = sample_scale_free_graph(300, seed=5)
    c = sample_scale_free_graph(300, seed=6)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_graph_shape_and_connectivity():
    n = 400
    g = sample_scale_free_graph(n, seed=3)
    assert g.values.shape == (n, n)
    assert set(np.unique(g.values)) <= {0, 1}
    # every node enters the graph with at least one incident edge
    degree = g.values.sum(axis=0) + g.values.sum(axis=1)
    assert np.all(degree > 0)


def test_graph_rejects_bad_inputs():
    with pytest.raises(ValueError):
        sample_scale_free_graph(1, seed=0)


def test_graph_in_degree_tail_exponent():
    # Heavy-tail check at n=10^4 with the default growth probabilities.  The
    # in-degree distribution follows a power law; a least-squares fit of the
    # log-binned degree density gives its exponent.  (A fit of raw per-degree
    # frequencies is biased badly shallow by the singleton tail, and the
    # complementary CDF shifts the exponent by one, so the binned density is
    # the quantity with a stable, interpretable slope.)
    g = sample_scale_free_graph(10_000, seed=7)
    indeg = g.values.sum(axis=0).astype(np.int64)
    positive = indeg[indeg > 0]
    edges = np.unique(np.round(np.geomspace(1, positive.max() + 1, 20)).astype(np.int64))
    hist, _ = np.histogram(positive, bins=edges)
    widths = np.diff(edges)
    centers = np.sqrt(edges[:-1].astype(float) * edges[1:])
    density = hist / widths / hist.sum()
    keep = density > 0
    slope = np.polyfit(np.log(centers[keep]), np.log(density[keep]), 1)[0]
    assert -3.5 <= slope <= -1.5


def test_spectral_radius_matches_dense_eigensolver():
    rng = np.random.default_rng(0)
    for _ in range(8):
        m = rng.random((40, 40)) * (rng.random((40, 40)) < 0.2)
        exact = float(max(abs(np.linalg.eigvals(m))))
        est = spectral_radius_estimate(m)
        assert abs(est - exact) <= 1e-8 * max(exact, 1.0)
    assert spectral_radius_estimate(np.zeros((5, 5))) == 0.0
    # nilpotent: strictly upper triangular has spectral radius 0
    nil = np.triu(np.ones((6, 6)), k=1)
    assert spectral_radius_estimate(nil) <= 1e-9


def test_low_rank_full_rank_is_identity_map():
    rng = np.random.default_rng(1)
    m = (rng.random((30, 30)) < 0.3).astype(float)
    out = low_rank_approximation(InfluenceMatrix.from_values(m), rank=30)
    rel = np.linalg.norm(out.values - m) / np.linalg.norm(m)
    assert rel <= 1e-8


def test_low_rank_recovers_rank_one_exactly():
    rng = np.random.default_rng(2)
    a = rng.random(25)
    b = rng.random(25)
    m = np.outer(a, b)
    out = low_rank_approximation(InfluenceMatrix.from_values(m), rank=1)
    rel = np.linalg.norm(out.values - m) / np.linalg.norm(m)
    assert rel <= 1e-8


def test_low_rank_error_shrinks_with_rank():
    rng = np.random.default_rng(3)
    m = (rng.random((50, 50)) < 0.15).astype(float)
    err9 = np.linalg.norm(low_rank_approximation(m, 9).values - m)
    err10 = np.linalg.norm(low_rank_approximation(m, 10).values - m)
    assert err10 <= err9
    assert np.all(low_rank_approximation(m, 10).values >= 0)


def test_low_rank_rejects_bad_rank():
    m = InfluenceMatrix.from_values(np.ones((4, 4)))
    with pytest.raises(ValueError):
        low_rank_approximation(m, 0)
    with pytest.raises(ValueError):
        low_rank_approximation(m, 5)


def test_rescale_hits_the_stability_target():
    g = sample_scale_free_graph(200, seed=4)
    dense = InfluenceMatrix.from_values(g.values.astype(float))
    beta = 1.3
    out = rescale_for_stability(dense, beta, target=0.8)
    measured = spectral_radius_estimate(out.values)
    assert abs(measured / beta - 0.8) <= 1e-6
    # already-stable input passes through untouched
    small = InfluenceMatrix.from_values(np.eye(3) * 0.1)
    assert rescale_for_stability(small, 1.0) is small
    with pytest.raises(ValueError):
        rescale_for_stability(small, 0.0)


def test_thinning_zero_background_gives_empty_sequence():
    alpha = InfluenceMatrix.from_values(np.full((3, 3), 0.2))
    seq = thinning_sample(np.zeros(3), beta=1.0, alpha=alpha, horizon=50.0, seed=0)
    assert len(seq) == 0
    assert seq.horizon == 50.0


def test_thinning_unstable_configuration_aborts():
    alpha = np.array([[1.2]])
    with pytest.raises(UnstableConfigurationError):
        thinning_sample(np.array([0.5]), beta=1.0, alpha=alpha, horizon=10.0, seed=0)


def test_thinning_deterministic_under_seed():
    mu = np.array([0.3, 0.2, 0.4])
    alpha = np.array([[0.1, 0.3, 0.0], [0.2, 0.0, 0.1], [0.0, 0.2, 0.2]])
    a = thinning_sample(mu, 1.1, alpha, 40.0, seed=9)
    b = thinning_sample(mu, 1.1, alpha, 40.0, seed=9)
    c = thinning_sample(mu, 1.1, alpha, 40.0, seed=10)
    assert a == b
    assert a != c


def test_thinning_poisson_special_case_count():
    # With no excitation the sampler is a homogeneous Poisson process, so the
    # mean count over many draws must sit within 3 standard errors of
    # horizon * sum(mu).
    mu = np.array([0.04, 0.02])
    horizon = 50.0
    expected = horizon * mu.sum()
    draws = 2000
    counts = [
        len(thinning_sample(mu, 1.0, np.zeros((2, 2)), horizon, seed=s))
        for s in range(draws)
    ]
    se = math.sqrt(expected / draws)
    assert abs(np.mean(counts) - expected) <= 3 * se


def test_thinning_univariate_branching_expectation():
    # mean count of a self-exciting univariate process is mu*T/(1 - alpha/beta)
    mu = np.array([0.5])
    alpha = np.array([[0.8]])
    target = 0.5 * 1000.0 / (1.0 - 0.8)
    counts = [
        len(thinning_sample(mu, 1.0, alpha, 1000.0, seed=s)) for s in range(40)
    ]
    assert abs(np.mean(counts) - target) / target <= 0.05


def test_synthetic_dataset_shapes_and_determinism():
    data1, truth1 = synthetic_dataset(
        nodes=20, sequences=6, beta=1.0, mu_rate=0.05, horizon=60.0, seed=11
    )
    data2, truth2 = synthetic_dataset(
        nodes=20, sequences=6, beta=1.0, mu_rate=0.05, horizon=60.0, seed=11
    )
    assert data1 == data2
    assert np.array_equal(truth1.alpha, truth2.alpha)
    assert data1.num_entities == 20
    assert len(data1.sequences) == 6
    assert truth1.mu.shape == (20,)
    rho = spectral_radius_estimate(truth1.alpha)
    assert rho / truth1.beta <= 0.8 + 1e-9


def test_synthetic_dataset_low_rank_option():
    # The non-negativity clamp after truncation can nudge the rank up, so the
    # check is proximity to the best rank-5 matrix rather than exact rank.
    _, truth = synthetic_dataset(
        nodes=30, sequences=2, beta=1.0, mu_rate=0.05, horizon=30.0, seed=12, rank=5
    )
    u, s, vt = np.linalg.svd(truth.alpha)
    best = (u[:, :5] * s[:5]) @ vt[:5]
    rel = np.linalg.norm(truth.alpha - best) / np.linalg.norm(truth.alpha)
    assert rel < 0.15


def test_synthetic_dataset_is_sparse_at_reference_settings():
    # 50 entities with a tiny background rate: each sequence touches only a
    # minuscule fraction of the universe.
    data, _ = synthetic_dataset(
        nodes=50, sequences=1000, beta=1.0, mu_rate=0.0001, horizon=100.0, seed=13
    )
    fractions = [len(np.unique(s.entities)) / 50 for s in data.sequences if len(s) > 0]
    assert len(fractions) > 0
    assert np.median(fractions) < 0.25


def brute_residuals(mu, beta, alpha, seq):
    n = len(seq)
    out = np.zeros(n)
    prev = 0.0
    for i in range(n):
        t = seq.times[i]
        out[i] = float(mu.sum()) * (t - prev)
        for j in range(n):
            if seq.times[j] >= t:
                break
            if seq.times[j] >= prev:
                # event inside the increment window never happens for
                # consecutive event times, but keep the general form
                lo = seq.times[j]
            else:
                lo = prev
            a_col = float(alpha[:, seq.entities[j]].sum())
            out[i] += (
                a_col
                / beta
                * (math.exp(-beta * (lo - seq.times[j])) - math.exp(-beta * (t - seq.times[j])))
            )
        prev = t
    return out


def test_residuals_match_brute_force_ground_truth():
    mu = np.array([0.3, 0.1, 0.2])
    alpha = np.array([[0.2, 0.4, 0.1], [0.0, 0.1, 0.3], [0.3, 0.0, 0.1]])
    truth = GroundTruth(mu=mu, beta=1.4, alpha=alpha)
    seq = thinning_sample(mu, 1.4, alpha, 30.0, seed=21)
    assert len(seq) > 5
    got = time_rescaling_residuals(truth, seq)
    want = brute_residuals(mu, 1.4, alpha, seq)
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


def test_residuals_model_params_agree_with_materialized_truth():
    rng = np.random.default_rng(31)
    params = random_params(rng, n=6, d=3)
    seq = random_sequence(rng, n_entities=6, max_events=40, horizon=12.0)
    truth = GroundTruth(
        mu=params.mu(), beta=params.beta(), alpha=influence_matrix(params)
    )
    got = time_rescaling_residuals(params, seq)
    want = time_rescaling_residuals(truth, seq)
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


def test_residuals_of_rate_one_poisson_are_inter_event_times():
    mu = np.array([1.0])
    seq = thinning_sample(mu, 1.0, np.zeros((1, 1)), 200.0, seed=40)
    res = time_rescaling_residuals(GroundTruth(mu=mu, beta=1.0, alpha=np.zeros((1, 1))), seq)
    gaps = np.diff(np.concatenate(([0.0], seq.times)))
    np.testing.assert_allclose(res, gaps, rtol=0, atol=0)


def _pooled_residuals(truth, n_sequences, horizon, base_seed):
    pooled = []
    for s in range(n_sequences):
        seq = thinning_sample(
            truth.mu, truth.beta, truth.alpha, horizon, seed=base_seed + s
        )
        pooled.extend(time_rescaling_residuals(truth, seq))
    return np.array(pooled)


def test_residuals_pass_ks_under_true_model_and_reject_wrong_beta():
    mu = np.full(5, 0.1)
    rng = np.random.default_rng(50)
    alpha = rng.random((5, 5)) * 0.2
    alpha *= 0.6 / spectral_radius_estimate(alpha)
    truth = GroundTruth(mu=mu, beta=1.0, alpha=alpha)
    res = _pooled_residuals(truth, n_sequences=100, horizon=30.0, base_seed=1000)
    assert len(res) > 500
    ks_true = stats.kstest(res, "expon")
    assert ks_true.pvalue > 0.01

    wrong = GroundTruth(mu=mu, beta=2.0, alpha=alpha)
    pooled_wrong = []
    for s in range(100):
        seq = thinning_sample(mu, 1.0, alpha, 30.0, seed=1000 + s)
        pooled_wrong.extend(time_rescaling_residuals(wrong, seq))
    ks_wrong = stats.kstest(np.array(pooled_wrong), "expon")
    assert ks_wrong.pvalue < 0.01
