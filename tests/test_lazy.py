import numpy as np
import pytest

from sparsehawkes.model import Dataset, ModelParams, Sequence, softplus
from sparsehawkes.dense import dense_gradient, dense_log_likelihood
from sparsehawkes.lazy import (
    StaleCacheError,
    accumulate_lazy_gradient,
    build_caches,
    lazy_log_likelihood,
    lazy_sequence_gradients,
    update_u_hat,
)

import oracles


def pad_with_silent_entities(params: ModelParams, data: Dataset, extra: int):
    """Grow the entity universe by entities that appear in no sequence."""
    rng = np.random.default_rng(0)
    n = params.num_entities
    d = params.dim
    grown = ModelParams(
        np.concatenate([params.theta_mu, rng.normal(-2.5, 0.5, extra)]),
        params.theta_beta,
        np.concatenate([params.theta_self, rng.normal(-2.0, 0.5, extra)]),
        np.vstack([params.theta_u, rng.normal(-1.5, 0.5, (extra, d))]),
        np.vstack([params.theta_v, rng.normal(-1.5, 0.5, (extra, d))]),
        d,
    )
    return grown, Dataset(n + extra, data.sequences)


def test_cache_identities():
    rng = np.random.default_rng(41)
    params, data = oracles.random_instance(rng, max_entities=10, max_seqs=8)
    caches = build_caches(params, data)
    horizons = np.array([s.horizon for s in data.sequences])
    for x in range(data.num_entities):
        here = data.active_index[x]
        absent = sum(h for k, h in enumerate(horizons) if k not in here)
        if here:
            # The per-entity share times the activity count recovers the
            # total horizon mass of the sequences the entity missed.
            assert caches.d_const[x] * len(here) == pytest.approx(absent, abs=1e-10)
        else:
            assert caches.d_const[x] == 0.0
            assert x in caches.never_active
    np.testing.assert_allclose(caches.u_hat, params.factors_u().sum(axis=0), rtol=1e-12)
    assert caches.total_horizon == pytest.approx(float(horizons.sum()))


def test_z_hat_per_slot_matches_per_event_sum():
    # build_caches activates each (sequence, entity) slot once; the plain
    # form activates every event's emitting row
    rng = np.random.default_rng(42)
    for _ in range(20):
        params, data = oracles.random_instance(rng, max_entities=10, max_seqs=8)
        want = np.zeros(params.dim)
        for seq in data.sequences:
            w = -np.expm1(-params.beta() * (seq.horizon - seq.times))
            want += w @ softplus(params.theta_v[seq.entities])
        np.testing.assert_allclose(build_caches(params, data).z_hat, want, rtol=1e-12, atol=0)


def test_u_hat_share_identity():
    # Splitting u_hat evenly over the active entities and summing recovers it.
    rng = np.random.default_rng(43)
    params, data = oracles.random_instance(rng)
    caches = build_caches(params, data)
    for seq in data.sequences:
        a = len(seq.active_entities)
        if a:
            np.testing.assert_allclose(
                np.repeat(caches.u_hat[None, :] / a, a, axis=0).sum(axis=0),
                caches.u_hat,
                rtol=1e-10,
            )


def test_likelihood_equals_dense_random_instances():
    rng = np.random.default_rng(47)
    for _ in range(40):
        params, data = oracles.random_instance(rng, max_entities=12, max_seqs=6)
        caches = build_caches(params, data)
        lazy_val = lazy_log_likelihood(params, data, caches)
        dense_val = dense_log_likelihood(params, data)
        assert lazy_val == pytest.approx(dense_val, rel=1e-8)


def test_likelihood_all_entities_active_degenerate_case():
    rng = np.random.default_rng(53)
    n, d = 4, 2
    params = oracles.random_params(rng, n, d)
    seqs = []
    for _ in range(3):
        times = np.sort(rng.uniform(0.0, 10.0, size=8))
        entities = np.concatenate([np.arange(n), rng.integers(0, n, 4)])
        rng.shuffle(entities)
        seqs.append(Sequence.from_arrays(times, entities, 10.0))
    data = Dataset(n, seqs)
    assert len(build_caches(params, data).never_active) == 0
    caches = build_caches(params, data)
    assert lazy_log_likelihood(params, data, caches) == pytest.approx(
        dense_log_likelihood(params, data), rel=1e-12
    )


def test_likelihood_with_never_active_entities():
    rng = np.random.default_rng(59)
    params, data = oracles.random_instance(rng, max_entities=6)
    grown, grown_data = pad_with_silent_entities(params, data, extra=30)
    caches = build_caches(grown, grown_data)
    assert len(caches.never_active) >= 30
    assert lazy_log_likelihood(grown, grown_data, caches) == pytest.approx(
        dense_log_likelihood(grown, grown_data), rel=1e-8
    )


def test_empty_sequences_carry_only_background_mass():
    rng = np.random.default_rng(61)
    params = oracles.random_params(rng, 3, 2)
    data = Dataset(3, [Sequence([], horizon=4.0), Sequence([], horizon=6.0)])
    caches = build_caches(params, data)
    want = -10.0 * float(softplus(params.theta_mu).sum())
    assert lazy_log_likelihood(params, data, caches) == pytest.approx(want, rel=1e-12)
    assert dense_log_likelihood(params, data) == pytest.approx(want, rel=1e-12)


def test_stale_cache_detection():
    rng = np.random.default_rng(67)
    params, data = oracles.random_instance(rng)
    caches = build_caches(params, data)
    moved = params.copy()
    moved.theta_mu = moved.theta_mu + 0.1
    with pytest.raises(StaleCacheError):
        lazy_log_likelihood(moved, data, caches)
    # Deliberate drift is allowed when asked for.
    lazy_log_likelihood(moved, data, caches, check_caches=False)


def test_sequence_gradient_touches_only_active_entities():
    rng = np.random.default_rng(71)
    params, data = oracles.random_instance(rng, max_entities=10)
    caches = build_caches(params, data)
    for seq in data.sequences:
        g = lazy_sequence_gradients(params, seq, caches, data)
        np.testing.assert_array_equal(g.entities, seq.active_entities)


def test_sequence_gradient_touch_count_ignores_universe_size():
    rng = np.random.default_rng(73)
    params, data = oracles.random_instance(rng, max_entities=6)
    caches = build_caches(params, data)
    touched = [len(lazy_sequence_gradients(params, s, caches, data).entities)
               for s in data.sequences]
    grown, grown_data = pad_with_silent_entities(params, data, extra=100)
    grown_caches = build_caches(grown, grown_data)
    touched_grown = [len(lazy_sequence_gradients(grown, s, grown_caches, grown_data).entities)
                     for s in grown_data.sequences]
    assert touched == touched_grown


def test_aggregated_gradient_equals_dense():
    rng = np.random.default_rng(79)
    for _ in range(15):
        params, data = oracles.random_instance(rng, max_entities=10, max_seqs=6)
        caches = build_caches(params, data)
        lazy_flat = accumulate_lazy_gradient(params, data, caches).as_flat()
        dense_flat = dense_gradient(params, data).as_flat()
        assert oracles.rel_close(lazy_flat, dense_flat, rtol=1e-6, atol=1e-10), (
            np.max(np.abs(lazy_flat - dense_flat)))


def test_aggregated_gradient_with_silent_entities_equals_dense():
    rng = np.random.default_rng(83)
    params, data = oracles.random_instance(rng, max_entities=5)
    grown, grown_data = pad_with_silent_entities(params, data, extra=20)
    caches = build_caches(grown, grown_data)
    lazy_flat = accumulate_lazy_gradient(grown, grown_data, caches).as_flat()
    dense_flat = dense_gradient(grown, grown_data).as_flat()
    assert oracles.rel_close(lazy_flat, dense_flat, rtol=1e-6, atol=1e-10)


def test_empty_sequence_contributes_nothing():
    rng = np.random.default_rng(89)
    params = oracles.random_params(rng, 4, 2)
    seq = Sequence([], horizon=5.0)
    data = Dataset(4, [seq])
    caches = build_caches(params, data)
    g = lazy_sequence_gradients(params, seq, caches, data)
    assert len(g.entities) == 0
    assert g.d_theta_beta == 0.0


def test_update_u_hat_tracks_rebuild():
    rng = np.random.default_rng(97)
    params, data = oracles.random_instance(rng, max_entities=8)
    caches = build_caches(params, data)
    n, d = params.num_entities, params.dim
    for _ in range(10_000):
        x = int(rng.integers(0, n))
        old = params.theta_u[x].copy()
        params.theta_u[x] += rng.normal(0.0, 0.01, size=d)
        update_u_hat(caches, x, old, params.theta_u[x])
    rebuilt = params.factors_u().sum(axis=0)
    np.testing.assert_allclose(caches.u_hat, rebuilt, rtol=1e-6)
