import importlib
import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from sparsehawkes import (
    Dataset,
    ModelParams,
    Sequence,
    build_caches,
    lazy_log_likelihood,
    lazy_sequence_gradients,
    softplus,
    synthetic_dataset,
    thinning_sample,
    update_u_hat,
)
from sparsehawkes.data_io import read_checkpoint
from sparsehawkes.lazy import accumulate_lazy_gradient
from sparsehawkes.model import NumericalDivergenceError, softplus_inv
from sparsehawkes.train import (
    AdamState,
    SequenceGradient,
    TrainConfig,
    TrainingDivergedError,
    adam_step,
    init_params,
    train,
    train_parallel,
)

from oracles import random_params
import oracles

# the package re-exports the function ``train``, which shadows the module
train_module = importlib.import_module("sparsehawkes.train")


def small_params(n=5, d=2, seed=0):
    rng = np.random.default_rng(seed)
    return random_params(rng, n, d)


def make_grad(entities, n, d, fill=0.0, beta=0.0):
    a = len(entities)
    return SequenceGradient(
        entities=np.asarray(entities, dtype=np.int64),
        d_theta_mu=np.full(a, fill),
        d_theta_self=np.full(a, fill),
        d_theta_u=np.full((a, d), fill),
        d_theta_v=np.full((a, d), fill),
        d_theta_beta=beta,
    )


def test_config_validation():
    TrainConfig()
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=-0.1)
    with pytest.raises(ValueError):
        TrainConfig(adam_beta1=1.0)
    with pytest.raises(ValueError):
        TrainConfig(adam_eps=0.0)
    with pytest.raises(ValueError):
        TrainConfig(threads=0)
    with pytest.raises(ValueError):
        TrainConfig(log_every=0)


def test_adam_zero_gradient_is_a_noop():
    params = small_params()
    before = params.copy()
    state = AdamState.zeros(5, 2)
    adam_step(state, make_grad([1, 3], 5, 2, fill=0.0), TrainConfig(), params)
    np.testing.assert_array_equal(params.theta_mu, before.theta_mu)
    np.testing.assert_array_equal(params.theta_self, before.theta_self)
    np.testing.assert_array_equal(params.theta_u, before.theta_u)
    np.testing.assert_array_equal(params.theta_v, before.theta_v)
    assert params.theta_beta == before.theta_beta


def test_adam_constant_gradient_approaches_bounded_step():
    # with a constant gradient the Adam step magnitude converges to the
    # learning rate, in the ascent direction of the gradient
    params = small_params(n=3, d=2, seed=1)
    config = TrainConfig(learning_rate=0.01)
    state = AdamState.zeros(3, 2)
    g = make_grad([0, 1, 2], 3, 2, fill=0.7, beta=-1.3)
    for _ in range(1000):
        adam_step(state, g, config, params)
    mu_before = params.theta_mu.copy()
    beta_before = params.theta_beta
    adam_step(state, g, config, params)
    mu_move = params.theta_mu - mu_before
    beta_move = params.theta_beta - beta_before
    np.testing.assert_allclose(mu_move, 0.01, rtol=0.01)
    np.testing.assert_allclose(beta_move, -0.01, rtol=0.01)


def test_adam_untouched_rows_completely_frozen():
    params = small_params(n=6, d=3, seed=2)
    before = params.copy()
    state = AdamState.zeros(6, 3)
    rest = [0, 2, 4, 5]
    adam_step(state, make_grad([1, 3], 6, 3, fill=0.5, beta=0.2), TrainConfig(), params)
    np.testing.assert_array_equal(params.theta_mu[rest], before.theta_mu[rest])
    np.testing.assert_array_equal(params.theta_self[rest], before.theta_self[rest])
    np.testing.assert_array_equal(params.theta_u[rest], before.theta_u[rest])
    np.testing.assert_array_equal(params.theta_v[rest], before.theta_v[rest])
    assert np.all(state.m[rest] == 0) and np.all(state.v[rest] == 0)
    assert np.all(state.t[rest] == 0)
    # touched rows did move and their counters advanced
    assert np.all(params.theta_mu[[1, 3]] != before.theta_mu[[1, 3]])
    assert np.all(state.t[[1, 3]] == 1)
    assert state.t_beta == 1


def poisson_dataset(rate, horizon, n_seqs, seed):
    rng = np.random.default_rng(seed)
    seqs = []
    for _ in range(n_seqs):
        t = 0.0
        times = []
        while True:
            t += rng.exponential(1.0 / rate)
            if t > horizon:
                break
            times.append(t)
        seqs.append(Sequence.from_arrays(times, [0] * len(times), horizon))
    return Dataset(1, seqs)


def test_single_entity_poisson_recovers_empirical_rate():
    data = poisson_dataset(rate=0.4, horizon=50.0, n_seqs=20, seed=3)
    empirical = data.total_events / data.total_horizon
    config = TrainConfig(epochs=50, dim=2, seed=0, log_every=100)
    params, report = train(data, config)
    fitted = float(params.mu()[0])
    assert abs(fitted - empirical) / empirical <= 0.10
    assert all(np.isfinite(report.epoch_loglik))


def test_train_is_bitwise_deterministic():
    data, _ = synthetic_dataset(
        nodes=12, sequences=30, beta=1.0, mu_rate=0.05, horizon=40.0, seed=4
    )
    config = TrainConfig(epochs=5, dim=3, seed=9, shuffle=True, log_every=100)
    p1, r1 = train(data, config)
    p2, r2 = train(data, config)
    np.testing.assert_array_equal(p1.theta_mu, p2.theta_mu)
    np.testing.assert_array_equal(p1.theta_self, p2.theta_self)
    np.testing.assert_array_equal(p1.theta_u, p2.theta_u)
    np.testing.assert_array_equal(p1.theta_v, p2.theta_v)
    assert p1.theta_beta == p2.theta_beta
    assert r1.epoch_loglik == r2.epoch_loglik


def test_zero_learning_rate_freezes_params_and_lagged_totals_are_exact():
    data, _ = synthetic_dataset(
        nodes=10, sequences=15, beta=1.0, mu_rate=0.05, horizon=30.0, seed=5
    )
    init = init_params(data, TrainConfig(dim=3), np.random.default_rng(0))
    config = TrainConfig(epochs=2, learning_rate=0.0, dim=3, log_every=100)
    params, report = train(data, config, init=init)
    np.testing.assert_array_equal(params.theta_u, init.theta_u)
    assert params.theta_beta == init.theta_beta
    rebuilt = build_caches(params, data)
    # the trainer refreshes z one sequence at a time while the rebuild sums
    # over the whole event pool at once, so only summation-order noise may
    # separate them when the parameters never move
    np.testing.assert_allclose(report.final_caches.z_hat, rebuilt.z_hat, rtol=1e-12)
    np.testing.assert_array_equal(report.final_caches.u_hat, rebuilt.u_hat)


def test_lagged_totals_stay_close_at_small_learning_rate():
    data, _ = synthetic_dataset(
        nodes=10, sequences=25, beta=1.0, mu_rate=0.08, horizon=30.0, seed=6
    )
    config = TrainConfig(epochs=3, learning_rate=1e-4, dim=3, log_every=100)
    params, report = train(data, config)
    rebuilt = build_caches(params, data)
    gap = np.linalg.norm(report.final_caches.z_hat - rebuilt.z_hat)
    scale = max(np.linalg.norm(rebuilt.z_hat), 1e-12)
    assert gap / scale < 0.01
    # incremental receiving totals track the rebuild tightly in sequential mode
    assert report.u_hat_drift[-1] <= 1e-6


def test_one_step_touches_only_active_entities():
    # Poison every inactive row with NaN after building the caches: the step
    # must produce the same updates on active rows as the clean run, and the
    # poisoned rows must still be NaN afterwards (nothing read, nothing
    # written).
    n, d = 7, 3
    rng = np.random.default_rng(7)
    params_clean = random_params(rng, n, d)
    seq = Sequence.from_arrays([0.5, 1.2, 3.0, 4.4], [1, 4, 1, 4], 6.0)
    other = Sequence.from_arrays([0.7], [2], 5.0)
    data = Dataset(n, [seq, other])
    active = [1, 4]
    inactive = [0, 2, 3, 5, 6]

    def one_step(params):
        caches = build_caches(params, data)
        config = TrainConfig(learning_rate=0.05, dim=d)
        state = AdamState.zeros(n, d)
        grads = lazy_sequence_gradients(params, seq, caches, data, check_caches=False)
        old = params.theta_u[grads.entities].copy()
        adam_step(state, grads, config, params)
        for k, x in enumerate(grads.entities):
            update_u_hat(caches, int(x), old[k], params.theta_u[x])
        return params, caches

    clean, _ = one_step(params_clean.copy())

    poisoned = params_clean.copy()
    caches = build_caches(poisoned, data)
    for block in (poisoned.theta_mu, poisoned.theta_self, poisoned.theta_u, poisoned.theta_v):
        block[inactive] = np.nan
    config = TrainConfig(learning_rate=0.05, dim=d)
    state = AdamState.zeros(n, d)
    grads = lazy_sequence_gradients(poisoned, seq, caches, data, check_caches=False)
    old = poisoned.theta_u[grads.entities].copy()
    adam_step(state, grads, config, poisoned)
    for k, x in enumerate(grads.entities):
        update_u_hat(caches, int(x), old[k], poisoned.theta_u[x])

    np.testing.assert_array_equal(poisoned.theta_mu[active], clean.theta_mu[active])
    np.testing.assert_array_equal(poisoned.theta_self[active], clean.theta_self[active])
    np.testing.assert_array_equal(poisoned.theta_u[active], clean.theta_u[active])
    np.testing.assert_array_equal(poisoned.theta_v[active], clean.theta_v[active])
    assert poisoned.theta_beta == clean.theta_beta
    for block in (poisoned.theta_mu, poisoned.theta_self, poisoned.theta_u, poisoned.theta_v):
        assert np.all(np.isnan(block[inactive]))


def test_training_never_writes_inactive_entities():
    base, _ = synthetic_dataset(
        nodes=15, sequences=20, beta=1.0, mu_rate=0.03, horizon=25.0, seed=8
    )
    data = Dataset(25, base.sequences)
    silent = data.never_active()
    assert len(silent) >= 10
    init = init_params(data, TrainConfig(dim=2), np.random.default_rng(1))
    assert init.num_entities == 25
    params, _ = train(data, TrainConfig(epochs=4, dim=2, log_every=100), init=init)
    np.testing.assert_array_equal(params.theta_mu[silent], init.theta_mu[silent])
    np.testing.assert_array_equal(params.theta_self[silent], init.theta_self[silent])
    np.testing.assert_array_equal(params.theta_u[silent], init.theta_u[silent])
    np.testing.assert_array_equal(params.theta_v[silent], init.theta_v[silent])


def test_loglik_trend_is_monotone_with_slack():
    data, _ = synthetic_dataset(
        nodes=20, sequences=120, beta=1.0, mu_rate=0.05, horizon=40.0, seed=10
    )
    _, report = train(data, TrainConfig(epochs=25, dim=4, log_every=100))
    lls = report.epoch_loglik
    for prev, cur in zip(lls, lls[1:]):
        assert cur >= prev - 0.005 * abs(prev)
    assert lls[-1] > lls[0]


def test_divergence_raises_with_last_good_snapshot():
    seqs = [
        Sequence.from_arrays([0.5, 1.0, 1.5], [0, 1, 0], 4.0),
        Sequence.from_arrays([0.4, 2.2], [1, 0], 4.0),
    ]
    data = Dataset(2, seqs)
    # a decay parameter this deep underflows the activation to exactly zero,
    # so the first gradient blows up and training must abort cleanly
    init = ModelParams(
        theta_mu=np.array([-1.0, -1.0]),
        theta_beta=-800.0,
        theta_self=np.array([-1.0, -1.0]),
        theta_u=np.full((2, 2), -1.0),
        theta_v=np.full((2, 2), -1.0),
        dim=2,
    )
    with pytest.raises(TrainingDivergedError) as info:
        train(data, TrainConfig(epochs=3, dim=2, log_every=100), init=init)
    err = info.value
    assert err.epoch == 1
    assert np.all(np.isfinite(err.last_params.theta_u))
    assert err.report.epoch_loglik == []


def test_divergence_names_the_sequence():
    # entity 2's background rate underflows to exactly zero and it opens the
    # third sequence, so that sequence's first intensity is zero
    seqs = [
        Sequence.from_arrays([0.5, 1.0, 1.5], [0, 1, 0], 4.0),
        Sequence.from_arrays([0.4, 2.2], [1, 0], 4.0),
        Sequence.from_arrays([0.3, 0.9], [2, 0], 4.0),
    ]
    data = Dataset(3, seqs)
    init = ModelParams(
        theta_mu=np.array([-1.0, -1.0, -800.0]),
        theta_beta=0.0,
        theta_self=np.full(3, -1.0),
        theta_u=np.full((3, 2), -1.0),
        theta_v=np.full((3, 2), -1.0),
        dim=2,
    )
    with pytest.raises(NumericalDivergenceError, match="at sequence 2 event index 0 "):
        accumulate_lazy_gradient(init, data, build_caches(init, data))
    with pytest.raises(TrainingDivergedError, match="^epoch 1: .* at sequence 2 event index 0 "):
        train(data, TrainConfig(epochs=1, dim=2, log_every=100), init=init)


def test_progress_lines_follow_log_every(capsys):
    data = poisson_dataset(rate=0.5, horizon=20.0, n_seqs=4, seed=11)
    train(data, TrainConfig(epochs=5, dim=1, log_every=2))
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l.startswith("epoch=")]
    tags = [l.split()[0] for l in lines]
    assert tags == ["epoch=2", "epoch=4", "epoch=5"]
    assert all("loglik=" in l and "secs=" in l for l in lines)


def test_checkpoints_written_every_log_every(tmp_path):
    data = poisson_dataset(rate=0.5, horizon=20.0, n_seqs=4, seed=12)
    ckpt_dir = tmp_path / "snaps"
    config = TrainConfig(epochs=4, dim=1, log_every=2, checkpoint_dir=str(ckpt_dir))
    params, report = train(data, config)
    assert [p.split("/")[-1] for p in report.snapshot_paths] == [
        "epoch0002.ckpt",
        "epoch0004.ckpt",
    ]
    loaded, meta = read_checkpoint(report.snapshot_paths[-1])
    np.testing.assert_array_equal(loaded.theta_mu, params.theta_mu)
    assert meta["epoch"] == 4
    assert meta["seed"] == config.seed


def test_init_params_warm_starts_at_empirical_rates():
    data, _ = synthetic_dataset(
        nodes=10, sequences=40, beta=1.0, mu_rate=0.1, horizon=30.0, seed=13
    )
    params = init_params(data, TrainConfig(dim=3), np.random.default_rng(2))
    counts = np.zeros(10)
    for seq in data.sequences:
        if len(seq):
            counts += np.bincount(seq.entities, minlength=10)
    expected = np.maximum(counts, 0.5) / data.total_horizon
    np.testing.assert_allclose(params.mu(), expected, rtol=1e-12)
    assert abs(params.beta() - 1.0) < 1e-12


def test_parallel_needs_two_workers():
    data = poisson_dataset(rate=0.5, horizon=10.0, n_seqs=2, seed=14)
    with pytest.raises(ValueError):
        train_parallel(data, TrainConfig(threads=1, dim=1))


def test_parallel_quality_matches_sequential():
    data, _ = synthetic_dataset(
        nodes=20, sequences=150, beta=1.0, mu_rate=0.05, horizon=40.0, seed=15
    )
    config_seq = TrainConfig(epochs=8, dim=3, seed=3, log_every=100)
    _, seq_report = train(data, config_seq)
    config_par = TrainConfig(epochs=8, dim=3, seed=3, threads=2, log_every=100)
    par_params, par_report = train_parallel(data, config_par)
    seq_ll = seq_report.epoch_loglik[-1]
    par_ll = par_report.epoch_loglik[-1]
    assert abs(par_ll - seq_ll) / abs(seq_ll) <= 0.01
    # every epoch records how far the lock-free receiving total drifted; on a
    # single-core host the scheduler freezes workers mid-update for
    # milliseconds, so collisions land far more often than under true
    # concurrency (observed up to ~6e-2 here); the bound is a sanity ceiling
    # that still catches a broken incremental update, which drifts by O(1)
    assert len(par_report.u_hat_drift) == 8
    assert all(np.isfinite(d) and d <= 0.2 for d in par_report.u_hat_drift)
    # after the final epoch the running total was rebuilt exactly
    np.testing.assert_array_equal(
        par_report.final_caches.u_hat, softplus(par_params.theta_u).sum(axis=0)
    )
    caches = build_caches(par_params, data)
    assert np.isfinite(lazy_log_likelihood(par_params, data, caches))


def test_train_reproduces_reference_trajectory():
    # The original per-sequence step (stepwise scan, per-sequence gradient
    # formulas, block-by-block Adam, row-by-row receiving total) against the
    # step on the cached layout; an empty sequence and silent entities ride
    # along.
    base, _ = synthetic_dataset(
        nodes=8, sequences=12, beta=1.0, mu_rate=0.08, horizon=25.0, seed=17
    )
    data = Dataset(11, base.sequences + [Sequence([], horizon=3.0)])
    config = TrainConfig(epochs=3, dim=3, learning_rate=0.05, log_every=100)
    init = init_params(data, config, np.random.default_rng(3))
    params, report = train(data, config, init=init)
    want, want_ll = oracles.reference_train(data, config, init)
    assert oracles.rel_close(oracles.pack(params), oracles.pack(want), rtol=1e-10)
    assert oracles.rel_close(report.epoch_loglik, want_ll, rtol=1e-12)
    assert report.decay_steps == 3 * sum(1 for s in data.sequences if len(s))


def test_init_params_counts_events_across_empty_sequences():
    seqs = [
        Sequence([], horizon=3.0),
        Sequence.from_arrays([0.5, 1.0, 2.0], [2, 0, 2], 3.0),
        Sequence([], horizon=1.0),
        Sequence.from_arrays([0.1], [4], 2.0),
    ]
    data = Dataset(6, seqs)
    params = init_params(data, TrainConfig(dim=2), np.random.default_rng(4))
    counts = np.zeros(6)
    for seq in seqs:
        if len(seq):
            counts += np.bincount(seq.entities, minlength=6)
    expected = np.maximum(counts, 0.5) / data.total_horizon
    np.testing.assert_array_equal(params.theta_mu, softplus_inv(expected))


def test_parallel_applies_every_decay_step():
    # Two workers share the decay slot; every non-empty sequence of every
    # epoch must land exactly one Adam step on it.
    base, _ = synthetic_dataset(
        nodes=20, sequences=150, beta=1.0, mu_rate=0.05, horizon=40.0, seed=18
    )
    data = Dataset(20, base.sequences + [Sequence([], horizon=5.0)])
    nonempty = sum(1 for s in data.sequences if len(s))
    _, report = train_parallel(data, TrainConfig(epochs=3, dim=3, threads=2, log_every=100))
    assert report.decay_steps == 3 * nonempty


def test_parallel_dead_worker_raises_instead_of_hanging(monkeypatch):
    real_worker = train_module._parallel_worker

    def first_worker_dies(worker_id, *args):
        if worker_id == 0:
            os._exit(1)
        real_worker(worker_id, *args)

    def hung(signum, frame):
        raise TimeoutError("train_parallel still waiting on a dead worker")

    monkeypatch.setattr(train_module, "_parallel_worker", first_worker_dies)
    data = poisson_dataset(rate=0.5, horizon=10.0, n_seqs=6, seed=19)
    old = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    start = time.perf_counter()
    try:
        with pytest.raises(RuntimeError, match=r"epoch 1 worker 0 exited with code 1"):
            train_parallel(data, TrainConfig(epochs=2, dim=1, threads=2, log_every=100))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    assert time.perf_counter() - start < 30.0
    # the surviving worker was reaped, not left running
    assert multiprocessing.active_children() == []
