import importlib
import mmap
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
    synthetic_dataset,
    thinning_sample,
)
from sparsehawkes.data_io import read_checkpoint_full
from sparsehawkes import evaluate
from sparsehawkes.lazy import _range_gradient, _z_hat, accumulate_lazy_gradient, update_u_hat
from sparsehawkes.scan import batch_sequence_stats
from sparsehawkes.model import NumericalDivergenceError, softplus, softplus_inv
from sparsehawkes.train import (
    _PAIRWISE_MAX,
    AdamState,
    TrainConfig,
    TrainingDivergedError,
    _adam_rows,
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
    """Arguments ``(idx, rows, d_beta)`` of one Adam step on rows ``[u | v | mu | self]``."""
    return np.asarray(entities, dtype=np.int64), np.full((len(entities), 2 * d + 2), fill), beta


def first_sequence_grad(params, data, u_hat, z_hat):
    """Sequence 0's gradient as ``make_grad``'s triple, computed as a training step does."""
    bs = batch_sequence_stats(params, data, True, subset=(0, 1))
    rows, g_beta = _range_gradient(params, bs, u_hat, z_hat, data)
    return bs.slot_entity, rows, float(g_beta[0])


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
    state = AdamState(params)
    _adam_rows(state, *make_grad([1, 3], 5, 2, fill=0.0), TrainConfig(), params)
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
    state = AdamState(params)
    g = make_grad([0, 1, 2], 3, 2, fill=0.7, beta=-1.3)
    for _ in range(1000):
        _adam_rows(state, *g, config, params)
    mu_before = params.theta_mu.copy()
    beta_before = params.theta_beta
    _adam_rows(state, *g, config, params)
    mu_move = params.theta_mu - mu_before
    beta_move = params.theta_beta - beta_before
    np.testing.assert_allclose(mu_move, 0.01, rtol=0.01)
    np.testing.assert_allclose(beta_move, -0.01, rtol=0.01)


def test_adam_untouched_rows_completely_frozen():
    params = small_params(n=6, d=3, seed=2)
    before = params.copy()
    state = AdamState(params)
    rest = [0, 2, 4, 5]
    _adam_rows(state, *make_grad([1, 3], 6, 3, fill=0.5, beta=0.2), TrainConfig(), params)
    np.testing.assert_array_equal(params.theta_mu[rest], before.theta_mu[rest])
    np.testing.assert_array_equal(params.theta_self[rest], before.theta_self[rest])
    np.testing.assert_array_equal(params.theta_u[rest], before.theta_u[rest])
    np.testing.assert_array_equal(params.theta_v[rest], before.theta_v[rest])
    assert np.all(state.block[rest] == 0)
    # touched rows did move and their counters, the block's last column, advanced
    assert np.all(params.theta_mu[[1, 3]] != before.theta_mu[[1, 3]])
    assert np.all(state.block[[1, 3], -1] == 1)
    assert state.decay[3] == 1


def test_adam_moves_a_row_and_the_decay_by_one_formula():
    # a state row and the decay slot, fed the same gradient at steps 1..1000
    # from the same value, hold the same moments and step count to the bit
    # after every step, and move by the same step to the bit: both raise the
    # bias correction's b**t with np.power, which can round a last bit away
    # from a float's ** (the C library's pow)
    config = TrainConfig(learning_rate=0.01)
    params = ModelParams.from_block(np.zeros((1, 4)), 0.0, 1)
    state = AdamState(params)
    apart = []
    for t, g in enumerate(np.random.default_rng(5).normal(size=1000), start=1):
        params.theta[0] = 0.0
        state.decay[0] = 0.0
        _adam_rows(state, np.array([0]), np.full((1, 4), g), g, config, params)
        m, v, steps = np.split(state.block[0], [4, 8])
        assert np.all(m == state.decay[1]) and np.all(v == state.decay[2])
        assert steps[0] == state.decay[3] == t
        assert np.all(params.theta[0] == params.theta[0, 0])
        if params.theta[0, 0] != params.theta_beta:
            apart.append(t)
    assert apart == []


def test_adam_state_keeps_row_moments_in_one_shared_buffer():
    # parallel training shares the rows' [m | v | t] through one buffer: a
    # forked worker's step lands in the parent's moments and step counts
    params = small_params(n=4, d=2)
    state = AdamState(params, train_module._shared_array)
    assert sorted(vars(state)) == ["block", "decay", "lock"]
    assert state.block.shape == (4, 13)
    buffer = state.block.base.base  # the reshaped view's buffer, on its own mapping
    assert isinstance(buffer.obj, mmap.mmap) and len(buffer.obj) == state.block.nbytes
    worker = multiprocessing.get_context("fork").Process(
        target=_adam_rows, args=(state, *make_grad([2], 4, 2, fill=0.5), TrainConfig(), params))
    worker.start()
    worker.join(timeout=30)
    assert worker.exitcode == 0
    assert np.all(state.block[2, :12] != 0) and state.block[2, 12] == 1
    assert np.all(state.block[[0, 1, 3]] == 0)


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


def lagged_z_hats(monkeypatch):
    """The ``z_hat`` each epoch body of ``train`` returns, for the next epoch."""
    real, seen = train_module._epoch, []

    def epoch(*args):
        seen.append(real(*args))
        return seen[-1]

    monkeypatch.setattr(train_module, "_epoch", epoch)
    return seen


def test_zero_learning_rate_freezes_params_and_lagged_totals_are_exact(monkeypatch):
    data, _ = synthetic_dataset(
        nodes=10, sequences=15, beta=1.0, mu_rate=0.05, horizon=30.0, seed=5
    )
    init = init_params(data, TrainConfig(dim=3), np.random.default_rng(0))
    config = TrainConfig(epochs=2, learning_rate=0.0, dim=3, log_every=100)
    lagged = lagged_z_hats(monkeypatch)
    params, report = train(data, config, init=init)
    np.testing.assert_array_equal(params.theta_u, init.theta_u)
    assert params.theta_beta == init.theta_beta
    # the trainer refreshes z one sequence at a time while the fresh sum runs
    # over the whole event pool at once, so only summation-order noise may
    # separate them when the parameters never move
    np.testing.assert_allclose(lagged[-1], _z_hat(params, data), rtol=1e-12)
    assert report.u_hat_drift == [0.0, 0.0]


def test_lagged_totals_stay_close_at_small_learning_rate(monkeypatch):
    data, _ = synthetic_dataset(
        nodes=10, sequences=25, beta=1.0, mu_rate=0.08, horizon=30.0, seed=6
    )
    config = TrainConfig(epochs=3, learning_rate=1e-4, dim=3, log_every=100)
    lagged = lagged_z_hats(monkeypatch)
    params, report = train(data, config)
    fresh = _z_hat(params, data)
    gap = np.linalg.norm(lagged[-1] - fresh)
    scale = max(np.linalg.norm(fresh), 1e-12)
    assert gap / scale < 0.01
    # incremental receiving totals track the rebuild tightly in sequential mode
    assert report.u_hat_drift[-1] <= 1e-6


def test_training_copies_the_parameters_once_per_epoch_and_the_benchmark_never(monkeypatch):
    # the epoch report's last-good snapshot is the only copy: start-up keeps
    # the initial parameters, which training never writes, and the gradient
    # benchmark takes u_hat from the parameters instead of building caches
    copies = []
    real = ModelParams.copy

    def copy(self):
        copies.append(self)
        return real(self)

    monkeypatch.setattr(ModelParams, "copy", copy)
    data, _ = synthetic_dataset(
        nodes=10, sequences=15, beta=1.0, mu_rate=0.05, horizon=30.0, seed=5
    )
    evaluate.runtime_benchmark("lazy", data, repetitions=3)
    assert copies == []
    train(data, TrainConfig(epochs=3, dim=3, log_every=100))
    assert len(copies) == 3


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
        u_hat, z_hat = params.factors_u().sum(axis=0), _z_hat(params, data)
        config = TrainConfig(learning_rate=0.05, dim=d)
        state = AdamState(params)
        grads = first_sequence_grad(params, data, u_hat, z_hat)
        old = params.theta_u[grads[0]].copy()
        _adam_rows(state, *grads, config, params)
        for k, x in enumerate(grads[0]):
            update_u_hat(u_hat, old[k], params.theta_u[x])
        return params, u_hat

    clean, _ = one_step(params_clean.copy())

    poisoned = params_clean.copy()
    u_hat, z_hat = poisoned.factors_u().sum(axis=0), _z_hat(poisoned, data)
    for block in (poisoned.theta_mu, poisoned.theta_self, poisoned.theta_u, poisoned.theta_v):
        block[inactive] = np.nan
    config = TrainConfig(learning_rate=0.05, dim=d)
    state = AdamState(poisoned)
    grads = first_sequence_grad(poisoned, data, u_hat, z_hat)
    old = poisoned.theta_u[grads[0]].copy()
    _adam_rows(state, *grads, config, poisoned)
    for k, x in enumerate(grads[0]):
        update_u_hat(u_hat, old[k], poisoned.theta_u[x])

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


def test_non_finite_block_at_an_epochs_end_keeps_the_last_good_snapshot(monkeypatch):
    # entity 1 never opens a sequence, so a zero background rate leaves the
    # likelihood finite; the report's snapshot must still refuse the block
    # and hand back the start-up parameters
    seqs = [
        Sequence.from_arrays([0.5, 1.0, 1.5], [0, 1, 0], 4.0),
        Sequence.from_arrays([0.4, 2.2], [0, 1], 4.0),
    ]
    data = Dataset(2, seqs)
    config = TrainConfig(epochs=3, dim=2, log_every=100)
    real = train_module._epoch

    def epoch(params, *args):
        z_next = real(params, *args)
        params.theta_mu[1] = -np.inf
        return z_next

    monkeypatch.setattr(train_module, "_epoch", epoch)
    with pytest.raises(TrainingDivergedError, match="^epoch 1: parameters must be finite") as info:
        train(data, config)
    err = info.value
    assert err.epoch == 1
    assert np.isfinite(err.last_params.theta).all()
    want = init_params(data, config, np.random.default_rng(config.seed))
    assert err.last_params.theta.tobytes() == want.theta.tobytes()
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
    cp = read_checkpoint_full(report.snapshot_paths[-1])
    loaded, meta = cp.params, cp.meta
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


def test_train_refuses_more_than_one_thread():
    # train runs in one process, so a threads value it would ignore, yet
    # record in the config digest, is refused in favour of train_parallel
    data = poisson_dataset(rate=0.5, horizon=10.0, n_seqs=2, seed=14)
    with pytest.raises(ValueError, match="train_parallel"):
        train(data, TrainConfig(threads=2, dim=1))


def test_parallel_needs_two_workers():
    data = poisson_dataset(rate=0.5, horizon=10.0, n_seqs=2, seed=14)
    with pytest.raises(ValueError):
        train_parallel(data, TrainConfig(threads=1, dim=1))


def test_parallel_quality_matches_sequential(monkeypatch):
    data, _ = synthetic_dataset(
        nodes=20, sequences=150, beta=1.0, mu_rate=0.05, horizon=40.0, seed=15
    )
    config_seq = TrainConfig(epochs=8, dim=3, seed=3, log_every=100)
    _, seq_report = train(data, config_seq)
    config_par = TrainConfig(epochs=8, dim=3, seed=3, threads=2, log_every=100)
    real_finish, running = train_module._finish_epoch, []

    def finish_epoch(params, data, u_hat, *args):
        running.append(u_hat)
        return real_finish(params, data, u_hat, *args)

    monkeypatch.setattr(train_module, "_finish_epoch", finish_epoch)
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
    assert len(running) == 8
    np.testing.assert_array_equal(running[-1], softplus(par_params.theta_u).sum(axis=0))
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
    data = Dataset(11, base.sequences + [Sequence.from_arrays([], [], 3.0)])
    config = TrainConfig(epochs=3, dim=3, learning_rate=0.05, log_every=100)
    init = init_params(data, config, np.random.default_rng(3))
    params, report = train(data, config, init=init)
    want, want_ll = oracles.reference_train(data, config, init)
    assert oracles.rel_close(oracles.pack(params), oracles.pack(want), rtol=1e-10)
    assert oracles.rel_close(report.epoch_loglik, want_ll, rtol=1e-12)
    assert report.decay_steps == 3 * sum(1 for s in data.sequences if len(s))


def test_step_sends_only_long_sequences_to_the_banded_scan(monkeypatch):
    banded = []
    real = train_module.batch_sequence_stats

    def spy(params, seqs, gradients=False, subset=None, **kwargs):
        banded.append(subset)
        return real(params, seqs, gradients, subset, **kwargs)

    monkeypatch.setattr(train_module, "batch_sequence_stats", spy)
    rng = np.random.default_rng(20)
    seqs = [Sequence.from_arrays(np.sort(rng.uniform(0.0, 50.0, m)), rng.integers(0, 6, m), 50.0)
            for m in (1, 5, _PAIRWISE_MAX, _PAIRWISE_MAX + 1, 0, 250)]
    _, report = train(Dataset(6, seqs), TrainConfig(epochs=2, dim=2, log_every=100))
    assert banded == [(3, 4), (5, 6)] * 2
    assert np.isfinite(report.epoch_loglik).all()


def test_init_params_counts_events_across_empty_sequences():
    seqs = [
        Sequence.from_arrays([], [], 3.0),
        Sequence.from_arrays([0.5, 1.0, 2.0], [2, 0, 2], 3.0),
        Sequence.from_arrays([], [], 1.0),
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
    data = Dataset(20, base.sequences + [Sequence.from_arrays([], [], 5.0)])
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


def fail_on_sequence(monkeypatch, k_bad, exc):
    """Make ``_step`` raise ``exc`` on sequence ``k_bad``; forked workers inherit it."""
    real_step = train_module._step

    def step(params, data, k, *args):
        if k == k_bad:
            raise exc
        return real_step(params, data, k, *args)

    monkeypatch.setattr(train_module, "_step", step)


def test_parallel_worker_divergence_names_epoch_and_worker(monkeypatch):
    # sequences 3..5 are worker 1's shard of 6 under two workers
    data = poisson_dataset(rate=0.5, horizon=10.0, n_seqs=6, seed=19)
    assert len(data.sequences[4]) > 0
    fail_on_sequence(monkeypatch, 4, NumericalDivergenceError("planted at sequence 4"))
    with pytest.raises(TrainingDivergedError, match=r"^epoch 1 worker 1: planted") as info:
        train_parallel(data, TrainConfig(epochs=2, dim=1, threads=2, log_every=100))
    err = info.value
    assert err.epoch == 1
    assert err.report.epoch_loglik == []
    assert np.isfinite(err.last_params.theta).all() and np.isfinite(err.last_params.theta_beta)
    assert multiprocessing.active_children() == []


def test_parallel_worker_error_names_epoch_and_worker(monkeypatch):
    data = poisson_dataset(rate=0.5, horizon=10.0, n_seqs=6, seed=19)
    fail_on_sequence(monkeypatch, 4, KeyError("planted"))
    with pytest.raises(RuntimeError, match=r"^epoch 1 worker 1 failed: KeyError"):
        train_parallel(data, TrainConfig(epochs=2, dim=1, threads=2, log_every=100))
    assert multiprocessing.active_children() == []


def test_init_dimension_must_match_config():
    data = poisson_dataset(rate=0.5, horizon=10.0, n_seqs=3, seed=21)
    init = init_params(data, TrainConfig(dim=3), np.random.default_rng(0))
    with pytest.raises(ValueError, match=r"init has dim 3, config\.dim is 20"):
        train(data, TrainConfig(dim=20, epochs=1, log_every=100), init=init)
