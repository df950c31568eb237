"""End-to-end acceptance gate.

Each test exercises one headline guarantee of the package and prints a
single summary line, so a full run reads as an eight-point checklist.
Instances, seeds, and tolerances are frozen on purpose: loosening any of
them is a behavior change, not a test fix.

The parallel-training check needs more than one visible CPU core to have a
chance; on a single-core machine its speedup assertion fails and the line
says why.  Everything else is hardware-independent up to wall-clock noise,
which the timing checks absorb by taking the best median over repeated
benchmark runs.
"""

import math
import os
import time

import numpy as np
from scipy import stats

import oracles
from sparsehawkes.data_io import (
    read_cascade_file,
    read_checkpoint_full,
    write_cascades,
    write_checkpoint,
)
from sparsehawkes.dense import dense_gradient, dense_log_likelihood
from sparsehawkes.evaluate import rmse_params, runtime_benchmark
from sparsehawkes.lazy import accumulate_lazy_gradient, build_caches, lazy_log_likelihood
from sparsehawkes.model import Dataset, ModelParams, Sequence, softplus_inv
from sparsehawkes.simulate import (
    GroundTruth,
    spectral_radius_estimate,
    synthetic_dataset,
    thinning_sample,
    time_rescaling_residuals,
)
from sparsehawkes.train import TrainConfig, train, train_parallel


def _report(capsys, num: int, ok: bool, detail: str):
    with capsys.disabled():
        print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)


# ---------------------------------------------------------------------------
# benchmark instances


def _uniform_dataset(n_entities, n_seqs, events_per_seq, active_per_seq,
                     horizon, seed) -> Dataset:
    """Sequences with an exact number of events over an exact active set.

    Each sequence draws its own pool of ``active_per_seq`` entities and the
    labels are a permutation of that pool (padded by resampling when there
    are more events than pool members), so the per-sequence active count is
    a constant rather than an expectation.
    """
    rng = np.random.default_rng(seed)
    seqs = []
    for _ in range(n_seqs):
        pool = rng.choice(n_entities, size=active_per_seq, replace=False)
        m = events_per_seq
        times = np.sort(rng.uniform(0.0, horizon, size=m))
        times += np.arange(m) * 1e-9
        labs = rng.permutation(pool)
        if m > len(pool):
            labs = np.concatenate([labs, rng.choice(pool, size=m - len(pool))])
        seqs.append(Sequence.from_arrays(times, labs[:m].astype(np.int64), horizon))
    return Dataset(n_entities, seqs)


def _benchmark_params(n: int, d: int, seed: int = 1) -> ModelParams:
    rng = np.random.default_rng(seed)
    return ModelParams(
        theta_mu=np.full(n, softplus_inv(0.01)),
        theta_beta=float(softplus_inv(1.0)),
        theta_self=np.full(n, -2.0),
        theta_u=rng.normal(-1.5, 0.3, size=(n, d)),
        theta_v=rng.normal(-1.5, 0.3, size=(n, d)),
        dim=d,
    )


def _interleaved_best(configs, rounds) -> list[float]:
    """Best median timing per configuration, interleaved across rounds.

    Each round times every configuration once, so a quiet stretch of the
    machine benefits all of them and the per-configuration minima stay
    comparable; scheduler noise only ever adds time.
    """
    best = [math.inf] * len(configs)
    for _ in range(rounds):
        for i, (engine, data, reps, params) in enumerate(configs):
            r = runtime_benchmark(engine, data, repetitions=reps, params=params)
            best[i] = min(best[i], r.median_seconds)
    return best


# ---------------------------------------------------------------------------
# 1: the two engines price the same likelihood


def test_criterion_1_engines_agree_on_log_likelihood(capsys):
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        params, data = oracles.random_instance(
            rng, max_entities=50, max_seqs=100, max_events=12, max_dim=8
        )
        dense_val = dense_log_likelihood(params, data)
        lazy_val = lazy_log_likelihood(params, data, build_caches(params, data))
        denom = max(abs(dense_val), abs(lazy_val), 1e-300)
        worst = max(worst, abs(dense_val - lazy_val) / denom)
    secs = time.perf_counter() - t0
    ok = worst <= 1e-8
    _report(capsys, 1, ok, f"200 instances, worst relative gap {worst:.2e}, {secs:.1f}s")
    assert ok


# ---------------------------------------------------------------------------
# 2: gradients agree across engines and against finite differences


def test_criterion_2_gradients_agree_and_match_finite_differences(capsys):
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    worst_pair = 0.0
    worst_fd = 0.0
    pair_ok = True
    fd_ok = True
    for _ in range(50):
        params, data = oracles.random_instance(rng)
        lazy_flat = accumulate_lazy_gradient(
            params, data, build_caches(params, data)
        ).as_flat()
        dense_flat = dense_gradient(params, data).as_flat()
        # each gap in units of the tolerance the assertion below allows it
        gap = np.abs(lazy_flat - dense_flat) / (
            1e-12 + 1e-6 * np.maximum(np.abs(lazy_flat), np.abs(dense_flat))
        )
        worst_pair = max(worst_pair, float(gap.max()))
        pair_ok &= oracles.rel_close(lazy_flat, dense_flat, rtol=1e-6, atol=1e-12)

        fd = oracles.fd_gradient(lambda p: dense_log_likelihood(p, data), params)
        fd_gap = np.abs(dense_flat - fd) / (
            1e-7 + 1e-4 * np.maximum(np.abs(dense_flat), np.abs(fd))
        )
        worst_fd = max(worst_fd, float(fd_gap.max()))
        fd_ok &= oracles.rel_close(dense_flat, fd, rtol=1e-4, atol=1e-7)
    secs = time.perf_counter() - t0
    ok = pair_ok and fd_ok
    _report(
        capsys, 2,
        ok,
        f"50 instances, worst |a-b| / (atol + rtol*max(|a|,|b|)): "
        f"engines {worst_pair:.2e} (<=1), finite differences {worst_fd:.2e} (<=1), {secs:.1f}s",
    )
    assert pair_ok
    assert fd_ok


# ---------------------------------------------------------------------------
# 3: planted parameters are recovered on synthetic data


def test_criterion_3_recovers_planted_parameters(capsys):
    t0 = time.perf_counter()
    data, truth = synthetic_dataset(
        nodes=50, sequences=1000, beta=1.0, mu_rate=1e-4, horizon=1000.0, seed=42
    )
    config = TrainConfig(epochs=40, dim=20, seed=0, log_every=1000)
    params, _ = train(data, config)
    rep = rmse_params(params, truth)
    secs = time.perf_counter() - t0
    ok = rep.rmse_mu <= 1e-4 and rep.rmse_beta <= 0.1 and rep.rmse_alpha <= 0.08
    _report(
        capsys, 3,
        ok,
        f"rate rmse {rep.rmse_mu:.2e} (<=1e-4), decay rmse {rep.rmse_beta:.4f} "
        f"(<=0.1), influence rmse {rep.rmse_alpha:.4f} (<=0.08), {secs:.0f}s",
    )
    assert ok, rep


# ---------------------------------------------------------------------------
# 4: lazy epochs ignore inactive entities and beat dense at scale


def test_criterion_4_lazy_scaling_and_speed_advantage(capsys):
    # Padding the entity universe 11-fold with never-active entities must
    # barely move the lazy engine while the dense engine, which owes every
    # entity a compensator block in every sequence, slows close to 11x.
    n0, n_seqs = 4000, 2500
    base = _uniform_dataset(n0, n_seqs, 5, 5, 10.0, seed=7)
    padded = Dataset(11 * n0, base.sequences)
    p_base = _benchmark_params(n0, 20)
    p_padded = _benchmark_params(11 * n0, 20)
    lazy_base, lazy_padded, dense_base, dense_padded = _interleaved_best(
        [
            ("lazy", base, 9, p_base),
            ("lazy", padded, 9, p_padded),
            ("dense", base, 3, p_base),
            ("dense", padded, 3, p_padded),
        ],
        rounds=3,
    )
    lazy_growth = lazy_padded / lazy_base
    dense_growth = dense_padded / dense_base

    big = _uniform_dataset(10_000, 1000, 5, 5, 10.0, seed=0)
    p_big = _benchmark_params(10_000, 20)
    lazy_big, dense_big = _interleaved_best(
        [("lazy", big, 11, p_big), ("dense", big, 5, p_big)], rounds=2
    )
    ratio = dense_big / lazy_big

    ok = lazy_growth < 2.0 and dense_growth >= 8.0 and ratio >= 10.0
    _report(
        capsys, 4,
        ok,
        f"11x padding grows lazy {lazy_growth:.2f}x (<2), dense {dense_growth:.2f}x "
        f"(>=8); at 10000 entities lazy {lazy_big * 1e3:.0f}ms vs dense "
        f"{dense_big * 1e3:.0f}ms, {ratio:.1f}x (>=10)",
    )
    assert lazy_growth < 2.0
    assert dense_growth >= 8.0
    assert ratio >= 10.0


# ---------------------------------------------------------------------------
# 5: sampler statistics match theory


def test_criterion_5_sampler_count_and_rescaling_statistics(capsys):
    # Univariate branching: expected count is mu*T / (1 - alpha/beta).
    mu = np.array([0.5])
    alpha = np.array([[0.8]])
    target = 0.5 * 1000.0 / (1.0 - 0.8)
    counts = [
        len(thinning_sample(mu, 1.0, alpha, 1000.0, seed=7000 + s))
        for s in range(200)
    ]
    mean_count = float(np.mean(counts))
    count_ok = abs(mean_count - target) / target <= 0.05

    # Time-rescaled residuals are unit exponential under the true model and
    # detectably not so under a mis-specified decay.
    rng = np.random.default_rng(50)
    a5 = rng.random((5, 5)) * 0.2
    a5 *= 0.6 / spectral_radius_estimate(a5)
    truth = GroundTruth(mu=np.full(5, 0.1), beta=1.0, alpha=a5)
    wrong = GroundTruth(mu=np.full(5, 0.1), beta=2.0, alpha=a5)
    pooled_true, pooled_wrong = [], []
    for s in range(100):
        seq = thinning_sample(truth.mu, truth.beta, truth.alpha, 30.0, seed=2000 + s)
        pooled_true.extend(time_rescaling_residuals(truth, seq))
        pooled_wrong.extend(time_rescaling_residuals(wrong, seq))
    p_true = stats.kstest(np.array(pooled_true), "expon").pvalue
    p_wrong = stats.kstest(np.array(pooled_wrong), "expon").pvalue
    ks_ok = p_true > 0.01 and p_wrong < 0.01

    ok = count_ok and ks_ok
    _report(
        capsys, 5,
        ok,
        f"mean count {mean_count:.1f} vs {target:.0f} over 200 seeds (5% band); "
        f"rescaling p={p_true:.3f} true, p={p_wrong:.1e} perturbed",
    )
    assert count_ok, mean_count
    assert ks_ok, (p_true, p_wrong)


# ---------------------------------------------------------------------------
# 6: incrementally maintained totals never drift


def test_criterion_6_maintained_totals_stay_exact(capsys):
    data, _ = synthetic_dataset(
        nodes=30, sequences=200, beta=1.0, mu_rate=0.01, horizon=20.0, seed=9
    )
    config = TrainConfig(epochs=3, dim=8, seed=0, log_every=1000)
    _, report = train(data, config)
    drift = max(report.u_hat_drift)
    ok = drift <= 1e-6
    _report(
        capsys, 6,
        ok,
        f"largest relative drift of the maintained embedding total over "
        f"{config.epochs} epochs: {drift:.2e} (<=1e-6)",
    )
    assert ok, drift


# ---------------------------------------------------------------------------
# 7: lock-free parallel training keeps quality and buys speed


def test_criterion_7_parallel_training_quality_and_speedup(capsys):
    data = _uniform_dataset(50, 10_000, 5, 5, 10.0, seed=13)
    base = dict(epochs=3, dim=5, seed=0, log_every=1000)
    params_seq, rep_seq = train(data, TrainConfig(threads=1, **base))
    params_par, rep_par = train_parallel(data, TrainConfig(threads=4, **base))

    ll_seq = lazy_log_likelihood(params_seq, data, build_caches(params_seq, data))
    ll_par = lazy_log_likelihood(params_par, data, build_caches(params_par, data))
    gap = abs(ll_par - ll_seq) / abs(ll_seq)
    quality_ok = gap <= 0.01

    speedup = float(np.median(rep_seq.epoch_seconds) / np.median(rep_par.epoch_seconds))
    speed_ok = speedup >= 2.0
    cores = len(os.sched_getaffinity(0))
    ok = quality_ok and speed_ok
    _report(
        capsys, 7,
        ok,
        f"final likelihood gap {gap * 100:.3f}% (<=1%), epoch speedup "
        f"{speedup:.2f}x (>=2) with 4 workers on {cores} visible core(s)",
    )
    assert quality_ok, gap
    assert speed_ok, (speedup, cores)


# ---------------------------------------------------------------------------
# 8: serialization round-trips exactly


def test_criterion_8_serialization_round_trips(capsys, tmp_path):
    rng = np.random.default_rng(88)
    params = oracles.random_params(rng, 17, 4)
    meta = {"epoch": 12, "loglik": -431.25, "nested": {"seed": 3, "tags": ["a", "b"]}}
    vocab = [f"entity-{i}" for i in range(17)]
    first = tmp_path / "first.ckpt"
    second = tmp_path / "second.ckpt"
    write_checkpoint(first, params, meta, vocabulary=vocab)
    cp = read_checkpoint_full(first)
    write_checkpoint(second, cp.params, cp.meta, vocabulary=cp.vocabulary)
    ckpt_ok = first.read_bytes() == second.read_bytes()

    seqs = []
    for _ in range(50):
        times = np.cumsum(rng.exponential(0.5, size=40))
        ents = rng.integers(0, 12, size=40)
        seqs.append(Sequence.from_arrays(times, ents, float(times[-1]) + 1.0))
    data = Dataset(12, seqs)
    f1 = tmp_path / "first.tsv"
    f2 = tmp_path / "second.tsv"
    write_cascades(f1, data)
    cf = read_cascade_file(f1)
    write_cascades(f2, cf.dataset, vocabulary=cf.vocabulary)
    casc_ok = f1.read_bytes() == f2.read_bytes()
    # The parser numbers entities by first appearance, so events are compared
    # by name, the only identity the file format carries.
    cf2 = read_cascade_file(f2)
    casc_ok &= len(cf2.dataset.sequences) == len(data.sequences)
    casc_ok &= all(
        np.array_equal(a.times, b.times)
        and [cf2.vocabulary[e] for e in a.entities] == [str(e) for e in b.entities]
        and a.horizon == b.horizon
        for a, b in zip(cf2.dataset.sequences, data.sequences)
    )

    ok = ckpt_ok and casc_ok
    _report(
        capsys, 8,
        ok,
        "checkpoint rewrite byte-identical; cascade round-trip byte-identical "
        "and event-exact",
    )
    assert ckpt_ok
    assert casc_ok
