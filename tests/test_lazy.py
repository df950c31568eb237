import tracemalloc

import numpy as np
import pytest

from sparsehawkes import lazy, scan
from sparsehawkes.evaluate import holdout_loglik
from sparsehawkes.model import Dataset, ModelParams, NumericalDivergenceError, Sequence, softplus
from sparsehawkes.dense import dense_gradient, dense_log_likelihood
from sparsehawkes.lazy import (
    LazyCaches,
    StaleCacheError,
    _range_gradient,
    accumulate_lazy_gradient,
    build_caches,
    lazy_log_likelihood,
    update_u_hat,
)
from sparsehawkes.scan import Workspace, _group_sums, batch_sequence_stats
from sparsehawkes.train import TrainConfig, _PAIRWISE_MAX, train

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
        here = [k for k, seq in enumerate(data.sequences) if x in seq.entities]
        absent = sum(h for k, h in enumerate(horizons) if k not in here)
        if here:
            # The per-entity share times the activity count recovers the
            # total horizon mass of the sequences the entity missed.
            assert data.absent_share[x] * len(here) == pytest.approx(absent, abs=1e-10)
        else:
            assert data.absent_share[x] == 0.0
            assert x in data.never_active()
    np.testing.assert_allclose(caches.u_hat, params.factors_u().sum(axis=0), rtol=1e-12)
    assert data.total_horizon == pytest.approx(float(horizons.sum()))


def test_z_hat_per_slot_matches_per_event_sum():
    # _z_hat activates each (sequence, entity) slot once; the plain
    # form activates every event's emitting row
    rng = np.random.default_rng(42)
    for _ in range(20):
        params, data = oracles.random_instance(rng, max_entities=10, max_seqs=8)
        want = np.zeros(params.dim)
        for seq in data.sequences:
            w = -np.expm1(-params.beta() * (seq.horizon - seq.times))
            want += w @ softplus(params.theta_v[seq.entities])
        np.testing.assert_allclose(lazy._z_hat(params, data), want, rtol=1e-12, atol=0)


def test_u_hat_share_identity():
    # Splitting u_hat evenly over the active entities and summing recovers it.
    rng = np.random.default_rng(43)
    params, data = oracles.random_instance(rng)
    caches = build_caches(params, data)
    for seq in data.sequences:
        a = len(np.unique(seq.entities))
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
    assert len(data.never_active()) == 0
    caches = build_caches(params, data)
    assert lazy_log_likelihood(params, data, caches) == pytest.approx(
        dense_log_likelihood(params, data), rel=1e-12
    )


def test_likelihood_with_never_active_entities():
    rng = np.random.default_rng(59)
    params, data = oracles.random_instance(rng, max_entities=6)
    grown, grown_data = pad_with_silent_entities(params, data, extra=30)
    caches = build_caches(grown, grown_data)
    assert len(grown_data.never_active()) >= 30
    assert lazy_log_likelihood(grown, grown_data, caches) == pytest.approx(
        dense_log_likelihood(grown, grown_data), rel=1e-8
    )


def test_empty_sequences_carry_only_background_mass():
    rng = np.random.default_rng(61)
    params = oracles.random_params(rng, 3, 2)
    data = Dataset(3, [Sequence.from_arrays([], [], 4.0), Sequence.from_arrays([], [], 6.0)])
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


def test_parameters_must_cover_the_datas_entities():
    # the never-active terms run over the data's entities and u_hat over the
    # parameter rows, so any other row count would score a different model
    rng = np.random.default_rng(1)
    params, data = oracles.random_instance(rng, max_entities=6)
    n = data.num_entities
    grown, _ = pad_with_silent_entities(params, data, 3)
    shrunk = ModelParams.from_block(params.theta[:-1].copy(), params.theta_beta, params.dim)
    for bad in (grown, shrunk):
        caches = LazyCaches(bad.factors_u().sum(axis=0), bad.copy())
        match = f"parameters cover {bad.num_entities} entities, data has {n}"
        for run in (lambda: build_caches(bad, data),
                    lambda: lazy_log_likelihood(bad, data, caches),
                    lambda: accumulate_lazy_gradient(bad, data, caches),
                    lambda: holdout_loglik(bad, data)):
            with pytest.raises(ValueError, match=match):
                run()


def sequence_gradient(params, data, caches, k):
    """Sequence ``k``'s gradient rows as a training step computes them:
    ``(entities, rows, decay term)``."""
    bs = batch_sequence_stats(params, data, True, subset=(k, k + 1))
    rows, g_beta = _range_gradient(params, bs, caches.u_hat, lazy._z_hat(params, data), data)
    return bs.slot_entity, rows, g_beta[0]


def test_sequence_gradient_touches_only_active_entities():
    rng = np.random.default_rng(71)
    params, data = oracles.random_instance(rng, max_entities=10)
    caches = build_caches(params, data)
    for k, seq in enumerate(data.sequences):
        entities, rows, _ = sequence_gradient(params, data, caches, k)
        np.testing.assert_array_equal(entities, np.unique(seq.entities))
        assert rows.shape == (len(entities), 2 * params.dim + 2)


def test_sequence_gradient_touch_count_ignores_universe_size():
    rng = np.random.default_rng(73)
    params, data = oracles.random_instance(rng, max_entities=6)
    caches = build_caches(params, data)
    touched = [len(sequence_gradient(params, data, caches, k)[0]) for k in range(len(data))]
    grown, grown_data = pad_with_silent_entities(params, data, extra=100)
    grown_caches = build_caches(grown, grown_data)
    touched_grown = [len(sequence_gradient(grown, grown_data, grown_caches, k)[0])
                     for k in range(len(grown_data))]
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


def test_caches_serve_any_dataset_over_the_same_entities():
    # the caches hold only u_hat, which depends on the parameters alone; the
    # gradient sums z_hat from the data it is given, so caches built on the
    # whole dataset give the exact gradient of its first sequence alone
    rng = np.random.default_rng(131)
    draws = [oracles.random_instance(np.random.default_rng(3))]
    while len(draws) < 12:
        params, data = oracles.random_instance(rng)
        if len(data) >= 2:
            draws.append((params, data))
    for params, data in draws:
        part = Dataset(data.num_entities, data.sequences[:1])
        got = accumulate_lazy_gradient(params, part, build_caches(params, data)).as_flat()
        want = accumulate_lazy_gradient(params, part, build_caches(params, part)).as_flat()
        assert got.tobytes() == want.tobytes()
        dense_flat = dense_gradient(params, part).as_flat()
        assert oracles.rel_close(got, dense_flat, rtol=1e-6, atol=1e-12), (
            np.max(np.abs(got - dense_flat)))


def test_empty_sequence_contributes_nothing():
    rng = np.random.default_rng(89)
    params = oracles.random_params(rng, 4, 2)
    seq = Sequence.from_arrays([], [], 5.0)
    data = Dataset(4, [seq])
    caches = build_caches(params, data)
    entities, rows, g_beta = sequence_gradient(params, data, caches, 0)
    assert len(entities) == 0 and rows.shape == (0, 2 * params.dim + 2)
    assert g_beta == 0.0


def test_update_u_hat_tracks_rebuild():
    rng = np.random.default_rng(97)
    params, data = oracles.random_instance(rng, max_entities=8)
    caches = build_caches(params, data)
    n, d = params.num_entities, params.dim
    for _ in range(10_000):
        x = int(rng.integers(0, n))
        old = params.theta_u[x].copy()
        params.theta_u[x] += rng.normal(0.0, 0.01, size=d)
        update_u_hat(caches.u_hat, x, old, params.theta_u[x])
    rebuilt = params.factors_u().sum(axis=0)
    np.testing.assert_allclose(caches.u_hat, rebuilt, rtol=1e-6)


def full_pass_results(params, data):
    """The full passes' results as bytes: likelihood, gradient, held-out score."""
    caches = build_caches(params, data)
    got = [np.float64(lazy_log_likelihood(params, data, caches)).tobytes(),
           accumulate_lazy_gradient(params, data, caches).as_flat().tobytes()]
    if data.total_events:
        got.append(np.float64(holdout_loglik(params, data)).tobytes())
    return got


def ragged_instance():
    """Empty sequences, never-active entities (9 to 11) and one sequence
    longer than the default chunk between short ones."""
    rng = np.random.default_rng(103)
    params = oracles.random_params(rng, 12, 3)
    seqs = [Sequence.from_arrays([], [], 3.0)]
    seqs += [oracles.random_sequence(rng, 9, 12) for _ in range(5)]
    long_times = np.sort(rng.uniform(0.0, 400.0, lazy._CHUNK_EVENTS + 500))
    seqs.append(Sequence.from_arrays(long_times, rng.integers(0, 9, len(long_times)), 400.0))
    seqs.append(Sequence.from_arrays([], [], 2.0))
    seqs += [oracles.random_sequence(rng, 9, 12) for _ in range(4)]
    return params, Dataset(12, seqs)


def poison_workspace(monkeypatch):
    """Fill every block a workspace hands out with NaN, so a value read
    before this use wrote it, from an earlier range or an earlier name,
    shows in the results."""
    give = Workspace.__call__

    def poisoned(self, name, shape):
        block = give(self, name, shape)
        block.fill(np.nan)
        return block

    monkeypatch.setattr(Workspace, "__call__", poisoned)


def test_holdout_is_the_cached_likelihood_per_event():
    # held-out scoring sums u_hat from the parameters, the expression
    # build_caches uses, instead of building caches: the same value, to the bit
    rng = np.random.default_rng(139)
    instances = [oracles.random_instance(rng) for _ in range(25)] + [ragged_instance()]
    for params, data in instances:
        if data.total_events:
            want = lazy_log_likelihood(params, data, build_caches(params, data))
            assert holdout_loglik(params, data) == want / data.total_events


@pytest.mark.parametrize("chunk", [1, 7, 2**13, 10**9])
def test_chunked_full_passes_are_byte_identical(monkeypatch, chunk):
    # one sequence per range, a few per range, the earlier default of 2^13
    # events and the whole dataset in one range must all give what the
    # default ranges give, to the last bit, also when every workspace block
    # is poisoned before each use
    rng = np.random.default_rng(101)
    cases = [oracles.random_instance(rng, max_entities=10, max_seqs=8) for _ in range(25)]
    cases.append(ragged_instance())
    assert len(lazy._chunks(cases[-1][1])) == 3  # the long sequence is a range of its own
    for params, data in cases:
        want = full_pass_results(params, data)
        with monkeypatch.context() as m:
            m.setattr(lazy, "_CHUNK_EVENTS", chunk)
            assert full_pass_results(params, data) == want
            poison_workspace(m)
            assert full_pass_results(params, data) == want


def long_instance(rng):
    """Sequences longer than a training step's kernel limit, crossing phase
    bands over six of nine entities, between a short and an empty one."""
    params = oracles.random_params(rng, 9, 4)
    seqs = []
    for m in (_PAIRWISE_MAX + 1, 0, 150, 5, 400):
        times = np.unique(rng.uniform(0.0, 2000.0, m))
        seqs.append(Sequence.from_arrays(times, rng.integers(0, 6, len(times)), 2000.0))
    return params, Dataset(9, seqs)


@pytest.mark.parametrize("chunk", [1, 7, lazy._CHUNK_EVENTS, 2**13])
def test_step_gradient_is_the_full_pass_slice(monkeypatch, chunk):
    # a training step's banded one-sequence gradient is, to the last bit, its
    # sequence's slot rows (before the pass groups them by entity) and decay
    # term in the full gradient pass, wherever the pass cuts its ranges
    rng = np.random.default_rng(113)
    cases = [long_instance(rng) for _ in range(3)] + [ragged_instance()]
    range_gradient = lazy._range_gradient
    monkeypatch.setattr(lazy, "_CHUNK_EVENTS", chunk)
    poison_workspace(monkeypatch)  # the pass's workspace; the steps scan without one
    for params, data in cases:
        caches = build_caches(params, data)
        passed = []

        def recorded(*args, **kwargs):
            rows, g_beta = range_gradient(*args, **kwargs)
            passed.append((rows.copy(), g_beta))  # the rows are a view of the pass's block
            return rows, g_beta

        with monkeypatch.context() as m:
            m.setattr(lazy, "_range_gradient", recorded)
            accumulate_lazy_gradient(params, data, caches)
        assert len(passed) == len(lazy._chunks(data))
        pass_rows = np.concatenate([rows for rows, _ in passed])
        pass_decay = np.concatenate([g_beta for _, g_beta in passed])
        seq_slot_start = data.slot_tables()[3]
        for k in range(len(data)):
            _, rows, g_beta = sequence_gradient(params, data, caches, k)
            assert np.array_equal(rows, pass_rows[seq_slot_start[k]:seq_slot_start[k + 1]]), k
            assert g_beta == pass_decay[k], k


def test_chunks_cover_whole_sequences_in_order(monkeypatch):
    _, data = ragged_instance()
    lengths = np.diff(data.offsets)
    for chunk in (1, 7, 40, lazy._CHUNK_EVENTS, 10**9):
        monkeypatch.setattr(lazy, "_CHUNK_EVENTS", chunk)
        ranges = lazy._chunks(data)
        assert [k0 for k0, _ in ranges] == [0] + [k1 for _, k1 in ranges[:-1]]
        assert ranges[-1][1] == len(data)
        for k0, k1 in ranges:
            assert k1 > k0 and (k1 == k0 + 1 or lengths[k0:k1].sum() <= chunk)
    assert lazy._chunks(Dataset(3, [])) == [(0, 0)]


def test_divergence_in_a_later_range_names_the_dataset_position(monkeypatch):
    # entity 2 has zero background, self and receiving rates, so its events
    # have zero intensity; the first such event is event 2 of sequence 3
    seqs = [Sequence.from_arrays([0.5, 1.0 + k], [k % 2, 1 - k % 2], 4.0) for k in range(3)]
    seqs.append(Sequence.from_arrays([0.3, 0.9, 1.4], [0, 1, 2], 4.0))
    data = Dataset(3, seqs)
    rng = np.random.default_rng(107)
    params = oracles.random_params(rng, 3, 2)
    params.theta_mu[2] = params.theta_self[2] = -800.0
    params.theta_u[2] = -800.0
    caches = build_caches(params, data)
    monkeypatch.setattr(lazy, "_CHUNK_EVENTS", 2)
    assert len(lazy._chunks(data)) == 4
    for run in (lazy_log_likelihood, accumulate_lazy_gradient):
        with pytest.raises(NumericalDivergenceError, match="at sequence 3 event index 2 "):
            run(params, data, caches)


def traced_peak(fn):
    """Peak bytes NumPy and Python allocate while ``fn`` runs."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_full_pass_working_memory_does_not_grow_with_the_data():
    # 16, 32 and 64 sequences of 2,000 events (d = 8): a whole-dataset scan's
    # scratch would double with each size; ranges of sequences keep it flat,
    # and the gradient adds only its slot-row block (and that block's copy in
    # entity order) to the scan of one range
    rng = np.random.default_rng(109)
    n, m, d = 400, 2_000, 8
    params = oracles.random_params(rng, n, d)
    ll_peaks, grad_peaks, block_bytes = [], [], []
    for ns in (16, 32, 64):
        times = np.concatenate([np.sort(rng.uniform(0.0, 1000.0, m)) for _ in range(ns)])
        labels = np.concatenate([rng.choice(rng.choice(n, 100, replace=False), m)
                                 for _ in range(ns)])
        data = Dataset.from_columns(n, np.arange(ns + 1) * m, times, labels, np.full(ns, 1000.0))
        caches = build_caches(params, data)
        ll_peaks.append(traced_peak(lambda: lazy_log_likelihood(params, data, caches)))
        grad_peaks.append(traced_peak(lambda: accumulate_lazy_gradient(params, data, caches)))
        block_bytes.append(len(data.slot_tables()[2]) * (2 * d + 2) * 8)
    assert max(ll_peaks) <= 1.25 * min(ll_peaks), ll_peaks
    for peak, block in zip(grad_peaks[1:], block_bytes[1:]):
        assert peak - grad_peaks[0] <= 2 * (block - block_bytes[0]), (grad_peaks, block_bytes)


def test_gradient_pass_scratch_stays_range_sized():
    # 2,000 five-event sequences over 10,000 entities (d = 20), each entity
    # active once: past what the pass must hold (its slot rows, their copy
    # in entity order and its output block), the scratch of its ranges fits
    # in 4 MiB; ranges of 2^13 events needed about 14 MB of workspace alone
    rng = np.random.default_rng(149)
    n, ns, m, d = 10_000, 2_000, 5, 20
    params = oracles.random_params(rng, n, d)
    times = np.sort(rng.uniform(0.0, 10.0, (ns, m)), axis=1).ravel()
    data = Dataset.from_columns(n, np.arange(ns + 1) * m, times, rng.permutation(n),
                                np.full(ns, 10.0))
    caches = build_caches(params, data)
    block = (len(data.slot_tables()[2]) * 2 + n) * (2 * d + 2) * 8
    peak = traced_peak(lambda: accumulate_lazy_gradient(params, data, caches))
    assert peak <= block + 4 * 2**20, (peak, block)


def test_later_ranges_scan_in_the_calls_workspace(monkeypatch):
    # every range after the first writes its large blocks into the blocks
    # the call's workspace already holds: none is allocated again
    params, data = ragged_instance()
    monkeypatch.setattr(lazy, "_CHUNK_EVENTS", 7)
    assert len(lazy._chunks(data)) > 3
    real = lazy.batch_sequence_stats
    for run, gradients in ((lazy.lazy_log_likelihood, False),
                           (lazy.accumulate_lazy_gradient, True)):
        seen = []

        def recorded(*args, workspace=None, **kwargs):
            bs = real(*args, workspace=workspace, **kwargs)
            seen.append((workspace, dict(workspace.blocks)))
            large = [bs.u_slot, bs.v_slot, bs.c_slot]
            if gradients:
                large += [bs.theta_slot, bs.s_over_lam, bs.p_rev, bs.inv_lam, bs.q_beta]
            for array in large:
                assert array.size == 0 or any(np.shares_memory(array, block)
                                              for block in workspace.blocks.values())
            return bs

        with monkeypatch.context() as m:
            m.setattr(lazy, "batch_sequence_stats", recorded)
            run(params, data, build_caches(params, data))
        ws, blocks = seen[0]
        assert len(seen) == len(lazy._chunks(data))
        for later, later_blocks in seen[1:]:
            assert later is ws
            assert later_blocks.keys() == blocks.keys()
            assert all(later_blocks[name] is block for name, block in blocks.items())


def test_training_epochs_read_only_what_they_wrote_in_the_workspace(monkeypatch):
    # an epoch's banded steps and its report share one workspace: poisoning
    # every block before each use leaves the trained parameters and the
    # reported likelihoods unchanged, to the last bit
    _, data = long_instance(np.random.default_rng(131))
    config = TrainConfig(epochs=2, dim=4, log_every=100)
    params, report = train(data, config)
    poison_workspace(monkeypatch)
    poisoned, poisoned_report = train(data, config)
    assert poisoned.theta.tobytes() == params.theta.tobytes()
    assert poisoned.theta_beta == params.theta_beta
    assert poisoned_report.epoch_loglik == report.epoch_loglik


def test_grouped_rows_equal_reduceat():
    # groups of one row are copied and only longer groups summed, with the
    # sums reduceat gives: no group repeated, every group repeated, mixed
    rng = np.random.default_rng(127)
    for low, high in ((1, 1), (2, 5), (1, 4)):
        for _ in range(20):
            counts = rng.integers(low, high + 1, int(rng.integers(1, 40)))
            x = rng.normal(size=(int(counts.sum()), 7)) * 10.0 ** rng.uniform(-3, 3, (1, 7))
            order = rng.permutation(len(x))
            want = np.add.reduceat(x[order], counts.cumsum() - counts, axis=0)
            got = _group_sums(x, order, counts, np.empty_like(want))
            assert got.tobytes() == want.tobytes(), counts


def dataset_state(data):
    """Every slot of a dataset, by identity."""
    assert not hasattr(data, "__dict__")
    return {name: id(getattr(data, name, None)) for name in type(data).__slots__}


def module_arrays():
    return [f"{module.__name__}.{name}" for module in (lazy, scan)
            for name, value in vars(module).items() if isinstance(value, np.ndarray)]


def test_full_passes_and_training_keep_no_workspace():
    # a workspace lives for one call: nothing is left on the dataset or in
    # the engine's modules to hold its blocks after a pass or a training run
    params, data = ragged_instance()
    before = dataset_state(data)
    caches = build_caches(params, data)
    lazy_log_likelihood(params, data, caches)
    accumulate_lazy_gradient(params, data, caches)
    train(data, TrainConfig(epochs=1, dim=3, log_every=100))
    assert dataset_state(data) == before
    assert module_arrays() == []
