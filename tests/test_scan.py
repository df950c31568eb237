"""Array scan against the stepwise reference, field by field.

The engines consume the vectorized batch scan, so its agreement with the
event-by-event formulation (``sequence_stats_reference`` in ``oracles``) is
what ties them back to the hand-checkable recursions.  Comparisons run the
full gradient surface on random instances, on phase spans wide enough to
exercise the band carries, and on the degenerate shapes (single event,
single entity, empty sequences).
"""

import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from sparsehawkes.model import Dataset, NumericalDivergenceError, Sequence, softplus_inv
from sparsehawkes.scan import (_BAND_WIDTH, _banded_excl_scan, _bands, _chain_carries, _levels,
                               batch_sequence_stats, pairwise_sequence_stats)
from sparsehawkes.lazy import _range_gradient, _z_hat, accumulate_lazy_gradient, build_caches
from sparsehawkes.train import _PAIRWISE_MAX

from oracles import (chain_carries_reference, random_instance, random_params, rel_close,
                     sequence_stats_reference, stats_at)


def assert_stats_match(st, rf, rtol=1e-9, context="", grad_rtol=None):
    """``rtol`` bounds the log-intensity sum and, unless ``grad_rtol`` is
    given, the gradient fields too."""
    grad_rtol = rtol if grad_rtol is None else grad_rtol
    npt.assert_array_equal(st.active, rf.active, err_msg=context)
    npt.assert_array_equal(st.counts, rf.counts, err_msg=context)
    for name in ("mu_act", "u_act", "v_act", "c_act"):
        npt.assert_array_equal(getattr(st, name), getattr(rf, name), err_msg=f"{context}:{name}")
    for name in ("z", "q"):
        npt.assert_allclose(
            getattr(st, name), getattr(rf, name), rtol=1e-12, atol=1e-300,
            err_msg=f"{context}:{name}",
        )
    assert rel_close(st.loglam, rf.loglam, rtol) or abs(st.loglam - rf.loglam) < 1e-9
    if rf.inv_lam is None:
        assert st.inv_lam is None
        return
    for name in ("inv_lam", "r_over_lam", "s_over_lam", "p_rev", "z_beta", "q_beta"):
        npt.assert_allclose(
            getattr(st, name), getattr(rf, name), rtol=grad_rtol, atol=1e-12,
            err_msg=f"{context}:{name}",
        )
    assert abs(st.beta_log - rf.beta_log) <= grad_rtol * max(1.0, abs(rf.beta_log)) + 1e-10


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("gradients", [False, True])
def test_batch_matches_reference_on_random_instances(seed, gradients):
    rng = np.random.default_rng(900 + seed)
    for _ in range(12):
        params, data = random_instance(rng)
        bs = batch_sequence_stats(params, data, gradients=gradients)
        for k, seq in enumerate(data.sequences):
            rf = sequence_stats_reference(params, seq, gradients=gradients)
            assert_stats_match(stats_at(bs, k), rf, context=f"seed{seed},seq{k}")


def test_wide_phase_span_crosses_many_bands():
    # With beta near 1 and events spread over a 1400-long window the phase
    # crosses four band boundaries, so prefix carries and their decays all
    # participate.
    rng = np.random.default_rng(5)
    params = random_params(rng, 4, 3)
    params.theta_beta = np.float64(np.log(np.expm1(1.0)))
    times = np.sort(rng.uniform(0.0, 1400.0, size=500))
    times += np.arange(500) * 1e-9
    ents = rng.integers(0, 4, size=500).astype(np.int64)
    seq = Sequence.from_arrays(times, ents, 1500.0)
    st = stats_at(batch_sequence_stats(params, Dataset(4, [seq]), gradients=True), 0)
    rf = sequence_stats_reference(params, seq, gradients=True)
    assert_stats_match(st, rf, rtol=1e-8)


def test_single_entity_long_run_uses_long_band_path():
    rng = np.random.default_rng(6)
    params = random_params(rng, 2, 2)
    params.theta_beta = np.float64(np.log(np.expm1(1.0)))
    times = np.sort(rng.uniform(0.0, 900.0, size=300))
    times += np.arange(300) * 1e-9
    seq = Sequence.from_arrays(times, np.zeros(300, dtype=np.int64), 1000.0)
    st = stats_at(batch_sequence_stats(params, Dataset(2, [seq]), gradients=True), 0)
    rf = sequence_stats_reference(params, seq, gradients=True)
    assert_stats_match(st, rf, rtol=1e-8)


def cumsum_excl_scan(x, lengths, reverse):
    """Exclusive band sums and band totals by ``np.cumsum``, band by band."""
    out, totals = np.empty_like(x), []
    for a, b in zip(np.cumsum(lengths) - lengths, np.cumsum(lengths)):
        xs = x[a:b][::-1] if reverse else x[a:b]
        cs = np.cumsum(xs, axis=0)
        out[a:b] = (cs - xs)[::-1] if reverse else cs - xs
        totals.append(cs[-1])
    return out, np.array(totals)


@pytest.mark.parametrize("tail", [(), (1,), (2,), (40,)])
@pytest.mark.parametrize("reverse", [False, True])
def test_short_band_sums_equal_cumsum_bit_for_bit(tail, reverse):
    # bands of one width form a grid, mixed widths up to the padding cap a
    # padded block; both sum slice by slice in place of cumsum, and must
    # add the same numbers in the same order (values over six decades make
    # any reordering show in the last bits)
    rng = np.random.default_rng(17)
    for width in range(1, 17):
        mixed = rng.integers(1, width + 1, 9)
        mixed[0] = width
        for lengths in (np.full(7, width), np.append(mixed, width % 16 + 1)):
            m = int(lengths.sum())
            x = rng.normal(size=(m,) + tail) * 10.0 ** rng.uniform(-3, 3, size=(m,) + tail)
            first = np.zeros(m, dtype=bool)
            first[np.cumsum(lengths) - lengths] = True
            bands = _bands(first, np.zeros(m, dtype=np.int64))
            got = x.copy()
            totals = _banded_excl_scan(got, bands, reverse=reverse)
            want, want_totals = cumsum_excl_scan(x, lengths, reverse)
            assert got.tobytes() == want.tobytes(), (width, lengths)
            assert totals.tobytes() == want_totals.tobytes(), (width, lengths)


@pytest.mark.parametrize("tail", [(), (3,)])
@pytest.mark.parametrize("reverse", [False, True])
def test_level_carries_equal_the_per_level_loop_bit_for_bit(tail, reverse):
    # the carries run level by level on slices of a layout computed once;
    # each band's arithmetic is the per-level loop's, so the carries must
    # match it to the last bit: one chain of 12 bands, many chains of mixed
    # lengths (phase steps of 1 to 3 bands), and chains of one band each,
    # which need no carries at all
    rng = np.random.default_rng(23)
    for lengths in ([12], rng.integers(1, 9, 40), [1] * 9):
        lengths = np.asarray(lengths)
        nb = int(lengths.sum())
        first = np.zeros(nb, dtype=bool)
        first[np.cumsum(lengths) - lengths] = True
        steps = np.where(first, rng.integers(0, 40, nb), rng.integers(1, 4, nb))
        g = np.concatenate([np.cumsum(steps[a:a + n])
                            for a, n in zip(np.cumsum(lengths) - lengths, lengths)])
        totals = rng.normal(size=(nb,) + tail) * 10.0 ** rng.uniform(-3, 3, (nb,) + tail)
        want = chain_carries_reference(first, g, totals, reverse, _BAND_WIDTH)
        levels = _levels(first, g)
        if want is None:
            assert levels is None
            continue
        got = _chain_carries(levels, totals, reverse)
        assert got.tobytes() == want.tobytes(), lengths


def test_degenerate_shapes_in_one_batch():
    rng = np.random.default_rng(7)
    params = random_params(rng, 3, 2)
    seqs = [
        Sequence.from_arrays([], [], 4.0),
        Sequence.from_arrays([0.5], [2], 2.0),
        Sequence.from_arrays([0.1, 0.2, 0.3], [1, 1, 1], 1.0),
        Sequence.from_arrays([], [], 1.5),
        Sequence.from_arrays([0.2, 0.9, 1.4, 1.9], [0, 2, 0, 1], 2.5),
    ]
    bs = batch_sequence_stats(params, Dataset(3, seqs), gradients=True)
    for k, seq in enumerate(seqs):
        rf = sequence_stats_reference(params, seq, gradients=True)
        assert_stats_match(stats_at(bs, k), rf, context=f"seq{k}")


def test_all_empty_batch():
    rng = np.random.default_rng(8)
    params = random_params(rng, 3, 2)
    seqs = [Sequence.from_arrays([], [], 4.0), Sequence.from_arrays([], [], 1.0)]
    bs = batch_sequence_stats(params, Dataset(3, seqs), gradients=True)
    assert np.diff(bs.seq_slot_start).tolist() == [0, 0]
    st = stats_at(bs, 1)
    assert st.loglam == 0.0
    assert len(st.active) == 0


def assert_empty_layout(bs, ns, d, gradients):
    """No slots, and one zero row per sequence, in the dtypes of a non-empty scan."""
    ints = ("slot_seq", "slot_entity", "counts")
    floats = {"q": (0,), "mu_slot": (0,), "c_slot": (0,), "u_slot": (0, d), "v_slot": (0, d),
              "loglam": (ns,), "z": (ns, d)}
    grads = {"inv_lam": (0,), "r_over_lam": (0,), "s_over_lam": (0, d), "p_rev": (0, d),
             "beta_log": (ns,), "z_beta": (ns, d), "q_beta": (0,)}
    if gradients:
        floats |= grads
    else:
        assert all(getattr(bs, name) is None for name in grads)
    assert bs.num_seqs == ns
    for name in ints:
        assert getattr(bs, name).shape == (0,) and getattr(bs, name).dtype == np.int64, name
    npt.assert_array_equal(bs.seq_slot_start, np.zeros(ns + 1))
    assert bs.seq_slot_start.dtype == np.int64
    for name, shape in floats.items():
        assert getattr(bs, name).shape == shape and getattr(bs, name).dtype == np.float64, name


def test_empty_ranges_take_the_general_path():
    # the scan of a dataset with no events, with and without gradients, and
    # the kernel and the subset= scan of an empty sequence beside a full one
    rng = np.random.default_rng(14)
    params = random_params(rng, 3, 2)
    empty = [Sequence.from_arrays([], [], 4.0), Sequence.from_arrays([], [], 1.0)]
    for gradients in (False, True):
        bs = batch_sequence_stats(params, Dataset(3, empty), gradients=gradients)
        assert_empty_layout(bs, 2, 2, gradients)
        for k, seq in enumerate(empty):
            rf = sequence_stats_reference(params, seq, gradients=gradients)
            assert_stats_match(stats_at(bs, k), rf, context=f"gradients={gradients}, seq {k}")
    data = Dataset(3, [Sequence.from_arrays([0.5, 0.9], [0, 0], 2.0), empty[0]])
    rf = sequence_stats_reference(params, empty[0], gradients=True)
    for bs in (pairwise_sequence_stats(params, data, 1),
               batch_sequence_stats(params, data, gradients=True, subset=(1, 2))):
        assert_empty_layout(bs, 1, 2, True)
        assert_stats_match(stats_at(bs, 0), rf)


def test_batch_results_do_not_depend_on_batch_composition():
    # Each sequence's numbers must come out bit-identical whether it is
    # scanned alone or alongside others; the dense engine's permutation
    # invariance rests on this.
    rng = np.random.default_rng(9)
    params, data = random_instance(rng)
    full = batch_sequence_stats(params, data, gradients=True)
    for k, seq in enumerate(data.sequences):
        alone = stats_at(batch_sequence_stats(params, Dataset(data.num_entities, [seq]), True), 0)
        st = stats_at(full, k)
        for name in (
            "mu_act", "u_act", "v_act", "c_act", "z", "q",
            "inv_lam", "r_over_lam", "s_over_lam", "p_rev", "z_beta", "q_beta",
        ):
            npt.assert_array_equal(getattr(st, name), getattr(alone, name), err_msg=name)
        assert st.loglam == alone.loglam
        assert st.beta_log == alone.beta_log


def test_underflowed_background_rate_raises():
    rng = np.random.default_rng(10)
    params = random_params(rng, 2, 2)
    params.theta_mu[:] = -800.0  # softplus underflows to exactly zero
    seq = Sequence.from_arrays([0.5], [0], 2.0)
    with pytest.raises(NumericalDivergenceError, match="non-positive intensity"):
        batch_sequence_stats(params, Dataset(2, [seq]))
    with pytest.raises(NumericalDivergenceError, match="non-positive intensity"):
        sequence_stats_reference(params, seq)


def test_overflowing_excitation_raises():
    rng = np.random.default_rng(11)
    params = random_params(rng, 2, 2)
    params.theta_u[:] = 1e160  # softplus is identity out here; u.v overflows
    params.theta_v[:] = 1e160
    seq = Sequence.from_arrays([0.5, 0.6], [0, 0], 2.0)
    with np.errstate(all="ignore"):
        with pytest.raises(NumericalDivergenceError):
            batch_sequence_stats(params, Dataset(2, [seq]), gradients=True)
        with pytest.raises(NumericalDivergenceError):
            sequence_stats_reference(params, seq, gradients=True)


def test_batched_accumulation_matches_per_sequence_sum():
    rng = np.random.default_rng(12)
    for _ in range(10):
        params, data = random_instance(rng)
        caches = build_caches(params, data)
        z_hat = _z_hat(params, data)
        got = accumulate_lazy_gradient(params, data, caches)
        want_mu = np.zeros(params.num_entities)
        want_self = np.zeros(params.num_entities)
        want_u = np.zeros((params.num_entities, params.dim))
        want_v = np.zeros((params.num_entities, params.dim))
        beta_sum = 0.0
        d = params.dim
        for k in range(len(data)):
            bs = batch_sequence_stats(params, data, True, subset=(k, k + 1))
            rows, g_beta = _range_gradient(params, bs, caches.u_hat, z_hat, data)
            ent = bs.slot_entity
            want_u[ent] += rows[:, :d]
            want_v[ent] += rows[:, d:2 * d]
            want_mu[ent] += rows[:, 2 * d]
            want_self[ent] += rows[:, 2 * d + 1]
            beta_sum += g_beta[0]
        never = data.never_active()
        if len(never):
            from sparsehawkes.model import softplus_grad, checked_beta

            want_mu[never] = -data.total_horizon * softplus_grad(params.theta_mu[never])
            want_u[never] = -(z_hat[None, :] / checked_beta(params)) * softplus_grad(
                params.theta_u[never]
            )
        npt.assert_allclose(got.d_theta_mu, want_mu, rtol=1e-11, atol=1e-14)
        npt.assert_allclose(got.d_theta_self, want_self, rtol=1e-11, atol=1e-14)
        npt.assert_allclose(got.d_theta_u, want_u, rtol=1e-11, atol=1e-14)
        npt.assert_allclose(got.d_theta_v, want_v, rtol=1e-11, atol=1e-14)
        assert rel_close(got.d_theta_beta, beta_sum, 1e-10) or abs(
            got.d_theta_beta - beta_sum
        ) < 1e-12


_WIDTH = 350.0  # phase width of one scan band


def phases_from(start, steps):
    """Event phases after ``start``: each step is a gap in phase units, or
    "edge-"/"edge+" for a hair before or after the next band edge, counted
    from the first event as the scan counts them."""
    phases = []
    for step in steps:
        last = phases[-1] if phases else start
        if not isinstance(step, str):
            phases.append(last + step)
            continue
        origin = phases[0] if phases else start
        edge = (math.floor((last - origin) / _WIDTH) + 1) * _WIDTH
        hair = -1e-6 if step == "edge-" else 1e-6
        if origin + edge + hair <= last:
            edge += _WIDTH
        phases.append(origin + edge + hair)
    return np.array(phases)


@st.composite
def banded_datasets(draw):
    """Small datasets whose phases cross band edges, sit far from zero, and
    repeat entities across bands, including events a hair either side of a
    band edge; a non-empty sequence may end exactly at its horizon."""
    n = draw(st.integers(1, 4))
    d = draw(st.integers(1, 3))
    params = random_params(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n, d)
    beta = draw(st.sampled_from([0.03, 1.0, 6.0]))
    params.theta_beta = float(softplus_inv(beta))
    # gaps in phase units: tiny, a hair either side of one band, several
    # bands; or a hair either side of the next band edge
    step = st.sampled_from([1e-3, 0.7, _WIDTH - 1e-6, _WIDTH + 1e-6, 3.2 * _WIDTH,
                            "edge-", "edge+"])
    seqs = []
    for _ in range(draw(st.integers(1, 5))):
        m = draw(st.integers(0, 10))
        start = draw(st.sampled_from([0.0, 0.4, 1e6]))
        phases = phases_from(start, draw(st.lists(step, min_size=m, max_size=m)))
        times = phases / beta
        pad = draw(st.sampled_from([0.0, 0.5, 900.0] if m else [0.5, 900.0]))
        horizon = (phases[-1] if m else start) / beta + pad
        ents = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
        seqs.append(Sequence.from_arrays(times, ents, horizon))
    return params, Dataset(n, seqs)


def assert_bit_identical(got, want):
    for name in (
        "active", "counts", "mu_act", "u_act", "v_act", "c_act", "z", "q",
        "inv_lam", "r_over_lam", "s_over_lam", "p_rev", "z_beta", "q_beta",
    ):
        npt.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)
    assert got.loglam == want.loglam
    assert got.beta_log == want.beta_log


@settings(max_examples=80)
@given(banded_datasets())
def test_subset_scan_equals_slice_of_full_scan(case):
    params, data = case
    # the scans slice the dataset's per-event frame
    seq_of, tail, trel = data.event_frame()
    offsets = data.offsets
    assert len(seq_of) == data.total_events
    for k, seq in enumerate(data.sequences):
        sl = slice(offsets[k], offsets[k + 1])
        npt.assert_array_equal(seq_of[sl], k)
        npt.assert_array_equal(tail[sl], seq.horizon - seq.times)
        npt.assert_array_equal(trel[sl], seq.times - seq.times[:1])
    full = batch_sequence_stats(params, data, gradients=True)
    ns = len(data.sequences)
    for k in range(ns):
        one = batch_sequence_stats(params, data, gradients=True, subset=(k, k + 1))
        assert one.num_seqs == 1
        assert_bit_identical(stats_at(one, 0), stats_at(full, k))
    tail = batch_sequence_stats(params, data, gradients=True, subset=(1, ns))
    for k in range(1, ns):
        assert_bit_identical(stats_at(tail, k - 1), stats_at(full, k))


@settings(max_examples=80)
@given(banded_datasets())
def test_banded_scan_matches_stepwise_reference_at_band_edges(case):
    # the frozen engine tolerances: 1e-8 on the log-intensity sums, 1e-6 on
    # the gradient fields, for full scans and for subset= scans
    params, data = case
    ns = len(data)
    scans = [(0, batch_sequence_stats(params, data, gradients=True)),
             (1, batch_sequence_stats(params, data, gradients=True, subset=(1, ns)))]
    scans += [(k, batch_sequence_stats(params, data, gradients=True, subset=(k, k + 1)))
              for k in range(ns)]
    for start, bs in scans:
        for k in range(start, start + bs.num_seqs):
            rf = sequence_stats_reference(params, data.sequences[k], gradients=True)
            assert_stats_match(stats_at(bs, k - start), rf, rtol=1e-8, grad_rtol=1e-6,
                               context=f"scan from {start}, seq {k}")


def assert_kernel_matches_banded(params, data):
    """The (m, m) kernel against the banded one-sequence scan, for every
    non-empty sequence, on the step's gradient rows and the fields it returns.

    The tolerance is scaled by each compared block's largest magnitude: where
    the banded scan underflows a cross-band term to exactly 0, the kernel
    keeps one of about 1e-152."""
    u_hat, z_hat = params.factors_u().sum(axis=0), _z_hat(params, data)
    offsets = data.offsets
    for k in np.flatnonzero(np.diff(offsets)).tolist():
        got = pairwise_sequence_stats(params, data, k)
        want = batch_sequence_stats(params, data, gradients=True, subset=(k, k + 1))
        # one body slices the tables, activates the rows and sums the tail
        # weights for both, so these agree bit for bit
        for name in ("slot_entity", "slot_seq", "seq_slot_start", "counts", "horizons", "q",
                     "mu_slot", "c_slot", "u_slot", "v_slot"):
            npt.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)
            assert getattr(got, name).dtype == getattr(want, name).dtype, name
        pairs = [(getattr(got, name), getattr(want, name), name)
                 for name in ("loglam", "z", "inv_lam")]
        rows, g_beta = _range_gradient(params, got, u_hat, z_hat, data)
        rows_w, g_beta_w = _range_gradient(params, want, u_hat, z_hat, data)
        pairs.append((rows, rows_w, "gradient rows"))
        for a, b, name in pairs:
            scale = np.abs(b).max(initial=0.0)
            npt.assert_allclose(a, b, rtol=1e-10, atol=1e-12 * scale, err_msg=f"seq {k}: {name}")
        # The decay term is a sum of O(1) parts that can cancel to 1e-6, so
        # its block is its parts.
        beta = want.beta
        parts = [want.beta_log[0], want.z[0] @ u_hat / beta**2, want.c_slot @ want.q / beta**2,
                 want.z_beta[0] @ u_hat / beta, want.c_slot @ want.q_beta / beta]
        npt.assert_allclose(g_beta, g_beta_w, rtol=1e-10,
                            atol=1e-12 * np.abs(parts).max() * params.beta_grad(),
                            err_msg=f"seq {k}: decay term")


@settings(max_examples=80)
@given(banded_datasets())
def test_kernel_scan_matches_banded_scan(case):
    assert_kernel_matches_banded(*case)


@pytest.mark.parametrize("m", [_PAIRWISE_MAX, _PAIRWISE_MAX + 1])
def test_kernel_scan_matches_banded_scan_at_the_step_crossover(m):
    rng = np.random.default_rng(m)
    params = random_params(rng, 12, 3)
    params.theta_beta = float(softplus_inv(1.0))
    # a gap of nearly one band and repeated entities ride along
    times = np.cumsum(rng.exponential(0.5, m))
    times[m // 2:] += 349.0
    seqs = [Sequence.from_arrays(times, rng.integers(0, 12, m), times[-1] + 1.0),
            Sequence.from_arrays(times, rng.permutation(m) % 12, times[-1] + 7.0)]
    assert_kernel_matches_banded(params, Dataset(12, seqs))


def test_kernel_scan_names_the_diverging_event():
    rng = np.random.default_rng(13)
    params = random_params(rng, 3, 2)
    # entity 1's background rate and receiving embedding underflow to exactly
    # zero, and its first event has no earlier event of its own to lift it
    params.theta_mu[1] = -800.0
    params.theta_u[1] = -800.0
    data = Dataset(3, [Sequence.from_arrays([0.5], [0], 2.0),
                       Sequence.from_arrays([0.2, 0.7, 1.1], [2, 1, 1], 2.0)])
    with pytest.raises(NumericalDivergenceError, match=r"sequence 1 event index 1 \(t=0\.7\)"):
        pairwise_sequence_stats(params, data, 1)
