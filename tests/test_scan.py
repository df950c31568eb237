"""Array scan against the stepwise reference, field by field.

The engines consume the vectorized batch scan, so its agreement with the
event-by-event formulation is what ties them back to the hand-checkable
recursions.  Comparisons run the full gradient surface on random instances,
on phase spans wide enough to exercise the band carries, and on the
degenerate shapes (single event, single entity, empty sequences).
"""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from sparsehawkes.model import Dataset, NumericalDivergenceError, Sequence, softplus_inv
from sparsehawkes.scan import (
    batch_sequence_stats,
    sequence_stats,
    sequence_stats_reference,
)
from sparsehawkes.lazy import (
    accumulate_lazy_gradient,
    build_caches,
    lazy_sequence_gradients,
)

from oracles import random_instance, random_params, rel_close


def assert_stats_match(st, rf, rtol=1e-9, context=""):
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
            getattr(st, name), getattr(rf, name), rtol=rtol, atol=1e-12,
            err_msg=f"{context}:{name}",
        )
    assert abs(st.beta_log - rf.beta_log) <= rtol * max(1.0, abs(rf.beta_log)) + 1e-10


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("gradients", [False, True])
def test_batch_matches_reference_on_random_instances(seed, gradients):
    rng = np.random.default_rng(900 + seed)
    for _ in range(12):
        params, data = random_instance(rng)
        bs = batch_sequence_stats(params, data.sequences, gradients=gradients)
        for k, seq in enumerate(data.sequences):
            rf = sequence_stats_reference(params, seq, gradients=gradients)
            assert_stats_match(bs.stats(k), rf, context=f"seed{seed},seq{k}")


def test_wrapper_matches_reference():
    rng = np.random.default_rng(41)
    params, data = random_instance(rng)
    for seq in data.sequences:
        st = sequence_stats(params, seq, gradients=True)
        rf = sequence_stats_reference(params, seq, gradients=True)
        assert_stats_match(st, rf)


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
    st = batch_sequence_stats(params, [seq], gradients=True).stats(0)
    rf = sequence_stats_reference(params, seq, gradients=True)
    assert_stats_match(st, rf, rtol=1e-8)


def test_single_entity_long_run_uses_long_band_path():
    rng = np.random.default_rng(6)
    params = random_params(rng, 2, 2)
    params.theta_beta = np.float64(np.log(np.expm1(1.0)))
    times = np.sort(rng.uniform(0.0, 900.0, size=300))
    times += np.arange(300) * 1e-9
    seq = Sequence.from_arrays(times, np.zeros(300, dtype=np.int64), 1000.0)
    st = batch_sequence_stats(params, [seq], gradients=True).stats(0)
    rf = sequence_stats_reference(params, seq, gradients=True)
    assert_stats_match(st, rf, rtol=1e-8)


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
    bs = batch_sequence_stats(params, seqs, gradients=True)
    for k, seq in enumerate(seqs):
        rf = sequence_stats_reference(params, seq, gradients=True)
        assert_stats_match(bs.stats(k), rf, context=f"seq{k}")


def test_all_empty_batch():
    rng = np.random.default_rng(8)
    params = random_params(rng, 3, 2)
    seqs = [Sequence.from_arrays([], [], 4.0), Sequence.from_arrays([], [], 1.0)]
    bs = batch_sequence_stats(params, seqs, gradients=True)
    assert bs.active_counts.tolist() == [0, 0]
    st = bs.stats(1)
    assert st.loglam == 0.0
    assert len(st.active) == 0


def test_batch_results_do_not_depend_on_batch_composition():
    # Each sequence's numbers must come out bit-identical whether it is
    # scanned alone or alongside others; the dense engine's permutation
    # invariance rests on this.
    rng = np.random.default_rng(9)
    params, data = random_instance(rng)
    full = batch_sequence_stats(params, data.sequences, gradients=True)
    for k, seq in enumerate(data.sequences):
        alone = batch_sequence_stats(params, [seq], gradients=True).stats(0)
        st = full.stats(k)
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
        batch_sequence_stats(params, [seq])
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
            batch_sequence_stats(params, [seq], gradients=True)
        with pytest.raises(NumericalDivergenceError):
            sequence_stats_reference(params, seq, gradients=True)


def test_batched_accumulation_matches_per_sequence_sum():
    rng = np.random.default_rng(12)
    for _ in range(10):
        params, data = random_instance(rng)
        caches = build_caches(params, data)
        got = accumulate_lazy_gradient(params, data, caches)
        want_mu = np.zeros(params.num_entities)
        want_self = np.zeros(params.num_entities)
        want_u = np.zeros((params.num_entities, params.dim))
        want_v = np.zeros((params.num_entities, params.dim))
        beta_sum = 0.0
        for seq in data.sequences:
            g = lazy_sequence_gradients(params, seq, caches, data)
            want_mu[g.entities] += g.d_theta_mu
            want_self[g.entities] += g.d_theta_self
            want_u[g.entities] += g.d_theta_u
            want_v[g.entities] += g.d_theta_v
            beta_sum += g.d_theta_beta
        never = caches.never_active
        if len(never):
            from sparsehawkes.model import softplus_grad, checked_beta

            want_mu[never] = -caches.total_horizon * softplus_grad(params.theta_mu[never])
            want_u[never] = -(caches.z_hat[None, :] / checked_beta(params)) * softplus_grad(
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


@st.composite
def banded_datasets(draw):
    """Small datasets whose phases cross band edges, sit far from zero, and
    repeat entities across bands."""
    n = draw(st.integers(1, 4))
    d = draw(st.integers(1, 3))
    params = random_params(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n, d)
    beta = draw(st.sampled_from([0.03, 1.0, 6.0]))
    params.theta_beta = float(softplus_inv(beta))
    # gaps in phase units: tiny, a hair either side of one band, several bands
    gap = st.sampled_from([1e-3, 0.7, _WIDTH - 1e-6, _WIDTH + 1e-6, 3.2 * _WIDTH])
    seqs = []
    for _ in range(draw(st.integers(1, 5))):
        m = draw(st.integers(0, 10))
        start = draw(st.sampled_from([0.0, 0.4, 1e6]))
        phases = start + np.cumsum(draw(st.lists(gap, min_size=m, max_size=m)))
        times = phases / beta
        horizon = (phases[-1] if m else start) / beta + draw(st.sampled_from([0.5, 900.0]))
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


@settings(max_examples=80, deadline=None, database=None)
@given(banded_datasets())
def test_subset_scan_equals_slice_of_full_scan(case):
    params, data = case
    # the scans slice the dataset's per-event frame
    seq_of, tail, trel = data.event_frame()
    offsets = data.event_offsets()
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
        assert_bit_identical(one.stats(0), full.stats(k))
    tail = batch_sequence_stats(params, data, gradients=True, subset=(1, ns))
    for k in range(1, ns):
        assert_bit_identical(tail.stats(k - 1), full.stats(k))
