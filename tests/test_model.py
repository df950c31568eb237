import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from sparsehawkes.model import (
    Dataset,
    ModelParams,
    NumericalDivergenceError,
    Sequence,
    checked_beta,
    influence_matrix,
    softplus,
    softplus_grad,
    softplus_inv,
)

import oracles


def test_softplus_known_values():
    assert softplus(0.0) == pytest.approx(math.log(2.0))
    assert softplus(-50.0) == pytest.approx(math.exp(-50.0), rel=1e-10)
    # Large arguments must pass through without overflow.
    assert softplus(1000.0) == 1000.0
    assert np.all(np.isfinite(softplus(np.array([-800.0, 0.0, 800.0]))))


def test_softplus_matches_logaddexp_on_arrays_and_scalars():
    xs = np.concatenate([
        np.random.default_rng(5).normal(0.0, 30.0, 2000),
        [0.0, -0.0, 36.7, -745.0, 800.0, -800.0, np.inf, -np.inf],
    ])
    want = np.logaddexp(0.0, xs)
    got = softplus(xs.reshape(8, -1)[:, ::-1])[:, ::-1].ravel()
    scalars = np.array([softplus(float(x)) for x in xs])
    for vals in (got, scalars):
        assert np.array_equal(vals == np.inf, want == np.inf)
        fin = np.isfinite(want)
        assert np.all(np.abs(vals[fin] - want[fin]) <= 4 * np.spacing(want[fin]))
    assert np.isnan(softplus(np.nan)) and np.isnan(softplus(np.array([np.nan]))[0])
    assert softplus(np.array([1, 2])).dtype == np.float64


def test_softplus_grad_matches_finite_difference():
    xs = np.linspace(-20.0, 20.0, 41)
    h = 1e-6
    fd = (softplus(xs + h) - softplus(xs - h)) / (2 * h)
    assert np.allclose(softplus_grad(xs), fd, atol=1e-8)
    # Saturation ends of the sigmoid.
    assert softplus_grad(500.0) == pytest.approx(1.0)
    assert softplus_grad(-500.0) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("x", [-800.0, -40.0, -1.0, 0.0, 1.0, 40.0, 710.0, 1e300])
def test_decay_activations_on_the_float_match_the_array_forms(x):
    params = ModelParams.from_block(np.zeros((1, 4)), x, 1)
    for got, want in ((params.beta(), float(softplus(x))),
                      (params.beta_grad(), float(softplus_grad(x)))):
        assert isinstance(got, float)
        assert abs(got - want) <= 2 * np.spacing(want)


def test_underflowed_decay_rate_is_divergence():
    params = ModelParams.from_block(np.zeros((1, 4)), -800.0, 1)
    assert params.beta() == 0.0
    with pytest.raises(NumericalDivergenceError, match="decay rate underflowed"):
        checked_beta(params)


def test_softplus_inv_round_trip():
    ys = np.array([1e-6, 1e-3, 0.5, 1.0, 30.0, 500.0])
    assert np.allclose(softplus(softplus_inv(ys)), ys, rtol=1e-12)
    with pytest.raises(ValueError):
        softplus_inv(0.0)


def test_sequence_validation():
    Sequence.from_arrays([1.0, 2.0], [0, 1], 5.0)
    with pytest.raises(ValueError):
        Sequence.from_arrays([2.0, 2.0], [0, 1], 5.0)  # tie
    with pytest.raises(ValueError):
        Sequence.from_arrays([3.0, 2.0], [0, 1], 5.0)  # out of order
    with pytest.raises(ValueError):
        Sequence.from_arrays([-1.0], [0], 5.0)
    with pytest.raises(ValueError):
        Sequence.from_arrays([6.0], [0], 5.0)  # beyond horizon
    with pytest.raises(ValueError):
        Sequence.from_arrays([], [], 0.0)
    with pytest.raises(ValueError):
        Sequence.from_arrays([1.0], [0], float("nan"))


def test_sequence_active_entities_and_equality():
    s = Sequence.from_arrays([0.5, 1.0, 2.0], [3, 1, 3], 4.0)
    assert np.unique(s.entities).tolist() == [1, 3]
    assert len(s) == 3
    assert s == Sequence.from_arrays([0.5, 1.0, 2.0], [3, 1, 3], 4.0)
    assert s != Sequence.from_arrays([0.5, 1.0, 2.0], [3, 1, 3], 4.5)


def test_dataset_indexing():
    s0 = Sequence.from_arrays([1.0], [0], 2.0)
    s1 = Sequence.from_arrays([0.5, 1.5], [2, 0], 2.0)
    s2 = Sequence.from_arrays([], [], 3.0)
    data = Dataset(4, [s0, s1, s2])
    assert data.activity_count.tolist() == [2, 0, 1, 0]
    assert list(data.never_active()) == [1, 3]
    assert data.total_events == 3
    assert data.total_horizon == pytest.approx(7.0)
    # entity 0 misses the 3.0 horizon over its two sequences, entity 2 misses
    # 2.0 + 3.0 over its one; absent entities get 0
    assert data.absent_share.tolist() == [1.5, 0.0, 5.0, 0.0]
    slot_of, by_slot = data.slot_tables()[0], data.slot_tables()[5]
    np.testing.assert_array_equal(by_slot, np.argsort(slot_of, kind="stable"))
    for e0, e1 in zip(data.offsets[:-1], data.offsets[1:]):
        np.testing.assert_array_equal(by_slot[e0:e1] - e0,
                                      np.argsort(slot_of[e0:e1], kind="stable"))
    with pytest.raises(ValueError):
        Dataset(2, [s1])  # entity 2 out of range
    with pytest.raises(ValueError):
        Dataset(0, [])


def columns_of(data):
    return data.offsets.copy(), data.times.copy(), data.labels.copy(), data.horizons.copy()


def test_dataset_columns_constructor_matches_sequences():
    rng = np.random.default_rng(21)
    seqs = [oracles.random_sequence(rng, 6, 8) for _ in range(9)]
    seqs.insert(3, Sequence.from_arrays([], [], 2.5))
    listed = Dataset(6, seqs)
    columnar = Dataset.from_columns(6, *columns_of(listed))
    for got, want in zip(
        (*columnar.flat_events(), *columnar.slot_tables(), *columnar.event_frame(),
         columnar.offsets, columnar.activity_count),
        (*listed.flat_events(), *listed.slot_tables(), *listed.event_frame(),
         listed.offsets, listed.activity_count),
    ):
        np.testing.assert_array_equal(got, want)
    assert columnar == listed
    assert len(columnar) == len(listed) == 10
    assert columnar.total_events == listed.total_events
    assert columnar.total_horizon == listed.total_horizon
    # either constructor's sequences are views of its own columns
    assert listed.sequences == columnar.sequences == seqs
    assert all(np.shares_memory(s.times, listed.times) for s in listed.sequences if len(s))
    assert columnar.sequences is columnar.sequences


def test_dataset_columns_and_views_are_read_only():
    data = Dataset(3, [Sequence.from_arrays([0.5, 1.0], [2, 0], 2.0)])
    view = Dataset.from_columns(3, *columns_of(data)).sequences[0]
    for array in (view.times, view.entities, data.times, data.labels, data.offsets, data.horizons):
        with pytest.raises(ValueError):
            array[0] = 1


def test_dataset_of_empty_sequences():
    empty = Dataset.from_columns(
        2, np.zeros(3, dtype=np.int64), np.zeros(0), np.zeros(0, dtype=np.int64),
        np.array([1.0, 2.0]),
    )
    assert empty == Dataset(2, [Sequence.from_arrays([], [], 1.0), Sequence.from_arrays([], [], 2.0)])
    assert len(empty) == 2 and empty.total_events == 0 and empty.total_horizon == 3.0
    assert [(len(s), s.horizon) for s in empty.sequences] == [(0, 1.0), (0, 2.0)]
    assert empty.flat_events()[1].size == 0 and empty.slot_tables()[0].size == 0
    np.testing.assert_array_equal(empty.slot_tables()[3], [0, 0, 0])
    assert list(empty.never_active()) == [0, 1]


@pytest.mark.parametrize("offsets,times,labels,horizons", [
    ([0, 2], [1.0, 1.0], [0, 1], [2.0]),       # not strictly increasing
    ([0, 2], [0.5, 2.5], [0, 1], [2.0]),       # beyond the horizon
    ([0, 1], [-0.5], [0], [2.0]),              # negative time
    ([0, 1], [np.nan], [0], [2.0]),            # not finite
    ([0, 1], [0.5], [3], [2.0]),               # entity out of range
    ([0, 1], [0.5], [-1], [2.0]),              # negative entity
    ([0, 1], [0.5], [0], [0.0]),               # horizon not positive
    ([0, 2], [0.5], [0], [2.0]),               # offsets past the events
])
def test_dataset_columns_validated(offsets, times, labels, horizons):
    with pytest.raises(ValueError):
        Dataset.from_columns(3, np.array(offsets, dtype=np.int64), np.array(times),
                             np.array(labels, dtype=np.int64), np.array(horizons))
    # a decrease across a sequence boundary is fine
    Dataset.from_columns(3, np.array([0, 1, 2]), np.array([1.5, 0.5]), np.array([0, 1]),
                         np.array([2.0, 2.0]))


def from_both(times, entities, horizon):
    """A one-sequence fault as both public constructors express it."""
    return [lambda: Sequence.from_arrays(times, entities, horizon),
            lambda: Dataset.from_columns(3, [0, np.size(times)], times, entities, [horizon])]


def from_columns(offsets, times, labels, horizons):
    return [lambda: Dataset.from_columns(3, offsets, times, labels, horizons)]


@pytest.mark.parametrize("constructors,message", [
    pytest.param(from_both([1.0, 1.0], [0, 1], 2.0),
                 "sequence 0 event 1 at t=1.0 (entity 1, horizon 2.0): "
                 "event times must strictly increase", id="tie"),
    pytest.param(from_both([1.5, 0.5], [0, 1], 2.0),
                 "sequence 0 event 1 at t=0.5 (entity 1, horizon 2.0): "
                 "event times must strictly increase", id="out-of-order"),
    pytest.param(from_both([-0.5, 1.0], [0, 1], 2.0),
                 "sequence 0 event 0 at t=-0.5 (entity 0, horizon 2.0): "
                 "event times must be non-negative", id="negative-time"),
    pytest.param(from_both([0.5, np.nan], [0, 1], 2.0),
                 "sequence 0 event 1 at t=nan (entity 1, horizon 2.0): "
                 "event times must be finite", id="nan-time"),
    pytest.param(from_both([np.inf], [0], 2.0),
                 "sequence 0 event 0 at t=inf (entity 0, horizon 2.0): "
                 "event times must be finite", id="inf-time"),
    pytest.param(from_both([np.inf], [0], np.inf),
                 "sequence 0: horizon inf is not a positive real", id="inf-time-and-horizon"),
    pytest.param(from_both([0.5, 2.5], [0, 1], 2.0),
                 "sequence 0 event 1 at t=2.5 (entity 1, horizon 2.0): "
                 "event times must not pass the horizon", id="beyond-horizon"),
    pytest.param(from_both([], [], 0.0),
                 "sequence 0: horizon 0.0 is not a positive real", id="zero-horizon"),
    pytest.param(from_both([1.0], [0], np.nan),
                 "sequence 0: horizon nan is not a positive real", id="nan-horizon"),
    pytest.param(from_both([0.5, 1.0], [0, -1], 2.0),
                 "sequence 0 event 1 at t=1.0 (entity -1, horizon 2.0): "
                 "entities must be non-negative", id="negative-entity"),
    pytest.param(from_both([0.5, 1.0], [0], 2.0),
                 "2 event times but 1 event entities", id="mismatched-lengths"),
    pytest.param(from_both([0.5, 1.0], [0.0, 1.9], 2.0),
                 "sequence 0 event 1 at t=1.0 (entity 1.9, horizon 2.0): "
                 "entities must be integers", id="non-integral-label"),
    pytest.param(from_both([0.5], [np.nan], 2.0),
                 "sequence 0 event 0 at t=0.5 (entity nan, horizon 2.0): "
                 "entities must be integers", id="nan-label"),
    pytest.param(from_both([[0.5, 1.0]], [0, 1], 2.0),
                 "event times must be a 1-d column, got shape (1, 2)", id="2d-times"),
    pytest.param(from_both([0.5, 1.0], [[0, 1]], 2.0),
                 "event entities must be a 1-d column, got shape (1, 2)", id="2d-entities"),
    # faults only a dataset can express
    pytest.param(from_columns([0, 1.5, 3], [0.5, 1.0, 1.5], [0, 1, 2], [2.0, 2.0]),
                 "offset 1 is 1.5, not an integer", id="non-integral-offset"),
    pytest.param(from_columns([[0, 1]], [0.5], [0], [2.0]),
                 "offsets must be a 1-d column, got shape (1, 2)", id="2d-offsets"),
    pytest.param(from_columns([0, 2], [0.5], [0], [2.0]),
                 "offsets must rise from 0 to the 1 events in 2 entries, one more than the "
                 "horizons", id="offsets-past-the-events"),
    pytest.param(from_columns([0, 1, 1, 3], [0.5, 1.0, 1.0], [0, 1, 2], [2.0, 3.0, 4.0]),
                 "sequence 2 event 1 at t=1.0 (entity 2, horizon 4.0): "
                 "event times must strictly increase", id="tie-after-an-empty-sequence"),
    pytest.param(from_columns([0, 1, 3], [0.5, 0.2, 0.7], [0, 1, 3], [1.0, 1.5]) + [
        lambda: Dataset(3, [Sequence.from_arrays([0.5], [0], 1.0),
                            Sequence.from_arrays([0.2, 0.7], [1, 3], 1.5)])],
                 "sequence 1 event 1 at t=0.7 (entity 3, horizon 1.5): "
                 "entities must be below 3", id="entity-outside-the-universe"),
    pytest.param([lambda: Dataset(0, []), lambda: Dataset.from_columns(0, [0], [], [], [])],
                 "num_entities must be positive", id="no-entities"),
])
def test_every_constructor_raises_one_message_per_fault(constructors, message):
    # one checker serves every constructor; it warns about nothing it refuses
    for build in constructors:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as error:
                build()
        assert str(error.value) == message


def test_integral_columns_of_any_dtype_build_the_int_columns():
    floats = Dataset.from_columns(3, [0.0, 2.0, 3.0], [0.5, 1.0, 0.2], [2.0, 0.0, 1.0],
                                  [2.0, 1.0])
    ints = Dataset.from_columns(3, np.array([0, 2, 3]), [0.5, 1.0, 0.2],
                                np.array([2, 0, 1], dtype=np.int32), [2.0, 1.0])
    assert floats == ints
    assert floats.offsets.dtype == floats.labels.dtype == ints.labels.dtype == np.int64
    assert Sequence.from_arrays([0.2], [1.0], 1.0) == ints.sequences[1]


def test_model_params_validation():
    n, d = 3, 2
    ModelParams(np.zeros(n), 0.0, np.zeros(n), np.zeros((n, d)), np.zeros((n, d)), d)
    with pytest.raises(ValueError):
        ModelParams(np.zeros(n), 0.0, np.zeros(n), np.zeros((n, 3)), np.zeros((n, d)), d)
    with pytest.raises(ValueError):
        ModelParams(np.zeros((n, 1)), 0.0, np.zeros(n), np.zeros((n, d)), np.zeros((n, d)), d)
    bad = np.zeros(n)
    bad[1] = np.inf
    with pytest.raises(ValueError):
        ModelParams(bad, 0.0, np.zeros(n), np.zeros((n, d)), np.zeros((n, d)), d)


def test_model_params_blocks_are_views_of_one_row_block():
    n, d = 4, 3
    rng = np.random.default_rng(3)
    parts = [rng.normal(size=n), rng.normal(size=n), rng.normal(size=(n, d)), rng.normal(size=(n, d))]
    params = ModelParams(parts[0], 0.5, parts[1], parts[2], parts[3], d)
    assert params.theta.shape == (n, 2 * d + 2)
    np.testing.assert_array_equal(params.theta, np.column_stack([parts[2], parts[3], parts[0], parts[1]]))
    # writes through a view land in the block; assignment writes into it
    params.theta_v[2, 1] = 7.0
    assert params.theta[2, d + 1] == 7.0
    params.theta_self = params.theta_self + 1.0
    np.testing.assert_array_equal(params.theta[:, 2 * d + 1], parts[1] + 1.0)
    params.theta_mu[:] = -1.0
    assert np.all(params.theta[:, 2 * d] == -1.0)
    # a copy owns its block; adopting a block does not copy it
    twin = params.copy()
    twin.theta_u[0, 0] = 99.0
    twin.theta_beta = 2.0
    assert params.theta[0, 0] == parts[2][0, 0] and params.theta_beta == 0.5
    block = np.zeros((n, 2 * d + 2))
    adopted = ModelParams.from_block(block, 0.0, d)
    adopted.theta_u[1] = 4.0
    assert np.all(block[1, :d] == 4.0)
    with pytest.raises(ValueError):
        ModelParams.from_block(np.zeros((n, 2 * d)), 0.0, d)
    block[0, 0] = np.nan
    with pytest.raises(ValueError):
        ModelParams.from_block(block, 0.0, d)
    with pytest.raises(ValueError):
        ModelParams.from_block(np.zeros((n, 2 * d + 2)), np.inf, d)


def test_alpha_factorization():
    rng = np.random.default_rng(7)
    params = oracles.random_params(rng, 5, 3)
    mat = influence_matrix(params)
    assert mat.shape == (5, 5)
    assert np.all(mat > 0)


def test_intensity_before_first_event_is_background():
    rng = np.random.default_rng(3)
    params = oracles.random_params(rng, 3, 2)
    seq = Sequence.from_arrays([5.0], [1], 10.0)
    assert oracles.intensity_brute(params, seq, 0, 4.0) == pytest.approx(
        float(softplus(params.theta_mu[0])))


def test_compensator_single_event_closed_form():
    rng = np.random.default_rng(5)
    params = oracles.random_params(rng, 3, 2)
    t1, horizon = 2.0, 9.0
    seq = Sequence.from_arrays([t1], [2], horizon)
    beta = params.beta()
    for x in range(3):
        expect = float(softplus(params.theta_mu[x])) * horizon + oracles.alpha_brute(
            params, x, 2
        ) / beta * (1.0 - math.exp(-beta * (horizon - t1)))
        assert oracles.compensator_brute(params, seq, x) == pytest.approx(expect, rel=1e-12)


def test_compensator_matches_quadrature():
    rng = np.random.default_rng(13)
    params = oracles.random_params(rng, 4, 3)
    times = np.unique(rng.uniform(0.0, 11.5, size=20))
    seq = Sequence.from_arrays(times, rng.integers(0, 4, size=len(times)), 12.0)
    assert len(seq) == 20
    panels = np.concatenate([[0.0], seq.times, [seq.horizon]])
    for x in range(4):
        total = 0.0
        for a, b in zip(panels[:-1], panels[1:]):
            val, _ = quad(lambda t: oracles.intensity_brute(params, seq, x, t), a, b, limit=200)
            total += val
        assert oracles.compensator_brute(params, seq, x) == pytest.approx(total, rel=1e-6)


# The stepwise recursion the banded scan is checked against, ``oracles.SequenceScan``.


def test_scan_matches_brute_force_per_event():
    rng = np.random.default_rng(17)
    n, d = 6, 3
    params = oracles.random_params(rng, n, d)
    times = np.unique(rng.uniform(0.0, 50.0, size=1000))
    entities = rng.integers(0, n, size=len(times))
    seq = Sequence.from_arrays(times, entities, 50.0)
    beta = params.beta()
    v = params.factors_v()
    scan = oracles.SequenceScan(params)
    for i in range(len(seq)):
        s_vec, r = scan.advance(times[i], entities[i])
        decays = np.exp(-beta * (times[i] - times[:i]))
        expect_s = decays @ v[entities[:i]] if i else np.zeros(d)
        expect_r = float(decays[entities[:i] == entities[i]].sum()) if i else 0.0
        np.testing.assert_allclose(s_vec, expect_s, rtol=1e-9, atol=1e-300)
        assert r == pytest.approx(expect_r, rel=1e-9, abs=1e-300)


def test_scan_beta_derivative_matches_finite_difference():
    rng = np.random.default_rng(19)
    n, d = 4, 2
    params = oracles.random_params(rng, n, d)
    times = np.unique(rng.uniform(0.0, 8.0, size=40))
    entities = rng.integers(0, n, size=len(times))

    h = 1e-6
    hi = params.copy()
    hi.theta_beta = float(softplus_inv(params.beta() + h))
    lo = params.copy()
    lo.theta_beta = float(softplus_inv(params.beta() - h))

    scan = oracles.SequenceScan(params, track_beta=True)
    scan_hi = oracles.SequenceScan(hi)
    scan_lo = oracles.SequenceScan(lo)
    for t, x in zip(times, entities):
        s_vec, r, s_db, r_db = scan.advance(t, x)
        s_hi, r_hi = scan_hi.advance(t, x)
        s_lo, r_lo = scan_lo.advance(t, x)
        np.testing.assert_allclose(s_db, (s_hi - s_lo) / (2 * h), rtol=1e-4, atol=1e-9)
        assert r_db == pytest.approx((r_hi - r_lo) / (2 * h), rel=1e-4, abs=1e-9)


def test_scan_rejects_time_travel():
    rng = np.random.default_rng(23)
    params = oracles.random_params(rng, 3, 2)
    scan = oracles.SequenceScan(params)
    scan.advance(2.0, 1)
    with pytest.raises(ValueError):
        scan.advance(1.0, 0)
