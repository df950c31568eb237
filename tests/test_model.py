import math

import numpy as np
import pytest
from scipy.integrate import quad

from sparsehawkes.model import (
    Dataset,
    Event,
    ModelParams,
    Sequence,
    SequenceScan,
    alpha,
    alpha_row,
    compensator,
    influence_matrix,
    intensity,
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


def test_softplus_inv_round_trip():
    ys = np.array([1e-6, 1e-3, 0.5, 1.0, 30.0, 500.0])
    assert np.allclose(softplus(softplus_inv(ys)), ys, rtol=1e-12)
    with pytest.raises(ValueError):
        softplus_inv(0.0)


def test_sequence_validation():
    Sequence([Event(0, 1.0), Event(1, 2.0)], horizon=5.0)
    with pytest.raises(ValueError):
        Sequence([Event(0, 2.0), Event(1, 2.0)], horizon=5.0)  # tie
    with pytest.raises(ValueError):
        Sequence([Event(0, 3.0), Event(1, 2.0)], horizon=5.0)  # out of order
    with pytest.raises(ValueError):
        Sequence([Event(0, -1.0)], horizon=5.0)
    with pytest.raises(ValueError):
        Sequence([Event(0, 6.0)], horizon=5.0)  # beyond horizon
    with pytest.raises(ValueError):
        Sequence([], horizon=0.0)
    with pytest.raises(ValueError):
        Sequence([Event(0, 1.0)], horizon=float("nan"))


def test_sequence_active_entities_and_equality():
    s = Sequence([Event(3, 0.5), Event(1, 1.0), Event(3, 2.0)], horizon=4.0)
    assert list(s.active_entities) == [1, 3]
    assert len(s) == 3
    assert s == Sequence.from_arrays([0.5, 1.0, 2.0], [3, 1, 3], 4.0)
    assert s != Sequence.from_arrays([0.5, 1.0, 2.0], [3, 1, 3], 4.5)


def test_dataset_indexing():
    s0 = Sequence([Event(0, 1.0)], horizon=2.0)
    s1 = Sequence([Event(2, 0.5), Event(0, 1.5)], horizon=2.0)
    s2 = Sequence([], horizon=3.0)
    data = Dataset(4, [s0, s1, s2])
    assert data.active_index[0] == [0, 1]
    assert data.active_index[2] == [1]
    assert data.active_index[1] == [] and data.active_index[3] == []
    assert list(data.never_active()) == [1, 3]
    assert data.total_events == 3
    assert data.total_horizon == pytest.approx(7.0)
    with pytest.raises(ValueError):
        Dataset(2, [s1])  # entity 2 out of range
    with pytest.raises(ValueError):
        Dataset(0, [])


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
    for x in range(5):
        for y in range(5):
            assert alpha(params, x, y) == pytest.approx(
                oracles.alpha_brute(params, x, y), rel=1e-12
            )
    mat = influence_matrix(params)
    assert mat.shape == (5, 5)
    assert np.all(mat > 0)
    for x in range(5):
        row = alpha_row(params, x, np.arange(5))
        assert np.allclose(row, mat[x], rtol=1e-12)


def test_intensity_against_brute_force():
    rng = np.random.default_rng(11)
    params = oracles.random_params(rng, 6, 2)
    seq = oracles.random_sequence(rng, 6, 15, horizon=10.0)
    for t in [0.0, 0.3, 2.5, 9.99, 10.0]:
        for x in range(6):
            assert intensity(params, seq, x, t) == pytest.approx(
                oracles.intensity_brute(params, seq, x, t), rel=1e-10
            )


def test_intensity_before_first_event_is_background():
    rng = np.random.default_rng(3)
    params = oracles.random_params(rng, 3, 2)
    seq = Sequence([Event(1, 5.0)], horizon=10.0)
    assert intensity(params, seq, 0, 4.0) == pytest.approx(float(softplus(params.theta_mu[0])))


def test_compensator_single_event_closed_form():
    rng = np.random.default_rng(5)
    params = oracles.random_params(rng, 3, 2)
    t1, horizon = 2.0, 9.0
    seq = Sequence([Event(2, t1)], horizon=horizon)
    beta = params.beta()
    for x in range(3):
        expect = float(softplus(params.theta_mu[x])) * horizon + alpha(
            params, x, 2
        ) / beta * (1.0 - math.exp(-beta * (horizon - t1)))
        assert compensator(params, seq, x) == pytest.approx(expect, rel=1e-12)


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
            val, _ = quad(lambda t: intensity(params, seq, x, t), a, b, limit=200)
            total += val
        assert compensator(params, seq, x) == pytest.approx(total, rel=1e-6)


def test_scan_matches_brute_force_per_event():
    rng = np.random.default_rng(17)
    n, d = 6, 3
    params = oracles.random_params(rng, n, d)
    times = np.unique(rng.uniform(0.0, 50.0, size=1000))
    entities = rng.integers(0, n, size=len(times))
    seq = Sequence.from_arrays(times, entities, 50.0)
    beta = params.beta()
    v = params.factors_v()
    scan = SequenceScan(params)
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

    scan = SequenceScan(params, track_beta=True)
    scan_hi = SequenceScan(hi)
    scan_lo = SequenceScan(lo)
    for t, x in zip(times, entities):
        s_vec, r, s_db, r_db = scan.advance(t, x)
        s_hi, r_hi = scan_hi.advance(t, x)
        s_lo, r_lo = scan_lo.advance(t, x)
        np.testing.assert_allclose(s_db, (s_hi - s_lo) / (2 * h), rtol=1e-4, atol=1e-9)
        assert r_db == pytest.approx((r_hi - r_lo) / (2 * h), rel=1e-4, abs=1e-9)


def test_scan_rejects_time_travel():
    rng = np.random.default_rng(23)
    params = oracles.random_params(rng, 3, 2)
    scan = SequenceScan(params)
    scan.advance(2.0, 1)
    with pytest.raises(ValueError):
        scan.advance(1.0, 0)
