import numpy as np
import pytest

from sparsehawkes.model import Dataset, NumericalDivergenceError, ModelParams, Sequence
from sparsehawkes.dense import GradientBuffer, dense_gradient, dense_log_likelihood

import oracles


def test_likelihood_matches_double_loop_on_random_sequences():
    rng = np.random.default_rng(101)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        d = int(rng.integers(1, 4))
        params = oracles.random_params(rng, n, d)
        seq = oracles.random_sequence(rng, n, 12)
        data = Dataset(n, [seq])
        got = dense_log_likelihood(params, data)
        want = oracles.loglik_brute(params, data)
        assert got == pytest.approx(want, rel=1e-9)


def test_likelihood_matches_double_loop_multi_sequence():
    rng = np.random.default_rng(103)
    for _ in range(20):
        params, data = oracles.random_instance(rng)
        assert dense_log_likelihood(params, data) == pytest.approx(
            oracles.loglik_brute(params, data), rel=1e-9
        )


def test_likelihood_invariant_under_sequence_permutation():
    rng = np.random.default_rng(107)
    params, data = oracles.random_instance(rng, max_seqs=8)
    base = dense_log_likelihood(params, data)
    for _ in range(5):
        perm = rng.permutation(len(data.sequences))
        shuffled = Dataset(data.num_entities, [data.sequences[i] for i in perm])
        assert dense_log_likelihood(params, shuffled) == base  # bitwise


def test_gradient_invariant_under_sequence_permutation():
    rng = np.random.default_rng(109)
    params, data = oracles.random_instance(rng, max_seqs=8)
    base = dense_gradient(params, data).as_flat()
    perm = rng.permutation(len(data.sequences))
    shuffled = Dataset(data.num_entities, [data.sequences[i] for i in perm])
    assert np.array_equal(dense_gradient(params, shuffled).as_flat(), base)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(113)
    for _ in range(8):
        params, data = oracles.random_instance(rng, max_entities=5, max_seqs=3, max_events=8)
        grad = dense_gradient(params, data).as_flat()
        fd = oracles.fd_gradient(lambda p: dense_log_likelihood(p, data), params)
        assert oracles.rel_close(grad, fd, rtol=1e-4, atol=1e-7), (
            np.max(np.abs(grad - fd)), np.argmax(np.abs(grad - fd)))


def test_gradient_zero_event_dataset():
    # Only background-rate coordinates carry gradient when nothing happened.
    rng = np.random.default_rng(127)
    params = oracles.random_params(rng, 4, 2)
    data = Dataset(4, [Sequence.from_arrays([], [], 3.0), Sequence.from_arrays([], [], 2.0)])
    g = dense_gradient(params, data)
    from sparsehawkes.model import softplus_grad

    np.testing.assert_allclose(g.d_theta_mu, -5.0 * softplus_grad(params.theta_mu))
    assert g.d_theta_beta == 0.0
    assert np.all(g.d_theta_self == 0.0)
    assert np.all(g.d_theta_u == 0.0)
    assert np.all(g.d_theta_v == 0.0)


def test_likelihood_overflow_raises():
    n, d = 2, 1
    params = ModelParams(
        np.array([700.0, 700.0]), 0.0, np.zeros(n), np.zeros((n, d)), np.zeros((n, d)), d
    )
    seq = Sequence.from_arrays([], [], 1e307)
    with pytest.raises(NumericalDivergenceError):
        dense_log_likelihood(params, Dataset(n, [seq]))


def test_gradient_buffer_zeros_shape():
    buf = GradientBuffer(np.zeros((3, 8)), 0.0, 2)
    assert buf.as_flat().shape == (3 + 1 + 3 + 6 + 6,)
    assert np.all(buf.as_flat() == 0.0)


def test_gradients_are_one_row_block_in_the_parameter_layout():
    # both engines return the gradient of ModelParams.theta as one block in
    # its [u | v | mu | self] layout; the named blocks are views of it
    from sparsehawkes.lazy import accumulate_lazy_gradient, build_caches

    params, data = oracles.random_instance(np.random.default_rng(131))
    for buf in (dense_gradient(params, data),
                accumulate_lazy_gradient(params, data, build_caches(params, data))):
        assert buf.d_theta.shape == params.theta.shape
        assert buf.d_theta.dtype == params.theta.dtype
        d = buf.dim
        assert np.shares_memory(buf.d_theta_u, buf.d_theta)
        np.testing.assert_array_equal(buf.d_theta_u, buf.d_theta[:, :d])
        np.testing.assert_array_equal(buf.d_theta_v, buf.d_theta[:, d:2 * d])
        np.testing.assert_array_equal(buf.d_theta_mu, buf.d_theta[:, 2 * d])
        np.testing.assert_array_equal(buf.d_theta_self, buf.d_theta[:, 2 * d + 1])


def test_gradient_buffer_views_write_into_the_block_and_flatten_in_order():
    n, d = 3, 2
    buf = GradientBuffer(np.zeros((n, 2 * d + 2)), 0.0, d)
    buf.d_theta_u[1] = [1.0, 2.0]
    buf.d_theta_v[:, 1] += 3.0
    buf.d_theta_mu[2] = 4.0
    buf.d_theta_self = [5.0, 6.0, 7.0]
    want = np.zeros((n, 2 * d + 2))
    want[1, :d] = [1.0, 2.0]
    want[:, d + 1] = 3.0
    want[2, 2 * d] = 4.0
    want[:, 2 * d + 1] = [5.0, 6.0, 7.0]
    np.testing.assert_array_equal(buf.d_theta, want)

    # on a block of distinct values as_flat reads (mu, beta, self, u, v)
    block = np.arange(n * (2 * d + 2), dtype=float).reshape(n, 2 * d + 2)
    flat = GradientBuffer(block, -1.0, d).as_flat()
    np.testing.assert_array_equal(flat, np.concatenate([
        block[:, 2 * d], [-1.0], block[:, 2 * d + 1], block[:, :d].ravel(),
        block[:, d:2 * d].ravel()]))
    np.testing.assert_array_equal(flat[:n + 1 + n], [4.0, 10.0, 16.0, -1.0, 5.0, 11.0, 17.0])
