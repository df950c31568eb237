"""Reference evaluation engine doing explicit work for every entity.

This engine charges every entity's compensator in every sequence directly,
so its cost scales with the product of entity count and sequence count.
It exists as the trustworthy slow path: the sparse engine must reproduce its
values to tight tolerance, and it in turn is checked against the brute-force
history sums (``loglik_brute``) and finite differences (``fd_gradient``) of
the test suite's ``tests/oracles.py``.  Like the sparse engine, it refuses
parameters that break the row contract (:func:`~.model.check_rows`).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .model import Dataset, ModelParams, NumericalDivergenceError, _Columns, softplus_grad
from .scan import batch_sequence_stats

__all__ = ["GradientBuffer", "dense_log_likelihood", "dense_gradient"]


@dataclass
class GradientBuffer:
    """Log-likelihood gradient: ``d_theta`` for the raw ``[u | v | mu | self]``
    block :attr:`~.model.ModelParams.theta`, whose named blocks are views of
    its columns as on ``ModelParams``, and ``d_theta_beta`` for the decay."""

    d_theta: np.ndarray
    d_theta_beta: float
    dim: int

    d_theta_u = _Columns(ModelParams.theta_u.cols, "d_theta")
    d_theta_v = _Columns(ModelParams.theta_v.cols, "d_theta")
    d_theta_mu = _Columns(ModelParams.theta_mu.cols, "d_theta")
    d_theta_self = _Columns(ModelParams.theta_self.cols, "d_theta")

    def as_flat(self) -> np.ndarray:
        """Concatenate all blocks into one vector (mu, beta, self, u, v)."""
        return np.concatenate([
            self.d_theta_mu,
            [self.d_theta_beta],
            self.d_theta_self,
            self.d_theta_u.ravel(),
            self.d_theta_v.ravel(),
        ])


def _canonical_order(data: Dataset) -> list[int]:
    """Content-determined traversal order.

    Accumulating per-sequence contributions in an order keyed on sequence
    content (not list position) makes the final floating-point sums identical
    under any permutation of the dataset.
    """
    bounds = data.offsets.tolist()

    def digest(k: int) -> bytes:
        h = hashlib.blake2b(digest_size=16)
        h.update(data.horizons[k].tobytes())
        h.update(data.times[bounds[k]:bounds[k + 1]].tobytes())
        h.update(data.labels[bounds[k]:bounds[k + 1]].tobytes())
        return h.digest()

    return sorted(range(len(data)), key=digest)


def dense_log_likelihood(params: ModelParams, data: Dataset) -> float:
    """Exact log-likelihood with per-entity compensators summed explicitly."""
    u_full = params.factors_u()
    mu_total = float(params.mu().sum())
    batch = batch_sequence_stats(params, data)
    start = batch.seq_slot_start
    loglam, horizons = batch.loglam.tolist(), batch.horizons.tolist()
    terms = []
    for k in range(len(data)):
        sl = slice(start[k], start[k + 1])
        comp = (u_full @ batch.z[k]).sum() + batch.c_slot[sl] @ batch.q[sl]
        terms.append(loglam[k] - horizons[k] * mu_total - comp / batch.beta)
    total = math.fsum(terms)
    if not math.isfinite(total):
        raise NumericalDivergenceError(f"log-likelihood is not finite: {total!r}")
    return total


def dense_gradient(params: ModelParams, data: Dataset) -> GradientBuffer:
    """Analytic gradient of :func:`dense_log_likelihood` over the whole dataset."""
    d = params.dim
    u_full = params.factors_u()
    u_sum = u_full.sum(axis=0)
    n = params.num_entities
    dmu, du = np.zeros(n), np.zeros((n, d))

    batch = batch_sequence_stats(params, data, gradients=True)
    beta = batch.beta
    order = _canonical_order(data)
    uz, uz_beta = np.zeros((2, batch.num_seqs))
    for k in order:
        # Every entity pays the horizon, and the z-mass hits every entity's
        # compensator: two contiguous passes over all entities per sequence.
        dmu -= batch.horizons[k]
        du -= batch.z[k][None, :] / beta
        uz[k] = (u_full @ batch.z[k]).sum()
        uz_beta[k] = (u_full @ batch.z_beta[k]).sum()
    grad = np.concatenate([du, np.zeros((n, d)), dmu[:, None], np.zeros((n, 1))], axis=1)

    # Active entities get their log-intensity mass and event terms back, one
    # [u | v | mu | self] row per (sequence, entity) slot, in the same order.
    rank = np.empty(batch.num_seqs, dtype=np.int64)
    rank[order] = np.arange(batch.num_seqs)
    sl = np.argsort(rank[batch.slot_seq], kind="stable")
    q, r = batch.q[sl][:, None], batch.r_over_lam[sl][:, None]
    u_act, v_act = batch.u_slot[sl], batch.v_slot[sl]
    np.add.at(grad, batch.slot_entity[sl], np.concatenate([
        batch.s_over_lam[sl] - v_act * r + v_act * q / beta,
        batch.p_rev[sl] - u_act * r - (u_sum[None, :] - u_act) * q / beta,
        batch.inv_lam[sl][:, None],
        r - q / beta,
    ], axis=1))
    grad *= softplus_grad(params.theta)
    cq = np.bincount(batch.slot_seq, weights=batch.c_slot * batch.q, minlength=batch.num_seqs)
    cq_beta = np.bincount(batch.slot_seq, weights=batch.c_slot * batch.q_beta, minlength=batch.num_seqs)

    dbeta = math.fsum((batch.beta_log + (uz + cq) / beta**2 - (uz_beta + cq_beta) / beta).tolist())
    return GradientBuffer(grad, float(dbeta * softplus_grad(params.theta_beta)), d)
