"""Reference evaluation engine doing explicit work for every entity.

This engine charges every entity's compensator in every sequence directly,
so its cost scales with the product of entity count and sequence count.
It exists as the trustworthy slow path: the sparse engine must reproduce its
values to tight tolerance, and it in turn is validated against brute-force
history sums and finite differences in the test suite.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .model import Dataset, ModelParams, NumericalDivergenceError, checked_beta, softplus_grad
from .scan import batch_sequence_stats

__all__ = ["GradientBuffer", "dense_log_likelihood", "dense_gradient"]


@dataclass
class GradientBuffer:
    """Dense gradient of the log-likelihood w.r.t. the raw parameter blocks."""

    d_theta_mu: np.ndarray
    d_theta_beta: float
    d_theta_self: np.ndarray
    d_theta_u: np.ndarray
    d_theta_v: np.ndarray

    @classmethod
    def zeros(cls, num_entities: int, dim: int) -> "GradientBuffer":
        return cls(
            d_theta_mu=np.zeros(num_entities),
            d_theta_beta=0.0,
            d_theta_self=np.zeros(num_entities),
            d_theta_u=np.zeros((num_entities, dim)),
            d_theta_v=np.zeros((num_entities, dim)),
        )

    def as_flat(self) -> np.ndarray:
        """Concatenate all blocks into one vector (mu, beta, self, u, v)."""
        return np.concatenate([
            self.d_theta_mu,
            [self.d_theta_beta],
            self.d_theta_self,
            self.d_theta_u.ravel(),
            self.d_theta_v.ravel(),
        ])


def _sequence_digest(seq) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    h.update(np.float64(seq.horizon).tobytes())
    h.update(seq.times.tobytes())
    h.update(seq.entities.tobytes())
    return h.digest()


def _canonical_order(data: Dataset) -> list[int]:
    """Content-determined traversal order.

    Accumulating per-sequence contributions in an order keyed on sequence
    content (not list position) makes the final floating-point sums identical
    under any permutation of the dataset.
    """
    return sorted(range(len(data.sequences)), key=lambda k: _sequence_digest(data.sequences[k]))


def dense_log_likelihood(params: ModelParams, data: Dataset) -> float:
    """Exact log-likelihood with per-entity compensators summed explicitly."""
    u_full = params.factors_u()
    mu_total = float(params.mu().sum())
    beta = checked_beta(params)
    batch = batch_sequence_stats(params, data)
    terms = []
    for k, seq in enumerate(data.sequences):
        st = batch.stats(k)
        comp = (u_full @ st.z).sum() + st.c_act @ st.q
        terms.append(st.loglam - seq.horizon * mu_total - comp / beta)
    total = math.fsum(terms)
    if not math.isfinite(total):
        raise NumericalDivergenceError(f"log-likelihood is not finite: {total!r}")
    return total


def dense_gradient(params: ModelParams, data: Dataset) -> GradientBuffer:
    """Analytic gradient of :func:`dense_log_likelihood` over the whole dataset."""
    n_ent = params.num_entities
    d = params.dim
    u_full = params.factors_u()
    u_sum = u_full.sum(axis=0)
    beta = checked_beta(params)

    dmu = np.zeros(n_ent)
    dself = np.zeros(n_ent)
    du = np.zeros((n_ent, d))
    dv = np.zeros((n_ent, d))

    batch = batch_sequence_stats(params, data, gradients=True)
    order = _canonical_order(data)
    uz, uz_beta = np.zeros((2, batch.num_seqs))
    for k in order:
        # Background block: every entity pays the horizon.  Receiving
        # embeddings: the z-mass hits every entity's compensator.
        dmu -= batch.horizons[k]
        du -= batch.z[k][None, :] / beta
        uz[k] = (u_full @ batch.z[k]).sum()
        uz_beta[k] = (u_full @ batch.z_beta[k]).sum()

    # Active entities get their log-intensity mass and event terms back,
    # one (sequence, entity) slot at a time, added in the same order.
    rank = np.empty(batch.num_seqs, dtype=np.int64)
    rank[order] = np.arange(batch.num_seqs)
    sl = np.argsort(rank[batch.slot_seq], kind="stable")
    act = batch.slot_entity[sl]
    q, r = batch.q[sl][:, None], batch.r_over_lam[sl][:, None]
    u_act, v_act = batch.u_slot[sl], batch.v_slot[sl]
    np.add.at(dmu, act, batch.inv_lam[sl])
    np.add.at(dself, act, (r - q / beta)[:, 0])
    np.add.at(du, act, batch.s_over_lam[sl] - v_act * r + v_act * q / beta)
    np.add.at(dv, act, batch.p_rev[sl] - u_act * r - (u_sum[None, :] - u_act) * q / beta)
    cq = np.bincount(batch.slot_seq, weights=batch.c_slot * batch.q, minlength=batch.num_seqs)
    cq_beta = np.bincount(batch.slot_seq, weights=batch.c_slot * batch.q_beta, minlength=batch.num_seqs)

    dbeta = math.fsum((batch.beta_log + (uz + cq) / beta**2 - (uz_beta + cq_beta) / beta).tolist())
    return GradientBuffer(
        d_theta_mu=dmu * softplus_grad(params.theta_mu),
        d_theta_beta=float(dbeta * softplus_grad(params.theta_beta)),
        d_theta_self=dself * softplus_grad(params.theta_self),
        d_theta_u=du * softplus_grad(params.theta_u),
        d_theta_v=dv * softplus_grad(params.theta_v),
    )
