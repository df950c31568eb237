"""Sparse evaluation engine: cost scales with active entities, not the universe.

Most entities never appear in a given sequence, yet each one owes compensator
mass there.  That mass only enters through two global sums: the total
receiving embedding and the decay-weighted emitting totals across sequences.
Precomputing those (plus a per-entity share of the horizons where an entity
is absent) removes every per-inactive-entity term from the likelihood and
gradient, which is what makes training on huge entity universes feasible.

One gradient formula (``_slot_gradients``) serves every caller: the full
pass scatters its per-slot rows by entity and adds the never-active terms;
a training step uses its one sequence's rows as they are.  The rows are in
the parameter block's ``[u | v | mu | self]`` layout, and every activation
(and its derivative) is computed once per (sequence, entity) slot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dense import GradientBuffer
from .model import Dataset, ModelParams, NumericalDivergenceError, Sequence, softplus, softplus_grad
from .scan import BatchStats, batch_sequence_stats

__all__ = [
    "StaleCacheError",
    "LazyCaches",
    "SequenceGradient",
    "build_caches",
    "lazy_log_likelihood",
    "lazy_sequence_gradients",
    "accumulate_lazy_gradient",
    "update_u_hat",
]


class StaleCacheError(RuntimeError):
    """Caches were built under different parameters than the ones supplied."""


@dataclass
class LazyCaches:
    """Precomputed aggregates the sparse engine leans on.

    u_hat : (d,) sum of receiving embeddings over all entities
    z_hat : (d,) decay-weighted emitting totals summed over all sequences
    d_const : (n,) per-entity inactive-horizon share, zero for entities with
        no events anywhere; the likelihood and the background-rate gradient
        both consume it
    total_horizon : summed observation windows
    never_active : entity ids absent from every sequence; their compensator
        mass cannot ride on the per-active terms and is added globally
    built_from : defensive copy of the parameters the caches were built from
    """

    u_hat: np.ndarray
    z_hat: np.ndarray
    d_const: np.ndarray
    total_horizon: float
    never_active: np.ndarray
    built_from: ModelParams

    def check(self, params: ModelParams):
        ref = self.built_from
        if ref.theta_beta != params.theta_beta or not np.array_equal(ref.theta, params.theta):
            raise StaleCacheError(
                "caches were built from different parameter values; rebuild them "
                "or pass check_caches=False if the drift is intentional"
            )


@dataclass
class SequenceGradient:
    """Gradient contribution of a single sequence, touching only its entities."""

    entities: np.ndarray        # (a,) sorted entity ids
    d_theta_mu: np.ndarray      # (a,)
    d_theta_self: np.ndarray    # (a,)
    d_theta_u: np.ndarray       # (a, d)
    d_theta_v: np.ndarray       # (a, d)
    d_theta_beta: float


def build_caches(params: ModelParams, data: Dataset) -> LazyCaches:
    """One full pass over parameters and data; linear in both."""
    beta = params.beta()
    u_hat = params.factors_u().sum(axis=0)
    z_hat = np.zeros(params.dim)
    active_horizon = np.zeros(data.num_entities)
    all_horizons, nonempty, _, _, _ = data.flat_events()
    if nonempty.size:
        n = data.num_entities
        w = -np.expm1(-beta * data.event_frame()[1])
        # Emitting embeddings are activated once per (sequence, entity) slot,
        # against the slot's summed tail weights; each slot also contributes
        # its sequence's horizon to the entity's active-time total.
        slot_of, slot_seq, slot_entity, _, _ = data.slot_tables()
        z_hat = np.bincount(slot_of, weights=w, minlength=len(slot_entity)) @ softplus(
            params.theta_v[slot_entity]
        )
        active_horizon = np.bincount(
            slot_entity, weights=all_horizons[slot_seq], minlength=n
        )
    total_horizon = data.total_horizon
    activity = data.activity_count
    d_const = np.zeros(data.num_entities)
    np.divide(
        total_horizon - active_horizon,
        activity,
        out=d_const,
        where=activity > 0,
    )
    return LazyCaches(
        u_hat=u_hat,
        z_hat=z_hat,
        d_const=d_const,
        total_horizon=float(total_horizon),
        never_active=data.never_active(),
        built_from=params.copy(),
    )


def lazy_log_likelihood(
    params: ModelParams,
    data: Dataset,
    caches: LazyCaches,
    check_caches: bool = True,
) -> float:
    """Exact log-likelihood in per-active-entity form.

    Equal to the dense engine's value to floating-point noise; the per-entity
    terms only run over entities active in each sequence, with the absent
    entities' mass folded in through the cached aggregates.
    """
    if check_caches:
        caches.check(params)
    u_hat = caches.u_hat
    bs = batch_sequence_stats(params, data)
    beta = bs.beta
    ns = bs.num_seqs
    n_active = bs.active_counts
    # Per-slot pieces of the active-entity compensator, reduced per sequence.
    z_rows = bs.z[bs.slot_seq]
    own_slot = bs.mu_slot * bs.horizons[bs.slot_seq] + (
        np.einsum("ij,ij->i", bs.u_slot, z_rows) + bs.c_slot * bs.q
    ) / beta
    own_seq = np.bincount(bs.slot_seq, weights=own_slot, minlength=ns)
    # Shared term: each active entity carries an equal share of the global
    # receiving total against this sequence's decayed emitting sum.
    u_dot_z = np.bincount(
        bs.slot_seq, weights=np.einsum("ij,ij->i", bs.u_slot, z_rows), minlength=ns
    )
    uhat_z = bs.z @ u_hat
    absent_seq = np.bincount(
        bs.slot_seq,
        weights=bs.mu_slot * caches.d_const[bs.slot_entity],
        minlength=ns,
    )
    seq_vals = bs.loglam - own_seq - (uhat_z - u_dot_z) / beta - absent_seq
    terms = seq_vals[n_active > 0].tolist()
    never = caches.never_active
    if len(never):
        terms.append(-caches.total_horizon * float(softplus(params.theta_mu[never]).sum()))
    total = math.fsum(terms)
    if not math.isfinite(total):
        raise NumericalDivergenceError(f"log-likelihood is not finite: {total!r}")
    return total


def _slot_gradients(
    params: ModelParams, bs: BatchStats, caches: LazyCaches, activity: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Raw-parameter gradient rows ``[u | v | mu | self]`` per slot of ``bs``,
    and the (ns,) decay terms per sequence, without never-active corrections.

    ``activity`` is the dataset-wide count of sequences per entity.
    """
    beta = bs.beta
    u_hat = caches.u_hat
    ent = bs.slot_entity
    # Emitting and receiving embeddings share the structure "event sums
    # minus the slot's share of the compensator"; the sequence-local
    # emitting total cancels between the own-pair and shared terms,
    # leaving the self-rate correction and one global outer product each.
    # Each block is computed in place in its columns of ``rows``, and the
    # whole row block is then scaled by the activation's derivative at once.
    d = params.dim
    rows = np.empty((len(ent), 2 * d + 2))
    g_self = np.subtract(bs.r_over_lam, bs.q / beta, out=rows[:, 2 * d + 1])
    g_u = np.subtract(bs.s_over_lam, bs.v_slot * g_self[:, None], out=rows[:, :d])
    g_u -= (1.0 / (beta * activity[ent]))[:, None] * caches.z_hat
    g_v = np.subtract(bs.p_rev, bs.u_slot * g_self[:, None], out=rows[:, d:2 * d])
    g_v -= (bs.q / beta)[:, None] * u_hat
    g_mu = np.subtract(bs.inv_lam, bs.horizons[bs.slot_seq], out=rows[:, 2 * d])
    g_mu -= caches.d_const[ent]
    rows *= softplus_grad(params.theta[ent])
    ns = bs.num_seqs
    uz = bs.z @ u_hat
    uz_beta = bs.z_beta @ u_hat
    cq = np.bincount(bs.slot_seq, weights=bs.c_slot * bs.q, minlength=ns)
    cq_beta = np.bincount(bs.slot_seq, weights=bs.c_slot * bs.q_beta, minlength=ns)
    g_beta = bs.beta_log + (uz + cq) / beta**2 - (uz_beta + cq_beta) / beta
    return rows, g_beta * softplus_grad(params.theta_beta)


def lazy_sequence_gradients(
    params: ModelParams,
    seq: Sequence,
    caches: LazyCaches,
    data: Dataset,
    check_caches: bool = False,
) -> SequenceGradient:
    """Gradient contribution of one sequence, sparse over its active entities.

    The returned block rows line up with ``entities``.  Summed over all
    sequences (plus the closed-form corrections for never-active entities,
    see :func:`accumulate_lazy_gradient`) this reproduces the dense gradient.
    The cached ``z_hat`` is consumed in per-active-sequence shares, so during
    training it may deliberately lag the parameters by one epoch.
    """
    if check_caches:
        caches.check(params)
    bs = batch_sequence_stats(params, [seq], gradients=True)
    rows, g_beta = _slot_gradients(params, bs, caches, data.activity_count)
    d = params.dim
    return SequenceGradient(
        entities=bs.slot_entity,
        d_theta_mu=rows[:, 2 * d],
        d_theta_self=rows[:, 2 * d + 1],
        d_theta_u=rows[:, :d],
        d_theta_v=rows[:, d:2 * d],
        d_theta_beta=float(g_beta[0]),
    )


def accumulate_lazy_gradient(
    params: ModelParams,
    data: Dataset,
    caches: LazyCaches,
    check_caches: bool = True,
) -> GradientBuffer:
    """Full-dataset gradient assembled from per-sequence sparse pieces.

    Entities active nowhere still owe a background-rate term over every
    horizon and a receiving-embedding term against the global decayed totals;
    both are closed-form and added here.
    """
    if check_caches:
        caches.check(params)
    bs = batch_sequence_stats(params, data, gradients=True)
    rows, g_beta = _slot_gradients(params, bs, caches, data.activity_count)
    d = params.dim
    buf = GradientBuffer.zeros(params.num_entities, d)
    ent = bs.slot_entity
    if len(ent):
        # Group the slot rows by entity once and scatter the per-entity sums;
        # entities touched nowhere in the batch are simply never written.
        order_e = np.argsort(ent, kind="stable")
        ent_sorted = ent[order_e]
        starts = np.flatnonzero(np.r_[True, ent_sorted[1:] != ent_sorted[:-1]])
        sums = np.add.reduceat(rows[order_e], starts, axis=0)
        uniq = ent_sorted[starts]
        buf.d_theta_u[uniq] += sums[:, :d]
        buf.d_theta_v[uniq] += sums[:, d:2 * d]
        buf.d_theta_mu[uniq] += sums[:, 2 * d]
        buf.d_theta_self[uniq] += sums[:, 2 * d + 1]

    never = caches.never_active
    if len(never):
        buf.d_theta_mu[never] = -caches.total_horizon * softplus_grad(params.theta_mu[never])
        buf.d_theta_u[never] = (
            -(caches.z_hat[None, :] / bs.beta) * softplus_grad(params.theta_u[never])
        )
    buf.d_theta_beta = math.fsum(g_beta.tolist())
    return buf


def update_u_hat(caches: LazyCaches, entities, theta_u_old: np.ndarray, theta_u_new: np.ndarray):
    """Constant-time-per-row refresh of the receiving-embedding total after
    the rows of ``entities`` (one id with (d,) rows, or ids with (a, d)) moved."""
    delta = softplus(theta_u_new) - softplus(theta_u_old)
    caches.u_hat += delta.reshape(-1, len(caches.u_hat)).sum(axis=0)
