"""Sparse evaluation engine: cost scales with active entities, not the universe.

Most entities never appear in a given sequence, yet each one owes compensator
mass there.  That mass only enters through two global sums, the total
receiving embedding ``u_hat`` (the parameters' alone, and all that
:class:`LazyCaches` hold) and the decay-weighted emitting totals ``z_hat``
(the data's too, summed by the gradient from its own data with ``_z_hat``,
whose per-event weights are freed before the pass's blocks exist), and
through per-entity data-only terms (each entity's share of the horizons
where it is absent, and the entities active nowhere) that the
:class:`~.model.Dataset` computes once.  Together they remove every per-inactive-entity term from the
likelihood and gradient, which is what makes training on huge entity
universes feasible.  Held-out scoring and training pass the cores their sums
as plain arrays, not caches.

One gradient formula, ``_range_gradient`` over the scan of a range of whole
sequences, serves every caller: a training step runs it on its one sequence
and uses the slot rows as they are; the full pass runs it on each range,
scatters the rows by entity and adds the never-active terms.  The rows are
in the parameter block's ``[u | v | mu | self]`` layout, and every
activation (and its derivative) is computed once per (sequence, entity) slot.

The full passes (``lazy_log_likelihood`` and ``accumulate_lazy_gradient``)
scan consecutive ranges of whole sequences holding at most ``_CHUNK_EVENTS``
(2^11) events each; a longer sequence is a range of its own.  A pass's
working memory is therefore one range's scan plus what it keeps for the
whole dataset: one number per sequence, the gradient's ``(S, 2d + 2)`` block
of slot rows and its ``(n, 2d + 2)`` output, into which the never-active
terms are written in blocks of at most ``_CHUNK_EVENTS`` rows.  Each
range's per-slot and per-sequence results are bit-identical to the same
sequences' part of one whole-dataset scan, and every product with ``u_hat``
is taken row by row (``einsum``, not a BLAS matrix product, which rounds a
row by its position in the block), so results do not depend on where the
ranges are cut: a training step's gradient is, bit for bit, its sequence's
part of the full pass.

Each pass owns one :class:`~.scan.Workspace`, sized by ``_workspace`` to its
largest range, for the call only.  Every range's scan and ``_range_gradient``
write their blocks into it, so after the first range a pass touches no fresh
page for its scratch; the gradient's activation derivative is taken in place
on the raw rows the scan gathered.  The range bound keeps the workspace
small (a gradient pass over short sequences holds five blocks of about
0.7 MB at d = 20), so it stays cache-resident and the next call gets its
pages back from the allocator instead of faulting in a near-whole-dataset
workspace afresh.  Training shares one workspace between an epoch's banded
steps and its report (see :mod:`.train`).  The per-entity grouping of the
slot rows copies entities with one slot and sums only the others
(``scan._group_sums``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dense import GradientBuffer
from .model import Dataset, ModelParams, NumericalDivergenceError, softplus, softplus_grad
from .scan import BatchStats, Workspace, _fresh, _group_sums, batch_sequence_stats

__all__ = [
    "StaleCacheError",
    "LazyCaches",
    "build_caches",
    "lazy_log_likelihood",
    "accumulate_lazy_gradient",
]

# Events per range of a full pass (see the module docstring).  Of 2^10 to
# 2^13 (see CHANGES.md), 2^10 and 2^11 measured fastest on short sequences,
# and 2^11 cuts half as many ranges: a gradient range's five workspace blocks
# (about 3.5 MB at d = 20) stay cache-resident, and a call does not fault in
# afresh a workspace the size of a 10,000-event dataset's, as 2^13 did.
_CHUNK_EVENTS = 2**11


class StaleCacheError(RuntimeError):
    """Caches were built under different parameters than the ones supplied."""


@dataclass
class LazyCaches:
    """The parameter sum the sparse engine leans on; caches that pass
    ``check`` serve any dataset over the same entities.

    u_hat : (d,) sum of receiving embeddings over all entities
    built_from : defensive copy of the parameters the caches were built from
    """

    u_hat: np.ndarray
    built_from: ModelParams

    def check(self, params: ModelParams):
        ref = self.built_from
        if ref.theta_beta != params.theta_beta or not np.array_equal(ref.theta, params.theta):
            raise StaleCacheError(
                "caches were built from different parameter values; rebuild them "
                "with build_caches"
            )


def build_caches(params: ModelParams, data: Dataset) -> LazyCaches:
    """Caches of ``params`` for passes over ``data`` or any dataset with its entities."""
    _check_entities(params, data)
    return LazyCaches(u_hat=params.factors_u().sum(axis=0), built_from=params.copy())


def _z_hat(params: ModelParams, data: Dataset) -> np.ndarray:
    """The decay-weighted emitting totals summed over the sequences of ``data``, (d,)."""
    # Emitting embeddings are activated once per (sequence, entity) slot,
    # against the slot's summed tail weights.
    w = -np.expm1(-params.beta() * data.event_frame()[1])
    slot_of, _, slot_entity, _, _, _ = data.slot_tables()
    return np.bincount(slot_of, weights=w, minlength=len(slot_entity)) @ softplus(
        params.theta_v[slot_entity]
    )


def _chunks(data: Dataset) -> list[tuple[int, int]]:
    """Consecutive ranges ``(k0, k1)`` of whole sequences covering ``data``,
    each holding at most ``_CHUNK_EVENTS`` events unless it is one longer
    sequence; one empty range for a dataset without sequences."""
    offsets, ns = data.offsets, len(data)
    cuts = [0]
    while cuts[-1] < ns:
        k0 = cuts[-1]
        k1 = int(np.searchsorted(offsets, offsets[k0] + _CHUNK_EVENTS, side="right")) - 1
        cuts.append(max(k1, k0 + 1))
    return list(zip(cuts, cuts[1:])) or [(0, 0)]


def _workspace(data: Dataset, ranges: list[tuple[int, int]], dim: int) -> Workspace:
    """A workspace for one call that scans ``ranges`` of ``data``: room for
    the largest range's events, each as wide as a gradient scan's row."""
    offsets = data.offsets
    return Workspace(max(int(offsets[k1] - offsets[k0]) for k0, k1 in ranges), 2 * dim + 3)


def _check_entities(params: ModelParams, data: Dataset):
    """Refuse parameters with other than one row per entity of ``data``."""
    if params.num_entities != data.num_entities:
        raise ValueError(f"parameters cover {params.num_entities} entities, "
                         f"data has {data.num_entities}")


def lazy_log_likelihood(params: ModelParams, data: Dataset, caches: LazyCaches) -> float:
    """Exact log-likelihood in per-active-entity form, against ``caches``
    built from ``params``.

    Equal to the dense engine's value to floating-point noise; the per-entity
    terms only run over entities active in each sequence, with the absent
    entities' mass folded in through the receiving total ``u_hat``.
    """
    caches.check(params)
    return _log_likelihood(params, data, caches.u_hat)


def _log_likelihood(params: ModelParams, data: Dataset, u_hat: np.ndarray,
                    ws: Workspace | None = None) -> float:
    """:func:`lazy_log_likelihood` on the receiving total ``u_hat``; the
    ranges' scratch lives in ``ws``, or in one workspace for this call."""
    _check_entities(params, data)
    seq_slot_start = data.slot_tables()[3]
    seq_vals = np.empty(len(data))
    ranges = _chunks(data)
    ws = ws or _workspace(data, ranges, params.dim)
    for k0, k1 in ranges:
        bs = batch_sequence_stats(params, data, subset=(k0, k1), workspace=ws)
        beta, slot_seq = bs.beta, bs.slot_seq
        # Per-slot pieces of the active-entity compensator, reduced per sequence.
        z_slot = np.take(bs.z, slot_seq, axis=0, out=ws("full", (len(slot_seq), params.dim)),
                         mode="clip")
        u_z = np.einsum("ij,ij->i", bs.u_slot, z_slot)
        own_slot = bs.mu_slot * bs.horizons[slot_seq] + (u_z + bs.c_slot * bs.q) / beta
        absent = bs.mu_slot * data.absent_share[bs.slot_entity]
        own_seq, u_dot_z, absent_seq = (np.bincount(slot_seq, weights=w, minlength=k1 - k0)
                                        for w in (own_slot, u_z, absent))
        # Shared term: each active entity carries an equal share of the global
        # receiving total against its sequence's decayed emitting sum.
        shared = np.einsum("ij,j->i", bs.z, u_hat) - u_dot_z
        seq_vals[k0:k1] = bs.loglam - own_seq - shared / beta - absent_seq
    del bs, ws
    terms = seq_vals[np.diff(seq_slot_start) > 0].tolist()
    never = data.never_active()
    if len(never):
        terms.append(-data.total_horizon * float(softplus(params.theta_mu[never]).sum()))
    total = math.fsum(terms)
    if not math.isfinite(total):
        raise NumericalDivergenceError(f"log-likelihood is not finite: {total!r}")
    return total


def _range_gradient(params: ModelParams, bs: BatchStats, u_hat: np.ndarray, z_hat: np.ndarray,
                    data: Dataset, out=None, ws=_fresh) -> tuple[np.ndarray, np.ndarray]:
    """The gradient of the sequences that ``bs``, a ``gradients=True`` scan of
    ``data``, covers, against the receiving total ``u_hat`` and the emitting
    total ``z_hat``.

    Returns the raw-parameter rows ``[u | v | mu | self]`` per slot, without
    never-active corrections and written into ``out`` if given, and the raw
    decay term per sequence.  Scratch comes from the scan's workspace ``ws``,
    and the activation derivative is taken in place on ``bs.theta_slot``.
    """
    beta = bs.beta
    ent = bs.slot_entity
    # Emitting and receiving embeddings share the structure "event sums
    # minus the slot's share of the compensator"; the sequence-local
    # emitting total cancels between the own-pair and shared terms,
    # leaving the self-rate correction and one global outer product each.
    # Each block is computed in place in its columns of ``rows``, and the
    # whole row block is then scaled by the activation's derivative at once,
    # at the raw rows the scan read.
    d = params.dim
    q_beta = bs.q / beta
    rows = np.empty((len(ent), 2 * d + 2)) if out is None else out
    tmp = ws("full", (len(ent), d))
    g_self = np.subtract(bs.r_over_lam, q_beta, out=rows[:, 2 * d + 1])
    g_u = np.subtract(bs.s_over_lam, np.multiply(bs.v_slot, g_self[:, None], out=tmp),
                      out=rows[:, :d])
    g_u -= np.multiply((1.0 / (beta * data.activity_count[ent]))[:, None], z_hat, out=tmp)
    g_v = np.subtract(bs.p_rev, np.multiply(bs.u_slot, g_self[:, None], out=tmp),
                      out=rows[:, d:2 * d])
    g_v -= np.multiply(q_beta[:, None], u_hat, out=tmp)
    g_mu = np.subtract(bs.inv_lam, bs.horizons[bs.slot_seq], out=rows[:, 2 * d])
    g_mu -= data.absent_share[ent]
    rows *= softplus_grad(bs.theta_slot, out=bs.theta_slot)

    cq, cq_beta = (np.bincount(bs.slot_seq, weights=bs.c_slot * w, minlength=bs.num_seqs)
                   for w in (bs.q, bs.q_beta))
    g_beta = (bs.beta_log + (np.einsum("ij,j->i", bs.z, u_hat) + cq) / beta**2
              - (np.einsum("ij,j->i", bs.z_beta, u_hat) + cq_beta) / beta)
    return rows, g_beta * params.beta_grad()


def accumulate_lazy_gradient(params: ModelParams, data: Dataset,
                             caches: LazyCaches) -> GradientBuffer:
    """Full-dataset gradient assembled from per-sequence sparse pieces.

    Entities active nowhere still owe a background-rate term over every
    horizon and a receiving-embedding term against the global decayed totals;
    both are closed-form and added here.
    """
    caches.check(params)
    return _gradient(params, data, caches.u_hat)


def _gradient(params: ModelParams, data: Dataset, u_hat: np.ndarray) -> GradientBuffer:
    """:func:`accumulate_lazy_gradient` on the receiving total ``u_hat``; the
    emitting total is summed from ``data`` before the pass's blocks exist."""
    _check_entities(params, data)
    z_hat = _z_hat(params, data)
    d = params.dim
    _, _, uniq, seq_slot_start, _, _ = data.slot_tables()
    # The pass's slot rows in slot order, and its decay term per sequence.
    rows = np.empty((len(uniq), 2 * d + 2))
    g_beta = np.empty(len(data))
    ranges = _chunks(data)
    ws = _workspace(data, ranges, d)
    for k0, k1 in ranges:
        bs = batch_sequence_stats(params, data, gradients=True, subset=(k0, k1), workspace=ws)
        s0, s1 = seq_slot_start[k0], seq_slot_start[k1]
        g_beta[k0:k1] = _range_gradient(params, bs, u_hat, z_hat, data, rows[s0:s1], ws)[1]
    beta, sums = bs.beta, rows
    del bs, ws  # free the last scan and the workspace before the grouping
    if len(uniq):
        # One grouped sum of the slot rows per entity; the others stay zero.
        order_e = np.argsort(uniq, kind="stable")
        ent_sorted = uniq[order_e]
        starts = np.flatnonzero(np.r_[True, ent_sorted[1:] != ent_sorted[:-1]])
        uniq = ent_sorted[starts]
        sums = _group_sums(rows, order_e, np.diff(starts, append=len(ent_sorted)),
                           np.empty((len(uniq), 2 * d + 2)))
    del rows  # free the slot rows before the (n, 2d + 2) block
    buf = GradientBuffer(np.zeros(params.theta.shape), math.fsum(g_beta.tolist()), d)
    buf.d_theta[uniq] = sums

    # The never-active terms are elementwise: blocks of at most
    # ``_CHUNK_EVENTS`` rows, so no O(entities) gather is made.
    never = data.never_active()
    scale = -(z_hat / beta)
    for i in range(0, len(never), _CHUNK_EVENTS):
        block = never[i:i + _CHUNK_EVENTS]
        buf.d_theta_mu[block] = -data.total_horizon * softplus_grad(params.theta_mu[block])
        g_u = params.theta_u[block]  # activated and scaled in place
        softplus_grad(g_u, out=g_u)
        g_u *= scale
        buf.d_theta_u[block] = g_u
    return buf


def update_u_hat(u_hat: np.ndarray, entities, theta_u_old: np.ndarray, theta_u_new: np.ndarray):
    """Constant-time-per-row refresh, in place, of the receiving total ``u_hat``
    after the rows of ``entities`` (one id with (d,) rows, or ids with (a, d)) moved."""
    act = softplus(np.concatenate((theta_u_old, theta_u_new))).reshape(2, -1, len(u_hat))
    u_hat += (act[1] - act[0]).sum(axis=0)
