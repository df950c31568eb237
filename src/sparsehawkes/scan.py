"""One-pass per-sequence statistics consumed by both evaluation engines.

Everything an engine needs from a sequence reduces to a handful of sums over
its events: log-intensities, decayed emitting-embedding totals, and (for
gradients) a few per-active-entity accumulators plus a reverse-direction
scan.  Computing them in a single place keeps the two engines honest about
operating on identical per-event quantities while they differ in how they
charge the inactive entities.

Two implementations live here.  ``sequence_stats_reference`` walks events one
by one through :class:`~.model.SequenceScan` and is kept as the slow,
obviously-correct formulation.  ``batch_sequence_stats`` computes the same
sums with array prefix scans on a :class:`~.model.Dataset`'s cached flat
layout and per-event frame, the one place a layout is built; the engines
scan all sequences and a training step slices out its one sequence.  A scan
gathers its slots' raw parameter rows once, activates them with one softplus
and checks the decay rate once, for every consumer of its result.  The
decayed sums are linear recurrences whose closed form is a prefix sum of
``exp(beta*t_j) * value_j`` rescaled by ``exp(-beta*t_i)``; raw exponentials
of the phase ``beta*t`` overflow once it passes ~709, so the phase axis of
every sequence is cut into fixed-width bands.  Within a band the stored
exponentials stay bounded and, because events are time-ordered, every
prefix term is no larger than the rescaling factor that multiplies it,
which keeps the summation well conditioned.
Across bands only a per-band carry survives, propagated with step factors of
``exp(-width)`` per band so the huge and tiny scales cancel in pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    Dataset,
    ModelParams,
    NumericalDivergenceError,
    Sequence,
    SequenceScan,
    checked_beta,
    softplus,
)

__all__ = [
    "SequenceStats",
    "BatchStats",
    "sequence_stats",
    "batch_sequence_stats",
    "sequence_stats_reference",
]

# Width of one phase band.  exp(350) ~ 1e152: two such factors still fit in a
# double, so products of one stored exponential with one carry never overflow.
_BAND_WIDTH = 350.0

# Bands at most this long are scanned together in one padded cumsum; longer
# ones get an individual pass.  Keeps the padded scratch array small while
# bounding the per-band Python overhead to the rare long bands.
_PAD_CAP = 16


@dataclass
class SequenceStats:
    """Per-sequence sums, all indexed by local position in ``active``.

    ``z`` is the decay-weighted sum of emitting embeddings over the events,
    the quantity that carries a sequence's compensator mass; ``q`` is its
    per-entity scalar analogue for the diagonal correction.  The ``*_beta``
    fields hold derivatives of the same sums with respect to the decay
    parameter and are only filled when gradients were requested, as are the
    per-entity log-domain accumulators.
    """

    active: np.ndarray          # (a,) sorted distinct entities
    mu_act: np.ndarray          # (a,) background rates of active entities
    u_act: np.ndarray           # (a, d) receiving embeddings
    v_act: np.ndarray           # (a, d) emitting embeddings
    c_act: np.ndarray           # (a,) diagonal correction s_x - u_x.v_x
    counts: np.ndarray          # (a,) events per active entity
    loglam: float               # sum of log-intensities at the events
    z: np.ndarray               # (d,)
    q: np.ndarray               # (a,)
    inv_lam: np.ndarray | None = None      # (a,) sum of 1/lambda at own events
    r_over_lam: np.ndarray | None = None   # (a,) sum of R/lambda
    s_over_lam: np.ndarray | None = None   # (a, d) sum of S/lambda
    p_rev: np.ndarray | None = None        # (a, d) reverse-scan totals
    beta_log: float = 0.0                  # d/dbeta of the log-intensity sum
    z_beta: np.ndarray | None = None       # (d,) d/dbeta companion of z*beta form
    q_beta: np.ndarray | None = None       # (a,)


def _empty_stats(d: int, gradients: bool) -> SequenceStats:
    empty = np.empty(0, dtype=np.int64)
    zeros_a = np.zeros(0)
    return SequenceStats(
        active=empty,
        mu_act=zeros_a,
        u_act=np.zeros((0, d)),
        v_act=np.zeros((0, d)),
        c_act=zeros_a,
        counts=empty.copy(),
        loglam=0.0,
        z=np.zeros(d),
        q=zeros_a,
        inv_lam=zeros_a if gradients else None,
        r_over_lam=zeros_a.copy() if gradients else None,
        s_over_lam=np.zeros((0, d)) if gradients else None,
        p_rev=np.zeros((0, d)) if gradients else None,
        beta_log=0.0,
        z_beta=np.zeros(d) if gradients else None,
        q_beta=zeros_a.copy() if gradients else None,
    )


def sequence_stats_reference(
    params: ModelParams, seq: Sequence, gradients: bool = False
) -> SequenceStats:
    """Event-by-event scan of one sequence under fixed parameters.

    Linear in events times embedding dimension, touching only entities that
    appear in the sequence.  This is the original stepwise formulation; the
    engines use the array implementation, which the test suite checks against
    this one.
    """
    n = len(seq)
    d = params.dim
    if n == 0:
        return _empty_stats(d, gradients)

    active, loc = np.unique(seq.entities, return_inverse=True)
    a = len(active)
    mu_act = softplus(params.theta_mu[active])
    u_act = softplus(params.theta_u[active])
    v_act = softplus(params.theta_v[active])
    s_act = softplus(params.theta_self[active])
    c_act = s_act - np.einsum("ij,ij->i", u_act, v_act)
    beta = params.beta()
    counts = np.bincount(loc, minlength=a).astype(np.int64)

    tail = seq.horizon - seq.times
    w = -np.expm1(-beta * tail)
    v_events = v_act[loc]
    z = w @ v_events
    q = np.bincount(loc, weights=w, minlength=a)

    times = seq.times
    entities = seq.entities
    scan = SequenceScan(params, track_beta=gradients)
    loglams = []
    if gradients:
        lam_arr = np.empty(n)
        inv_lam = np.zeros(a)
        r_over_lam = np.zeros(a)
        s_over_lam = np.zeros((a, d))
        beta_terms = []
    for i in range(n):
        li = loc[i]
        if gradients:
            s_vec, r, s_dbeta, r_dbeta = scan.advance(times[i], entities[i])
        else:
            s_vec, r = scan.advance(times[i], entities[i])
        lam = mu_act[li] + u_act[li] @ s_vec + c_act[li] * r
        if not (lam > 0.0) or not math.isfinite(lam):
            raise NumericalDivergenceError(
                f"non-positive intensity {lam!r} at event index {i} (t={times[i]!r})"
            )
        loglams.append(math.log(lam))
        if gradients:
            lam_arr[i] = lam
            inv_lam[li] += 1.0 / lam
            r_over_lam[li] += r / lam
            s_over_lam[li] += s_vec / lam
            beta_terms.append((u_act[li] @ s_dbeta + c_act[li] * r_dbeta) / lam)

    loglam = math.fsum(loglams)
    if not gradients:
        return SequenceStats(
            active=active, mu_act=mu_act, u_act=u_act, v_act=v_act, c_act=c_act,
            counts=counts, loglam=loglam, z=z, q=q,
        )

    # Reverse scan: for each event j, the decayed sum over later events i of
    # u_{y_i}/lambda_i, which is the coefficient v_{y_j} receives from all
    # log-intensity terms it feeds into.
    p_rev = np.zeros((a, d))
    p = np.zeros(d)
    for j in range(n - 1, -1, -1):
        if j < n - 1:
            decay = math.exp(-beta * (times[j + 1] - times[j]))
            p = decay * (p + u_act[loc[j + 1]] / lam_arr[j + 1])
        p_rev[loc[j]] += p

    e_tail = tail * np.exp(-beta * tail)
    z_beta = e_tail @ v_events
    q_beta = np.bincount(loc, weights=e_tail, minlength=a)

    return SequenceStats(
        active=active, mu_act=mu_act, u_act=u_act, v_act=v_act, c_act=c_act,
        counts=counts, loglam=loglam, z=z, q=q,
        inv_lam=inv_lam, r_over_lam=r_over_lam, s_over_lam=s_over_lam,
        p_rev=p_rev, beta_log=math.fsum(beta_terms), z_beta=z_beta, q_beta=q_beta,
    )


def _banded_excl_scan(x, band_first, band_len, band_of, pos, reverse=False):
    """Exclusive prefix (or suffix) sums of ``x`` restarted at band starts.

    ``x`` is (m,) or (m, k) with each band occupying a contiguous slice of
    rows.  Returns the per-row exclusive running sum within the row's band
    plus the per-band totals.  Short bands are packed into one padded cumsum;
    long bands are scanned individually.
    """
    nb = len(band_first)
    tail_shape = x.shape[1:]
    width = int(band_len[0]) if nb else 0
    if nb and (band_len == width).all():
        # All bands the same length: the flat rows already form a
        # (bands, width) grid, so no scatter or gather is needed and the
        # partial sums come out in the exact order of the general path.
        grid = x.reshape((nb, width) + tail_shape)
        if reverse:
            grid = grid[:, ::-1]
        cs = grid.cumsum(axis=1)
        totals = cs[:, -1].copy()
        cs -= grid
        if reverse:
            cs = cs[:, ::-1]
        return cs.reshape(x.shape), totals
    out = np.empty_like(x)
    totals = np.zeros((nb,) + tail_shape)
    short = band_len <= _PAD_CAP
    sidx = short.nonzero()[0]
    if sidx.size:
        width = int(band_len[sidx].max())
        row_of = np.full(nb, -1)
        row_of[sidx] = np.arange(sidx.size)
        emask = short[band_of]
        rows = row_of[band_of[emask]]
        p = pos[emask]
        if reverse:
            p = band_len[band_of[emask]] - 1 - p
        pad = np.zeros((sidx.size, width) + tail_shape)
        pad[rows, p] = x[emask]
        cs = pad.cumsum(axis=1)
        out[emask] = cs[rows, p] - x[emask]
        totals[sidx] = cs[:, -1]
    for b in (~short).nonzero()[0]:
        i0 = int(band_first[b])
        sl = slice(i0, i0 + int(band_len[b]))
        xs = x[sl][::-1] if reverse else x[sl]
        cs = xs.cumsum(axis=0)
        totals[b] = cs[-1]
        ex = cs - xs
        out[sl] = ex[::-1] if reverse else ex
    return out, totals


def _chain_carries(first_flags, g, totals, reverse=False):
    """Cross-band carries along chains of consecutive band records.

    Chains are maximal runs marked by ``first_flags``; ``g`` holds each
    band's integer phase index and ``totals`` its summed weights.  Forward
    carries accumulate everything before a band, decayed to the band's start;
    reverse carries accumulate everything after it, decayed so that one more
    factor of ``exp(pos - width)`` lands on the consuming row.  Bands of a
    chain are processed level by level, vectorized across chains.  Returns
    None when every chain is a single band: nothing crosses a band boundary.
    """
    if first_flags.all():
        return None
    ne = len(g)
    carr = np.zeros(totals.shape)
    chain_of = first_flags.cumsum() - 1
    chain_first = first_flags.nonzero()[0]
    rank = np.arange(ne) - chain_first[chain_of]
    gf = g.astype(np.float64)
    expand = (slice(None),) + (None,) * (totals.ndim - 1)
    kmax = int(rank.max())
    if not reverse:
        for k in range(1, kmax + 1):
            idx = (rank == k).nonzero()[0]
            prev = idx - 1
            fac = np.exp((gf[prev] - gf[idx]) * _BAND_WIDTH)
            carr[idx] = fac[expand] * (carr[prev] + totals[prev])
    else:
        last_flags = np.empty(ne, dtype=bool)
        last_flags[:-1] = first_flags[1:]
        last_flags[-1] = True
        dec = math.exp(-_BAND_WIDTH)
        for k in range(kmax - 1, -1, -1):
            idx = ((rank == k) & ~last_flags).nonzero()[0]
            nxt = idx + 1
            fac = np.exp((gf[idx] - gf[nxt] + 1.0) * _BAND_WIDTH)
            carr[idx] = fac[expand] * (totals[nxt] + dec * carr[nxt])
    return carr


@dataclass
class BatchStats:
    """Scan results for a whole dataset, laid out as flat slot tables.

    A slot is one (sequence, active entity) pair; slots are sorted by
    sequence then entity, so ``seq_slot_start`` exposes each sequence's
    block and :meth:`stats` can slice out a :class:`SequenceStats` view.
    Per-sequence arrays are indexed by position in the original sequence
    list, with zero rows for empty sequences.
    """

    dim: int
    num_seqs: int
    gradients: bool
    beta: float                 # decay rate, checked once per scan
    horizons: np.ndarray        # (ns,)
    loglam: np.ndarray          # (ns,)
    z: np.ndarray               # (ns, d)
    slot_seq: np.ndarray        # (S,) owning sequence index
    slot_entity: np.ndarray     # (S,) entity id
    seq_slot_start: np.ndarray  # (ns + 1,)
    counts: np.ndarray          # (S,)
    q: np.ndarray               # (S,)
    mu_slot: np.ndarray         # (S,)
    c_slot: np.ndarray          # (S,)
    u_slot: np.ndarray          # (S, d)
    v_slot: np.ndarray          # (S, d)
    inv_lam: np.ndarray | None = None      # (S,)
    r_over_lam: np.ndarray | None = None   # (S,)
    s_over_lam: np.ndarray | None = None   # (S, d)
    p_rev: np.ndarray | None = None        # (S, d)
    beta_log: np.ndarray | None = None     # (ns,)
    z_beta: np.ndarray | None = None       # (ns, d)
    q_beta: np.ndarray | None = None       # (S,)

    @property
    def active_counts(self) -> np.ndarray:
        """Number of active entities per sequence."""
        return np.diff(self.seq_slot_start)

    def stats(self, k: int) -> SequenceStats:
        """Slice sequence ``k``'s statistics out of the slot tables."""
        o0 = int(self.seq_slot_start[k])
        o1 = int(self.seq_slot_start[k + 1])
        sl = slice(o0, o1)
        g = self.gradients
        return SequenceStats(
            active=self.slot_entity[sl],
            mu_act=self.mu_slot[sl],
            u_act=self.u_slot[sl],
            v_act=self.v_slot[sl],
            c_act=self.c_slot[sl],
            counts=self.counts[sl],
            loglam=float(self.loglam[k]),
            z=self.z[k],
            q=self.q[sl],
            inv_lam=self.inv_lam[sl] if g else None,
            r_over_lam=self.r_over_lam[sl] if g else None,
            s_over_lam=self.s_over_lam[sl] if g else None,
            p_rev=self.p_rev[sl] if g else None,
            beta_log=float(self.beta_log[k]) if g else 0.0,
            z_beta=self.z_beta[k] if g else None,
            q_beta=self.q_beta[sl] if g else None,
        )


def _empty_batch(d: int, beta: float, ns: int, horizons: np.ndarray, gradients: bool) -> BatchStats:
    no_slots = np.empty(0, dtype=np.int64)
    return BatchStats(
        dim=d,
        num_seqs=ns,
        gradients=gradients,
        beta=beta,
        horizons=horizons,
        loglam=np.zeros(ns),
        z=np.zeros((ns, d)),
        slot_seq=no_slots,
        slot_entity=no_slots.copy(),
        seq_slot_start=np.zeros(ns + 1, dtype=np.int64),
        counts=no_slots.copy(),
        q=np.zeros(0),
        mu_slot=np.zeros(0),
        c_slot=np.zeros(0),
        u_slot=np.zeros((0, d)),
        v_slot=np.zeros((0, d)),
        inv_lam=np.zeros(0) if gradients else None,
        r_over_lam=np.zeros(0) if gradients else None,
        s_over_lam=np.zeros((0, d)) if gradients else None,
        p_rev=np.zeros((0, d)) if gradients else None,
        beta_log=np.zeros(ns) if gradients else None,
        z_beta=np.zeros((ns, d)) if gradients else None,
        q_beta=np.zeros(0) if gradients else None,
    )


def batch_sequence_stats(
    params: ModelParams, seqs, gradients: bool = False, subset: tuple[int, int] | None = None
) -> BatchStats:
    """Scan every sequence in one shot using banded prefix sums.

    ``seqs`` is a :class:`~.model.Dataset`, whose cached layout is reused, or
    a list of sequences, which is wrapped in one.  ``subset=(start, stop)``
    scans only those dataset positions, sliced out of the cached layout, with
    results indexed from ``start`` and bit-identical to a full scan's.
    Produces the same per-sequence quantities as the reference scan, with
    work dominated by a fixed number of array passes over the concatenated
    events instead of per-event interpreter steps.
    """
    data = seqs if isinstance(seqs, Dataset) else Dataset(params.num_entities, seqs)
    beta = checked_beta(params)
    horizons, _, _, t, lab = data.flat_events()
    seq_ev, tail, trel = data.event_frame()
    slot_of, slot_seq, slot_entity, seq_slot_start, counts = data.slot_tables()
    offsets = data.event_offsets()
    k0, k1 = (0, len(horizons)) if subset is None else subset
    e0, e1 = offsets[k0], offsets[k1]
    s0, s1 = seq_slot_start[k0], seq_slot_start[k1]
    bounds = offsets[k0:k1 + 1] - e0
    nonempty = (bounds[1:] != bounds[:-1]).nonzero()[0]
    starts = bounds[nonempty]
    horizons = horizons[k0:k1]
    t, lab, seq_ev, tail, trel = t[e0:e1], lab[e0:e1], seq_ev[e0:e1], tail[e0:e1], trel[e0:e1]
    slot_of = slot_of[e0:e1] - s0
    slot_seq = slot_seq[s0:s1] - k0
    slot_entity = slot_entity[s0:s1]
    seq_slot_start = seq_slot_start[k0:k1 + 1] - s0
    counts = counts[s0:s1]
    ns = len(horizons)
    d = params.dim
    m = len(t)
    if m == 0:
        return _empty_batch(d, beta, ns, horizons, gradients)

    # One gather and one activation of the raw rows [u | v | mu | self];
    # the last column then becomes the diagonal correction s - u.v.
    act = softplus(params.theta[slot_entity])
    u_slot, v_slot, mu_slot, c_slot = act[:, :d], act[:, d:2 * d], act[:, 2 * d], act[:, 2 * d + 1]
    c_slot -= np.einsum("ij,ij->i", u_slot, v_slot)
    ev = act[slot_of]
    u_ev, v_ev, mu_ev, c_ev = ev[:, :d], ev[:, d:2 * d], ev[:, 2 * d], ev[:, 2 * d + 1]

    # Compensator tail weights need no banding: their exponents are negative.
    wtail = -np.expm1(-beta * tail)
    z = np.zeros((ns, d))
    z[nonempty] = np.add.reduceat(wtail[:, None] * v_ev, starts, axis=0)
    q = np.bincount(slot_of, weights=wtail, minlength=len(slot_seq))

    # Phase bands: per-sequence elapsed phase cut into fixed-width strips.
    phase = beta * trel
    g_ev = np.floor(phase / _BAND_WIDTH).astype(np.int64)
    psi = phase - g_ev * _BAND_WIDTH
    e_up = np.exp(psi)
    e_dn = np.exp(-psi)

    ev_first = np.zeros(m, dtype=bool)
    ev_first[starts] = True
    new_band = ev_first.copy()
    new_band[1:] |= g_ev[1:] != g_ev[:-1]
    band_of = new_band.cumsum() - 1
    band_first = new_band.nonzero()[0]
    band_len = np.bincount(band_of)
    band_g = g_ev[band_first]
    band_chain_first = np.empty(len(band_first), dtype=bool)
    band_chain_first[0] = True
    band_rows = seq_ev[band_first]
    band_chain_first[1:] = band_rows[1:] != band_rows[:-1]
    pos = np.arange(m) - band_first[band_of]

    # Forward scan of the emitting embeddings (and their time-weighted
    # companions when gradients are on, stacked to share the passes).
    # Each step below writes into one (m, d) or (m, 2d) buffer, so the scan's
    # peak memory stays a few such blocks and fresh pages are rarely touched.
    full = np.empty((m, 2 * d if gradients else d))
    np.multiply(e_up[:, None], v_ev, out=full[:, :d])
    if gradients:
        np.multiply(full[:, :d], trel[:, None], out=full[:, d:])
    full, band_tot = _banded_excl_scan(full, band_first, band_len, band_of, pos)
    carries = _chain_carries(band_chain_first, band_g, band_tot)
    if carries is not None:
        full += carries[band_of]
    full *= e_dn[:, None]
    s_all, s_dbeta = full[:, :d], full[:, d:]
    if gradients:
        s_dbeta -= trel[:, None] * s_all

    # Same-entity scalar scan: regroup events by (band, entity) so each
    # group is contiguous, then scan and route carries along (sequence,
    # entity) chains.  Events whose (sequence, entity) slot holds a single
    # event neither receive nor feed this scan, so only the repeated slots
    # are touched; on sparse data that skips most of the work.
    r_cols = np.zeros((m, 2 if gradients else 1))
    idx_m = (counts[slot_of] >= 2).nonzero()[0]
    mm = idx_m.size
    if mm:
        band_m = band_of[idx_m]
        lab_m = lab[idx_m]
        order2 = idx_m[np.lexsort((lab_m, band_m))]
        band2 = band_of[order2]
        lab2 = lab[order2]
        new_grp = np.empty(mm, dtype=bool)
        new_grp[0] = True
        new_grp[1:] = (band2[1:] != band2[:-1]) | (lab2[1:] != lab2[:-1])
        grp_of2 = new_grp.cumsum() - 1
        grp_first = new_grp.nonzero()[0]
        grp_len = np.diff(np.concatenate([grp_first, [mm]]))
        pos2 = np.arange(mm) - grp_first[grp_of2]
        e_grp = e_up[order2][:, None]
        if gradients:
            e_grp = np.concatenate([e_grp, (e_up * trel)[order2][:, None]], axis=1)
        pref2, grp_tot = _banded_excl_scan(e_grp, grp_first, grp_len, grp_of2, pos2)
        grp_seq = seq_ev[order2[grp_first]]
        grp_lab = lab2[grp_first]
        grp_g = g_ev[order2[grp_first]]
        order_g = np.lexsort((grp_g, grp_lab, grp_seq))
        seq_p = grp_seq[order_g]
        lab_p = grp_lab[order_g]
        chain_first_p = np.empty(len(order_g), dtype=bool)
        chain_first_p[0] = True
        chain_first_p[1:] = (seq_p[1:] != seq_p[:-1]) | (lab_p[1:] != lab_p[:-1])
        carry_p = _chain_carries(chain_first_p, grp_g[order_g], grp_tot[order_g])
        if carry_p is not None:
            grp_carry = np.empty_like(grp_tot)
            grp_carry[order_g] = carry_p
            pref2 += grp_carry[grp_of2]
        r_cols[order2] = e_dn[order2][:, None] * pref2
    r_all = r_cols[:, 0]
    r_dbeta = -trel * r_all + r_cols[:, 1] if gradients else None

    lam = mu_ev + np.einsum("ij,ij->i", u_ev, s_all) + c_ev * r_all
    good = (lam > 0.0) & np.isfinite(lam)
    if not good.all():
        i = int(np.argmin(good))
        k = int(seq_ev[i])
        raise NumericalDivergenceError(
            f"non-positive intensity {float(lam[i])!r} at sequence {k} event index "
            f"{e0 + i - offsets[k]} (t={float(t[i])!r})"
        )
    loglam = np.zeros(ns)
    loglam[nonempty] = np.add.reduceat(np.log(lam), starts)

    if not gradients:
        return BatchStats(
            dim=d, num_seqs=ns, gradients=False, beta=beta, horizons=horizons,
            loglam=loglam, z=z,
            slot_seq=slot_seq, slot_entity=slot_entity,
            seq_slot_start=seq_slot_start, counts=counts, q=q,
            mu_slot=mu_slot, c_slot=c_slot, u_slot=u_slot, v_slot=v_slot,
        )

    inv = 1.0 / lam

    beta_ev = (np.einsum("ij,ij->i", u_ev, s_dbeta) + c_ev * r_dbeta) * inv
    beta_log = np.zeros(ns)
    beta_log[nonempty] = np.add.reduceat(beta_ev, starts)

    e_tail = tail * np.exp(-beta * tail)
    z_beta = np.zeros((ns, d))
    z_beta[nonempty] = np.add.reduceat(e_tail[:, None] * v_ev, starts, axis=0)

    # Reverse scan: decayed sums over later events of u/lambda, delivered to
    # each event's emitting side.
    rev = u_ev * inv[:, None]
    rev *= e_dn[:, None]
    rev, band_tot_rev = _banded_excl_scan(rev, band_first, band_len, band_of, pos, reverse=True)
    rev_carry = _chain_carries(band_chain_first, band_g, band_tot_rev, reverse=True)

    # Per-slot sums of all per-event gradient quantities in one grouped pass:
    # stable sort by slot keeps each slot's events contiguous and in order, so
    # a single reduceat covers both (m, d) blocks and the scalar columns.
    # When no slot holds two events the sums are the rows themselves.
    stacked = np.empty((m, 2 * d + 3))
    np.multiply(s_all, inv[:, None], out=stacked[:, :d])
    p_all = np.multiply(e_up[:, None], rev, out=stacked[:, d:2 * d])
    if rev_carry is not None:
        p_all += np.exp(psi - _BAND_WIDTH)[:, None] * rev_carry[band_of]
    stacked[:, 2 * d] = inv
    np.multiply(r_all, inv, out=stacked[:, 2 * d + 1])
    stacked[:, 2 * d + 2] = e_tail
    if mm:
        order_slot = np.argsort(slot_of, kind="stable")
        sums = np.add.reduceat(stacked[order_slot], counts.cumsum() - counts, axis=0)
    else:
        sums = np.empty_like(stacked)
        sums[slot_of] = stacked
    s_over_lam = sums[:, :d]
    p_rev = sums[:, d:2 * d]
    inv_lam = sums[:, 2 * d]
    r_over_lam = sums[:, 2 * d + 1]
    q_beta = sums[:, 2 * d + 2]

    return BatchStats(
        dim=d, num_seqs=ns, gradients=True, beta=beta, horizons=horizons,
        loglam=loglam, z=z,
        slot_seq=slot_seq, slot_entity=slot_entity,
        seq_slot_start=seq_slot_start, counts=counts, q=q,
        mu_slot=mu_slot, c_slot=c_slot, u_slot=u_slot, v_slot=v_slot,
        inv_lam=inv_lam, r_over_lam=r_over_lam, s_over_lam=s_over_lam,
        p_rev=p_rev, beta_log=beta_log, z_beta=z_beta, q_beta=q_beta,
    )


def sequence_stats(params: ModelParams, seq: Sequence, gradients: bool = False) -> SequenceStats:
    """Scan one sequence under fixed parameters.

    Work is linear in the number of events times the embedding dimension and
    touches only entities that appear in the sequence.
    """
    return batch_sequence_stats(params, [seq], gradients=gradients).stats(0)
