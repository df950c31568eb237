"""One-pass per-sequence statistics consumed by both evaluation engines.

Everything an engine needs from a sequence reduces to a handful of sums over
its events: log-intensities, decayed emitting-embedding totals, and (for
gradients) a few per-active-entity accumulators plus a reverse-direction
scan.  Computing them in a single place keeps the two engines honest about
operating on identical per-event quantities while they differ in how they
charge the inactive entities.

One body, ``_scan``, computes them for a range of a :class:`~.model.Dataset`'s
sequences on its cached slot tables and per-event frame: one gather and
activation of the slots' parameter rows, the decay and intensity checks, and
the per-slot and per-sequence reductions.  Only the decayed sums over earlier
(and later) events come from one of two strategies.  ``_banded_sums`` runs
banded prefix scans for ``batch_sequence_stats``, which the engines run over
all sequences and a training step over one long one (``subset=``).
``_kernel_sums`` multiplies by one sequence's (m, m) decay kernel for
``pairwise_sequence_stats``, which a training step uses on short sequences,
where m squared products cost less than building bands and carries.  The
kernel rounds differently, so ``subset=`` scans stay banded: that keeps them
bit-identical to slices of a full scan.  The tests check the banded scan
against the event-by-event (Ozaki 1979) recursion in ``tests/oracles.py``,
and the kernel against the banded scan.

In the banded scan the decayed sums are linear recurrences whose closed form
is a prefix sum of ``exp(beta*t_j) * value_j`` rescaled by
``exp(-beta*t_i)``; raw exponentials of the phase ``beta*t`` overflow once it
passes ~709, so the phase axis is cut into fixed-width bands.  Within a band
the stored exponentials stay bounded and, because events are time-ordered,
every prefix term is no larger than the rescaling factor that multiplies it,
which keeps the summation well conditioned.  Across bands only a per-band
carry survives, propagated with step factors of ``exp(-width)`` per band so
the huge and tiny scales cancel in pairs.  One forward routine (``_forward``
on a ``_bands`` layout) runs this along chains of time-ordered events: each
sequence for the emitting sums, each slot holding two or more events for the
same-entity sums; the reverse scan reuses the sequences' bands.  The layout
holds the carries' level order (``_levels``: the k-th band of every chain,
longest chains first) and each band's forward and reverse step factors,
computed once for the forward and reverse scans on it, so a level of the
carries (``_chain_carries``) is one multiply-add on slices.  The kernel
needs none of this: its exponents ``-beta*(t_i - t_j)`` are never positive.

Within a band the prefix sums are the additions ``np.cumsum`` makes, in its
order.  Bands of at most ``_PAD_CAP`` events (all of them on short
sequences) are laid out as one grid, or one zero-padded block when their
lengths differ, and summed one slice of the short axis at a time, straight
into the scanned rows: NumPy's cumsum along a short middle axis is several
times slower than the same additions.  Longer bands run cumsum one band at a
time.  Per-slot sums copy the slots that hold one event and run
``np.add.reduceat`` only over the others (``_group_sums``).

A caller that scans several ranges (a full pass over ranges of sequences,
or a training epoch's banded steps and its report) owns one
:class:`Workspace` for the call, sized to its largest range, and passes it
to each scan.  The scan writes its large blocks into it with ``out=``: the
slots' raw and activated rows, the per-event rows, the forward sums, the
gradient columns and their per-slot sums, and the scratch of the scans.  A
block whose value is dead serves the next one, so a gradient range needs
five blocks, and no range after the first touches a fresh page.  The full
passes bound a range to 2^11 events (``lazy._CHUNK_EVENTS``), about 3.5 MB
of gradient workspace at d = 20 on short sequences.  The workspace dies
with the call; nothing is kept on the dataset or in module state, so it
adds nothing to the memory a long-lived process holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .model import Dataset, ModelParams, NumericalDivergenceError, checked_beta, softplus

__all__ = ["BatchStats", "batch_sequence_stats", "pairwise_sequence_stats"]

# Width of one phase band.  exp(350) ~ 1e152: two such factors still fit in a
# double, so products of one stored exponential with one carry never overflow.
_BAND_WIDTH = 350.0

# Bands at most this long are scanned together in one padded block, one
# slice at a time; longer ones get an individual cumsum.  Keeps the padded
# block and the slice loop short while bounding the per-band Python overhead
# to the rare long bands.
_PAD_CAP = 16


class Workspace:
    """Scratch blocks that the ranges of one call reuse.

    ``ws(name, shape)`` returns a C-contiguous view of the block called
    ``name``.  A block is allocated when its name first asks for more than
    it holds, with room for at least ``rows * width`` doubles: the call's
    largest range in events times its widest per-event row, which no
    per-slot or per-event block of that range exceeds, so every range after
    the first writes into pages the call has touched already, and any block
    can hold any one of a range's values.  A name holds one value at a time:
    once a value is dead its block serves the next one (see :func:`_scan`).
    A workspace lives for one call and is dropped with it, never kept on a
    dataset or in module state.
    """

    def __init__(self, rows: int, width: int):
        self.size = rows * width
        self.blocks: dict[str, np.ndarray] = {}

    def __call__(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        size = math.prod(shape)
        block = self.blocks.get(name)
        if block is None or block.size < size:
            block = self.blocks[name] = np.empty(max(size, self.size))
        return block[:size].reshape(shape)


def _fresh(name: str, shape: tuple[int, ...]) -> np.ndarray:
    """A new block per request: the workspace of a call that scans once."""
    return np.empty(shape)


def _excl_sums(grid, reverse=False):
    """Exclusive prefix (or suffix) sums along axis 1 of ``grid``, in place,
    with cumsum's additions in cumsum's order; returns the totals.  A short
    axis is summed slice by slice, because NumPy's cumsum over a short
    middle axis is several times slower than the same additions."""
    if reverse:
        grid = grid[:, ::-1]
    if grid.shape[1] > _PAD_CAP:
        cs = grid.cumsum(axis=1)
        np.subtract(cs, grid, out=grid)
        return cs[:, -1].copy()
    total = grid[:, 0].copy()
    np.subtract(total, grid[:, 0], out=grid[:, 0])
    for j in range(1, grid.shape[1]):
        col = grid[:, j]
        total += col
        np.subtract(total, col, out=col)
    return total


def _banded_excl_scan(x, bands, reverse=False):
    """Exclusive prefix (or suffix) sums of ``x`` restarted at band starts.

    ``x`` is a C-contiguous (m,) or (m, k) array with each band of ``bands``
    occupying a contiguous slice of rows; it is overwritten with each row's
    exclusive running sum within its band, and the per-band totals are
    returned.  Short bands are packed into one padded block; long bands are
    scanned individually.
    """
    band_first, band_len, band_of, pos = bands[:4]
    nb = len(band_first)
    tail_shape = x.shape[1:]
    width = int(band_len[0]) if nb else 0
    if nb and (band_len == width).all():
        # All bands the same length: the flat rows already form a
        # (bands, width) grid, so no scatter or gather is needed and the
        # partial sums come out in the exact order of the general path.
        return _excl_sums(x.reshape((nb, width) + tail_shape), reverse)
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
        totals[sidx] = _excl_sums(pad)
        x[emask] = pad[rows, p]
    for b in (~short).nonzero()[0]:
        i0 = int(band_first[b])
        totals[b] = _excl_sums(x[None, i0:i0 + int(band_len[b])], reverse)[0]
    return totals


def _group_sums(x, order, counts, out, scratch=np.empty):
    """Sums of the rows ``x[order]`` over consecutive groups of ``counts``
    rows, written into ``out``: bit for bit ``np.add.reduceat(x[order],
    starts, axis=0)``.  A group of one row is copied, and only groups of two
    or more go through ``reduceat``, which costs about ten times a copy per
    group.  ``scratch(shape)`` gives the block the rows are gathered into."""
    multi = counts >= 2
    if not multi.any():
        return np.take(x, order, axis=0, out=out, mode="clip")
    sums = out
    if not multi.all():
        single = ~multi
        out[single] = x[order[(counts.cumsum() - counts)[single]]]
        order, counts, sums = order[np.repeat(multi, counts)], counts[multi], None
    rows = np.take(x, order, axis=0, out=scratch((len(order),) + x.shape[1:]), mode="clip")
    sums = np.add.reduceat(rows, counts.cumsum() - counts, axis=0, out=sums)
    if sums is not out:
        out[multi] = sums
    return out


def _levels(first_flags, g):
    """Level layout of the cross-band carries along chains of consecutive
    band records, or None when every chain is a single band: nothing then
    crosses a band boundary.

    Chains are maximal runs marked by ``first_flags``; ``g`` holds each
    band's integer phase index.  Level ``k`` holds the ``k``-th band of every
    chain longer than ``k``, with the chains longest first, so each level's
    chains are a prefix of the level before's.  Returns ``(at, width,
    start, fwd, rev)``: each band's row in level order, each level's width
    and first row, and per row the step factor that decays the previous
    band's carry onto it (forward) and the one that decays the next band's
    (reverse).
    """
    if first_flags.all():
        return None
    nb = len(g)
    chain_first = first_flags.nonzero()[0]
    chain_of = first_flags.cumsum() - 1
    rank = np.arange(nb) - chain_first[chain_of]
    chain_pos = np.empty(len(chain_first), dtype=np.int64)
    longest_first = np.argsort(-np.bincount(chain_of), kind="stable")
    chain_pos[longest_first] = np.arange(len(chain_first))
    width = np.bincount(rank)
    start = width.cumsum() - width
    at = start[rank] + chain_pos[chain_of]
    # Phase steps between consecutive bands of one chain.
    inner = ~first_flags[1:]
    step = (g[:-1] - g[1:]).astype(np.float64)[inner]
    fwd, rev = np.ones(nb), np.ones(nb)
    fwd[at[1:][inner]] = np.exp(step * _BAND_WIDTH)
    rev[at[:-1][inner]] = np.exp((step + 1.0) * _BAND_WIDTH)
    return at, width.tolist(), start.tolist(), fwd, rev


def _chain_carries(levels, totals, reverse=False):
    """Cross-band carries per band, on the ``_levels`` layout of the bands'
    chains, of their summed weights ``totals``.

    Forward carries accumulate everything before a band, decayed to the
    band's start; reverse carries accumulate everything after it, decayed so
    that one more factor of ``exp(pos - width)`` lands on the consuming row.
    A level is one multiply-add of slices in level order: the carries of
    the level before (or after) into the bands of this one.
    """
    at, width, start, fwd, rev = levels
    tot = np.empty(totals.shape)
    tot[at] = totals
    carr = np.zeros(totals.shape)
    if totals.ndim > 1:
        fwd, rev = fwd[:, None], rev[:, None]
    if not reverse:
        for k in range(1, len(width)):
            a, w, p = start[k], width[k], start[k - 1]
            here = carr[a:a + w]
            np.add(carr[p:p + w], tot[p:p + w], out=here)
            here *= fwd[a:a + w]
    else:
        dec = math.exp(-_BAND_WIDTH)
        for k in range(len(width) - 2, -1, -1):
            a, w, n = start[k], width[k + 1], start[k + 1]
            here = carr[a:a + w]
            np.multiply(carr[n:n + w], dec, out=here)
            here += tot[n:n + w]
            here *= rev[a:a + w]
    return carr[at]


def _bands(first, g):
    """Band layout of rows grouped into chains: a band starts wherever
    ``first`` marks a chain start or the phase strip ``g`` changes.

    Returns ``(band_first, band_len, band_of, pos, levels)``: each band's
    first row and length, each row's band and position in it, and the
    ``_levels`` layout of the bands' chains, computed once for every scan
    on these bands.
    """
    new_band = first.copy()
    new_band[1:] |= g[1:] != g[:-1]
    band_of = new_band.cumsum() - 1
    band_first = new_band.nonzero()[0]
    pos = np.arange(len(g)) - band_first[band_of]
    return (band_first, np.bincount(band_of), band_of, pos,
            _levels(first[band_first], g[band_first]))


def _forward(x, bands, e_dn, scratch=np.empty):
    """Decayed sums of ``x`` over the earlier rows of each row's chain, in
    place: the banded exclusive scan, the carries across bands (gathered
    into ``scratch(shape)``), then the ``e_dn`` rescale."""
    band_first, band_len, band_of, pos, levels = bands
    totals = _banded_excl_scan(x, bands)
    if levels is not None:
        carries = _chain_carries(levels, totals)
        x += np.take(carries, band_of, axis=0, out=scratch(x.shape), mode="clip")
    x *= e_dn if x.ndim == 1 else e_dn[:, None]
    return x


def _check_intensity(lam, data, e0):
    """Refuse a non-positive or non-finite intensity; ``lam`` holds the flat
    events of ``data`` from ``e0`` on, and the error names the first bad one."""
    good = (lam > 0.0) & np.isfinite(lam)
    if not good.all():
        i = e0 + int(np.argmin(good))
        k = int(data.event_frame()[0][i])
        raise NumericalDivergenceError(
            f"non-positive intensity {float(lam[i - e0])!r} at sequence {k} event index "
            f"{i - data.offsets[k]} (t={float(data.times[i])!r})"
        )


@dataclass
class BatchStats:
    """Scan results for a whole dataset, laid out as flat slot tables.

    A slot is one (sequence, active entity) pair; slots are sorted by
    sequence then entity, and sequence ``k`` owns slots
    ``seq_slot_start[k]:seq_slot_start[k + 1]``.  Per-sequence arrays are
    indexed by dataset position (from ``start`` for a ``subset=`` scan), with
    zero rows for empty sequences.  Gradient fields are None unless requested.
    """

    num_seqs: int
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
    theta_slot: np.ndarray | None = None   # (S, 2d + 2) raw rows [u | v | mu | self] as read
    inv_lam: np.ndarray | None = None      # (S,)
    r_over_lam: np.ndarray | None = None   # (S,)
    s_over_lam: np.ndarray | None = None   # (S, d)
    p_rev: np.ndarray | None = None        # (S, d)
    beta_log: np.ndarray | None = None     # (ns,)
    z_beta: np.ndarray | None = None       # (ns, d)
    q_beta: np.ndarray | None = None       # (S,)


def _banded_sums(beta, trel, v_ev, bounds, slot_of, counts, by_slot, gradients, ws):
    """Decayed sums by banded prefix scans; see :func:`_scan`."""
    m, d = v_ev.shape
    bounds = bounds - bounds[0]
    nonempty = (bounds[1:] != bounds[:-1]).nonzero()[0]
    starts = bounds[nonempty]

    # Phase bands: per-sequence elapsed phase cut into fixed-width strips,
    # with each sequence one chain.
    phase = beta * trel
    g_ev = np.floor(phase / _BAND_WIDTH).astype(np.int64)
    psi = phase - g_ev * _BAND_WIDTH
    e_up = np.exp(psi)
    e_dn = np.exp(-psi)
    ev_first = np.zeros(m, dtype=bool)
    ev_first[starts] = True
    bands = _bands(ev_first, g_ev)

    # Forward scan of the emitting embeddings (and their time-weighted
    # companions when gradients are on, stacked to share the passes), in
    # place in the "full" block; the "stacked" block, not yet in use, is
    # the scratch of the forward scans.
    scratch = partial(ws, "stacked")
    full = ws("full", (m, 2 * d if gradients else d))
    np.multiply(e_up[:, None], v_ev, out=full[:, :d])
    if gradients:
        np.multiply(full[:, :d], trel[:, None], out=full[:, d:])
    full = _forward(full, bands, e_dn, scratch)
    s_all, s_dbeta = full[:, :d], full[:, d:]
    if gradients:
        s_dbeta -= np.multiply(trel[:, None], s_all, out=scratch((m, d)))

    # Same-entity sums: the same forward scan, with each slot's events (in
    # time order) one chain.  A slot holding a single event neither feeds
    # nor receives these sums, so only repeated slots are scanned; on sparse
    # data that skips most of the work.  Each column is scanned on its own:
    # NumPy runs an op on a column of a two-wide block as one inner loop per
    # row, several times slower than the same op on a flat column.
    r_all, r_t = np.zeros(m), np.zeros(m) if gradients else None
    if by_slot is not None:
        rep = by_slot[np.repeat(counts >= 2, counts)]
        bands_rep = _bands(np.diff(slot_of[rep], prepend=-1) != 0, g_ev[rep])
        dn = e_dn[rep]
        r_all[rep] = _forward(e_up[rep], bands_rep, dn, scratch)
        if gradients:
            r_t[rep] = _forward((e_up * trel)[rep], bands_rep, dn, scratch)
    r_dbeta = -trel * r_all + r_t if gradients else None

    def reverse(u, inv, out):
        # The reverse scan on the forward scan's bands, in place in the
        # "full" block: the forward sums are dead by now.
        band_first, band_len, band_of, pos, levels = bands
        x = np.multiply(u, inv[:, None], out=ws("full", (m, d)))
        x *= e_dn[:, None]
        totals = _banded_excl_scan(x, bands, reverse=True)
        np.multiply(e_up[:, None], x, out=out)
        if levels is not None:
            carries = _chain_carries(levels, totals, reverse=True)
            x = np.take(carries, band_of, axis=0, out=x, mode="clip")
            x *= np.exp(psi - _BAND_WIDTH)[:, None]
            out += x

    def per_seq(w, v=None):
        x = w if v is None else np.multiply(w[:, None], v, out=ws("full", (m, d)))
        out = np.zeros((len(bounds) - 1,) + x.shape[1:])
        out[nonempty] = np.add.reduceat(x, starts, axis=0)
        return out

    return (s_all, s_dbeta, r_all, r_dbeta), reverse, per_seq


def _kernel_sums(beta, trel, v_ev, bounds, slot_of, counts, by_slot, gradients, ws):
    """Decayed sums of one sequence, gradients always on, as products with
    its (m, m) kernel ``K[i, j] = exp(-beta * (t_i - t_j))`` over earlier
    events ``j`` (0 elsewhere): no exponent is positive, so nothing overflows.
    The same-slot sums use ``K`` masked to equal slots, the reverse ``K.T``."""
    # lag[i, j] = t_j - t_i is negative exactly for earlier events j.
    lag = np.subtract.outer(trel, trel).T
    kern = np.exp(np.where(lag < 0.0, lag, -np.inf) * beta)
    kern_dbeta = kern * lag
    if by_slot is None:
        r_all = r_dbeta = np.zeros(len(trel))
    else:
        same = np.equal.outer(slot_of, slot_of)
        r_all = (kern * same).sum(axis=1)
        r_dbeta = (kern_dbeta * same).sum(axis=1)
    return ((kern @ v_ev, kern_dbeta @ v_ev, r_all, r_dbeta),
            lambda u, inv, out: np.matmul(kern.T, u * inv[:, None], out=out),
            lambda w, v=None: np.add.reduce(w, keepdims=True) if v is None else w[None] @ v)


def _scan(params: ModelParams, data: Dataset, k0: int, k1: int, gradients: bool,
          sums, ws=_fresh) -> BatchStats:
    """Statistics of sequences ``k0:k1`` of ``data``; the one place a
    :class:`BatchStats` is built.

    ``sums(beta, trel, v_ev, bounds, slot_of, counts, by_slot, gradients,
    ws)`` forms the decayed sums on the range's events: sequence ``i`` holds
    events ``bounds[i] - bounds[0]`` to ``bounds[i + 1] - bounds[0]``, and
    ``by_slot`` is None when no slot holds two events.  It returns the sums
    over earlier events ``(s_all, s_dbeta, r_all, r_dbeta)`` (of the emitting
    rows and of the same slot's events, with their beta-derivative parts);
    ``reverse(u, inv, out)``, writing the decayed sums of ``u * inv[:, None]``
    over later events into ``out``; and ``per_seq(w, v=None)``, the
    per-sequence sums of ``w`` (times ``v``).  The range's blocks come from
    the workspace ``ws``, so the result's slot arrays are views that the
    next scan on the same workspace overwrites.
    """
    beta = checked_beta(params)
    _, tail, trel = data.event_frame()
    slot_of, slot_seq, slot_entity, seq_slot_start, counts, by_slot = data.slot_tables()
    offsets = data.offsets
    e0, e1 = int(offsets[k0]), int(offsets[k1])
    s0, s1 = int(seq_slot_start[k0]), int(seq_slot_start[k1])
    tail, trel = tail[e0:e1], trel[e0:e1]
    slot_of = slot_of[e0:e1] - s0
    slot_entity, counts = slot_entity[s0:s1], counts[s0:s1]
    d, m, slots = params.dim, e1 - e0, s1 - s0
    by_slot = by_slot[e0:e1] - e0 if slots < m else None

    # One gather and one activation of the raw rows [u | v | mu | self];
    # the last column then becomes the diagonal correction s - u.v.  A
    # gradient scan keeps the raw rows for the activation's derivative; a
    # likelihood scan drops them, so the per-event rows overwrite them.
    # (The gather clips instead of checking each index: the dataset's labels
    # are below its entity count, so only a smaller parameter block needs it.)
    if data.num_entities > params.num_entities and np.any(slot_entity >= params.num_entities):
        raise IndexError(f"the data's entities reach past the parameters' "
                         f"{params.num_entities}")
    raw = np.take(params.theta, slot_entity, axis=0, mode="clip",
                  out=ws("raw" if gradients else "ev", (slots, 2 * d + 2)))
    act = softplus(raw, out=ws("act", (slots, 2 * d + 2)))
    u_slot, v_slot, mu_slot, c_slot = act[:, :d], act[:, d:2 * d], act[:, 2 * d], act[:, 2 * d + 1]
    c_slot -= np.einsum("ij,ij->i", u_slot, v_slot)
    ev = np.take(act, slot_of, axis=0, out=ws("ev", (m, 2 * d + 2)), mode="clip")
    u_ev, v_ev, mu_ev, c_ev = ev[:, :d], ev[:, d:2 * d], ev[:, 2 * d], ev[:, 2 * d + 1]

    # Compensator tail weights need no banding: their exponents are negative.
    tail_phase = -beta * tail
    wtail = -np.expm1(tail_phase)
    # (bincount gives int64 zeros for an empty range, weights or not)
    q = np.bincount(slot_of, weights=wtail, minlength=slots).astype(float, copy=False)
    (s_all, s_dbeta, r_all, r_dbeta), reverse, per_seq = sums(
        beta, trel, v_ev, offsets[k0:k1 + 1], slot_of, counts, by_slot, gradients, ws)

    lam = mu_ev + np.einsum("ij,ij->i", u_ev, s_all) + c_ev * r_all
    _check_intensity(lam, data, e0)
    if gradients:
        # The per-event gradient columns.  The forward sums are dead once the
        # first column is formed, so the reverse scan and the per-sequence
        # products after it run in their block.
        inv = 1.0 / lam
        beta_ev = (np.einsum("ij,ij->i", u_ev, s_dbeta) + c_ev * r_dbeta) * inv
        e_tail = tail * np.exp(tail_phase)
        stacked = ws("stacked", (m, 2 * d + 3))
        np.multiply(s_all, inv[:, None], out=stacked[:, :d])
        reverse(u_ev, inv, stacked[:, d:2 * d])
        stacked[:, 2 * d] = inv
        np.multiply(r_all, inv, out=stacked[:, 2 * d + 1])
        stacked[:, 2 * d + 2] = e_tail
    stats = BatchStats(
        num_seqs=k1 - k0, beta=beta, horizons=data.horizons[k0:k1],
        loglam=per_seq(np.log(lam)), z=per_seq(wtail, v_ev),
        slot_seq=slot_seq[s0:s1] - k0, slot_entity=slot_entity,
        seq_slot_start=seq_slot_start[k0:k1 + 1] - s0, counts=counts, q=q,
        mu_slot=mu_slot, c_slot=c_slot, u_slot=u_slot, v_slot=v_slot,
    )
    if not gradients:
        return stats
    stats.beta_log, stats.z_beta = per_seq(beta_ev), per_seq(e_tail, v_ev)
    # Per-slot sums of the gradient columns over the stable slot order, which
    # keeps each slot's events together and in time order (or, when no slot
    # holds two events, one reordering), in the per-event rows' block: the
    # rows are dead once the per-sequence sums are taken.
    slot_sums = ws("ev", (slots, 2 * d + 3))
    if by_slot is None:
        slot_sums[slot_of] = stacked
    else:
        _group_sums(stacked, by_slot, counts, slot_sums, partial(ws, "full"))
    stats.inv_lam, stats.r_over_lam = slot_sums[:, 2 * d], slot_sums[:, 2 * d + 1]
    stats.s_over_lam, stats.p_rev = slot_sums[:, :d], slot_sums[:, d:2 * d]
    stats.q_beta, stats.theta_slot = slot_sums[:, 2 * d + 2], raw
    return stats


def batch_sequence_stats(params: ModelParams, data: Dataset, gradients: bool = False,
                         subset: tuple[int, int] | None = None,
                         workspace: Workspace | None = None) -> BatchStats:
    """Scan every sequence of ``data`` (or dataset positions ``subset=(start,
    stop)``, with results indexed from ``start``) by banded prefix sums.

    A ``subset=`` scan is sliced out of the dataset's cached layout and is
    bit-identical to the same sequences' part of a full scan.  Produces the
    quantities of the event-by-event recursion, with work dominated by a
    fixed number of array passes over the concatenated events instead of
    per-event interpreter steps.  A caller that scans several ranges passes
    one ``workspace`` for all of them, and reads each result before the next
    scan overwrites its blocks.
    """
    return _scan(params, data, *(subset or (0, len(data))), gradients, _banded_sums,
                 workspace or _fresh)


def pairwise_sequence_stats(params: ModelParams, data: Dataset, k: int) -> BatchStats:
    """Gradient statistics of sequence ``k`` of ``data`` from its (m, m) decay kernel.

    Returns what ``batch_sequence_stats(params, data, True, subset=(k, k + 1))``
    returns: the slot tables, ``q`` and the activated rows bit for bit, the
    decayed sums equal to rounding.  Its cost grows with m squared, so it
    serves short sequences (see ``_PAIRWISE_MAX`` in :mod:`.train`).
    """
    return _scan(params, data, k, k + 1, True, _kernel_sums)
