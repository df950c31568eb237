"""Core types and primitives for multivariate Hawkes processes.

A model over ``n`` entities couples a background rate per entity with an
exponentially decaying influence kernel between entity pairs.  The influence
matrix is factorized: off-diagonal entries are inner products of low-rank
non-negative embeddings, diagonal entries get their own parameter.  All raw
parameters live in an unconstrained space and are mapped through softplus,
so positivity never has to be enforced by projection.  The per-entity ones
form one ``(n, 2d + 2)`` row block ``[u | v | mu | self]``, the layout of the
gradient rows and the Adam moments.  A :class:`Dataset` owns checked event
columns, its sequences are read-only views of them, and it computes once the
slot tables, per-event frame and per-entity terms, which no parameter affects.
"""

from __future__ import annotations

import math
from typing import Sequence as SequenceType

import numpy as np

__all__ = [
    "NumericalDivergenceError",
    "Sequence",
    "Dataset",
    "ModelParams",
    "influence_matrix",
]


class NumericalDivergenceError(RuntimeError):
    """Raised when a likelihood or intensity stops being finite/positive."""


def softplus(x, out=None):
    """Elementwise log(1 + e^x), safe against overflow for large x: the split
    max(x, 0) + log1p(e^-|x|) of ``np.logaddexp(0, x)``, in whole-array
    passes on one buffer, ``out`` if given (it must not overlap ``x``)."""
    x = np.asarray(x, dtype=float)
    out = np.abs(x, out=np.empty_like(x) if out is None else out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    np.add(out, x, out=out, where=x > 0.0)
    return out[()]


def softplus_grad(x, out=None):
    """Derivative of :func:`softplus`, the logistic sigmoid, into ``out`` if given.

    Written via tanh so it is stable for arguments of either sign.
    """
    x = np.asarray(x, dtype=float)
    out = np.multiply(x, 0.5, out=np.empty_like(x) if out is None else out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out[()]


def softplus_inv(y):
    """Inverse of :func:`softplus` for y > 0."""
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0):
        raise ValueError("softplus_inv requires strictly positive input")
    return y + np.log(-np.expm1(-y))


def checked_beta(params: "ModelParams") -> float:
    """Decay rate, refusing the underflowed-to-zero region.

    The activation keeps the rate mathematically positive, but far enough
    into the negative domain it rounds to exactly 0.0 and the engines would
    divide by it; treat that as numerical divergence rather than an
    arithmetic accident.
    """
    beta = params.beta()
    if not (beta > 0.0):
        raise NumericalDivergenceError(
            f"decay rate underflowed to {beta!r}; parameters have left the "
            "numerically valid region"
        )
    return beta


def check_rows(params: "ModelParams", data: "Dataset"):
    """The row contract, which every reader of parameter rows against a
    dataset checks first: one parameter row per entity of ``data``."""
    if params.num_entities != data.num_entities:
        raise ValueError(f"parameters cover {params.num_entities} entities, "
                         f"data has {data.num_entities}")


def _checked_columns(num_entities, offsets, times, labels, horizons):
    """The one event checker: the columns as read-only int64 ``offsets`` and
    ``labels`` and float64 ``times`` and ``horizons``, or ``ValueError``.

    Sequence ``k`` owns events ``offsets[k]:offsets[k + 1]``, finite and
    strictly increasing in time (the intensity at an event is defined over
    strictly earlier history) within ``[0, horizons[k]]``.  Horizons are
    positive reals; entities are integers ``>= 0``, below ``num_entities``
    unless that is None.  Only a failed test locates its fault.
    """
    if num_entities is not None and num_entities <= 0:
        raise ValueError("num_entities must be positive")
    raw_offsets, raw_labels = np.asarray(offsets), np.asarray(labels)
    times, horizons = np.asarray(times, np.float64), np.asarray(horizons, np.float64)
    for name, column in (("offsets", raw_offsets), ("event times", times),
                         ("event entities", raw_labels), ("horizons", horizons)):
        if column.ndim != 1:
            raise ValueError(f"{name} must be a 1-d column, got shape {column.shape}")

    def as_int64(column):
        with np.errstate(invalid="ignore"):  # NaN and infinities fail the test
            cast = column.astype(np.int64, copy=False)
        # only a non-integer column can change under the cast
        return cast, (cast != column) if column.dtype.kind not in "iub" else np.False_

    offsets, changed = as_int64(raw_offsets)
    if changed.any():
        j = int(changed.argmax())
        raise ValueError(f"offset {j} is {raw_offsets[j].item()!r}, not an integer")
    if len(raw_labels) != len(times):
        raise ValueError(f"{len(times)} event times but {len(raw_labels)} event entities")
    lengths = np.diff(offsets)
    if (len(offsets) != len(horizons) + 1 or offsets[0] != 0 or offsets[-1] != len(times)
            or (lengths < 0).any()):
        raise ValueError(f"offsets must rise from 0 to the {len(times)} events in "
                         f"{len(horizons) + 1} entries, one more than the horizons")
    if not (np.isfinite(horizons) & (horizons > 0)).all():
        k = int(np.argmin(np.isfinite(horizons) & (horizons > 0)))
        raise ValueError(f"sequence {k}: horizon {float(horizons[k])!r} is not a positive real")

    def fault(bad, problem):
        i = int(np.argmax(bad))
        k = int(offsets.searchsorted(i, side="right")) - 1
        return ValueError(f"sequence {k} event {i - int(offsets[k])} at t={float(times[i])!r} "
                          f"(entity {raw_labels[i].item()!r}, horizon {float(horizons[k])!r}): "
                          f"{problem}")

    # whole-column comparisons, so no NaN or infinity meets arithmetic and warns
    labels, changed = as_int64(raw_labels)
    rises = np.empty(len(times), dtype=bool)
    np.greater(times[1:], times[:-1], out=rises[1:])
    rises[offsets[:-1][lengths > 0]] = True
    for bad, problem in (
            (changed, "entities must be integers"),
            (labels < 0, "entities must be non-negative"),
            (labels >= (np.inf if num_entities is None else num_entities),
             f"entities must be below {num_entities}"),
            (~np.isfinite(times), "event times must be finite"),
            (~rises, "event times must strictly increase"),
            (times < 0, "event times must be non-negative"),
            (times > np.repeat(horizons, lengths), "event times must not pass the horizon")):
        if bad.any():
            raise fault(bad, problem)
    for column in (offsets, times, labels, horizons):
        column.setflags(write=False)
    return offsets, times, labels, horizons


class Sequence:
    """An ordered event sequence observed on the window [0, horizon]: a
    read-only view of columns that passed :func:`_checked_columns`, as a
    :class:`Dataset`'s or through :meth:`from_arrays`."""

    __slots__ = ("times", "entities", "horizon")

    @classmethod
    def from_arrays(cls, times, entities, horizon: float) -> "Sequence":
        """A sequence over copies of ``times`` and ``entities``, checked as
        the columns of one sequence with no entity bound but ``>= 0``."""
        times = np.array(times, dtype=np.float64)
        _, times, entities, horizons = _checked_columns(
            None, [0, times.size], times, np.array(entities), [horizon])
        return cls._view(times, entities, float(horizons[0]))

    @classmethod
    def _view(cls, times, entities, horizon: float) -> "Sequence":
        """A sequence over checked columns, not copied."""
        obj = cls.__new__(cls)
        obj.times, obj.entities, obj.horizon = times, entities, horizon
        return obj

    def __len__(self) -> int:
        return len(self.times)

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return self.horizon == other.horizon and all(
            np.array_equal(getattr(self, c), getattr(other, c)) for c in ("times", "entities"))

    def __repr__(self):
        return f"Sequence(n={len(self)}, horizon={self.horizon})"


class Dataset:
    """A collection of sequences over a shared entity universe, held as
    read-only flat columns that both constructors check with one checker.

    Sequence ``k`` owns events ``offsets[k]:offsets[k + 1]`` of ``times`` and
    ``labels`` and is observed on ``[0, horizons[k]]``.  The engines read the
    columns and the layouts computed from them at construction; :attr:`sequences`
    are views.  ``activity_count[x]`` counts the sequences with an event of
    entity x, and ``absent_share[x]`` is x's share of the horizons it is absent
    from (their sum over ``activity_count[x]``), 0 where x never appears; they
    make per-entity bookkeeping cheap even when most entities never appear.
    """

    __slots__ = ("num_entities", "offsets", "times", "labels", "horizons", "total_horizon",
                 "activity_count", "absent_share", "_sequences", "_slots", "_frame")

    def __init__(self, num_entities: int, sequences: SequenceType[Sequence]):
        sequences = list(sequences)
        self._init(num_entities, np.cumsum([0] + [len(s) for s in sequences]),
                   np.concatenate([s.times for s in sequences] or [np.zeros(0)]),
                   np.concatenate([s.entities for s in sequences] or [np.zeros(0, np.int64)]),
                   np.array([s.horizon for s in sequences], dtype=np.float64))

    @classmethod
    def from_columns(cls, num_entities: int, offsets, times, labels, horizons) -> "Dataset":
        """A dataset over ready columns, adopted without a copy when they are
        int64 (offsets, labels) and float64 (times, horizons) already."""
        data = cls.__new__(cls)
        data._init(num_entities, offsets, times, labels, horizons)
        return data

    def _init(self, num_entities, offsets, times, labels, horizons):
        num_entities = int(num_entities)
        offsets, times, labels, horizons = _checked_columns(
            num_entities, offsets, times, labels, horizons)
        self.num_entities, self._sequences = num_entities, None
        self.offsets, self.times, self.labels, self.horizons = offsets, times, labels, horizons
        seq_of = np.repeat(np.arange(len(horizons)), np.diff(offsets))
        self._frame = (seq_of, horizons[seq_of] - times, times - times[offsets[seq_of]])

        # Slots: one stable sort of the (sequence, entity) codes groups each
        # slot's events in time order, sequence-major.
        n = np.int64(num_entities)
        code = seq_of * n + labels
        by_slot = np.argsort(code, kind="stable")
        sorted_code = code[by_slot]
        new_slot = np.diff(sorted_code, prepend=-1) != 0
        slot_of = np.empty(len(code), dtype=np.int64)
        slot_of[by_slot] = new_slot.cumsum() - 1
        uq = sorted_code[new_slot]
        slot_seq, slot_entity = uq // n, uq % n
        seq_slot_start = np.searchsorted(slot_seq, np.arange(len(horizons) + 1)).astype(np.int64)
        counts = np.bincount(slot_of, minlength=len(uq)).astype(np.int64)
        self._slots = (slot_of, slot_seq, slot_entity, seq_slot_start, counts, by_slot)

        self.total_horizon = math.fsum(horizons.tolist())
        activity = self.activity_count = np.bincount(slot_entity, minlength=num_entities)
        active_horizon = np.bincount(slot_entity, weights=horizons[slot_seq], minlength=num_entities)
        self.absent_share = np.zeros(num_entities)
        np.divide(self.total_horizon - active_horizon, activity, out=self.absent_share,
                  where=activity > 0)

    @property
    def sequences(self) -> list[Sequence]:
        """Read-only views of the columns, built on first use."""
        if self._sequences is None:
            bounds = self.offsets.tolist()
            self._sequences = [Sequence._view(self.times[a:b], self.labels[a:b], h) for a, b, h
                               in zip(bounds, bounds[1:], self.horizons.tolist())]
        return self._sequences

    def __len__(self) -> int:
        return len(self.horizons)

    def flat_events(self):
        """``(horizons, nonempty, lengths, times, labels)``: ``horizons``
        covers every sequence, the other four the non-empty ones in order.
        Only the benchmark's set-up (``perfbench/run.py``) calls it."""
        lengths = np.diff(self.offsets)
        nonempty = np.flatnonzero(lengths)
        return self.horizons, nonempty, lengths[nonempty], self.times, self.labels

    def slot_tables(self):
        """Per-(sequence, entity) slot index over all events.

        Returns ``(slot_of, slot_seq, slot_entity, seq_slot_start, counts,
        by_slot)``: the slot of each event in flat order, each slot's sequence
        position and entity (sequence-major sorted), the slot range of every
        sequence, the events per slot, and the events in stable slot order
        (each slot's events together, in time order), which keeps each
        sequence's events in its own range.  Depends only on the data.
        """
        return self._slots

    def event_frame(self):
        """Per-event columns that do not depend on the parameters.

        Returns ``(seq_of, tail, trel)`` in flat event order: each event's
        sequence position, ``horizon - t`` and ``t - t_first`` (the offset
        from its sequence's first event).
        """
        return self._frame

    @property
    def total_events(self) -> int:
        return int(self.offsets[-1])

    def never_active(self) -> np.ndarray:
        """Entities with no event in any sequence."""
        return np.flatnonzero(self.activity_count == 0)

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        return self.num_entities == other.num_entities and all(
            np.array_equal(getattr(self, c), getattr(other, c))
            for c in ("offsets", "times", "labels", "horizons"))


class _Columns:
    """Columns ``cols(dim)`` of a ``[u | v | mu | self]`` row block, the
    attribute ``block`` (:attr:`ModelParams.theta` by default), as a view;
    assigning to it writes into the block."""

    def __init__(self, cols, block="theta"):
        self.cols, self.block = cols, block

    def __get__(self, obj, owner=None):
        return self if obj is None else getattr(obj, self.block)[:, self.cols(obj.dim)]

    def __set__(self, obj, value):
        getattr(obj, self.block)[:, self.cols(obj.dim)] = value


class ModelParams:
    """Raw (pre-softplus) parameters of the factorized Hawkes model.

    Every per-entity parameter lives in one ``(n, 2d + 2)`` row block
    ``theta`` laid out ``[u | v | mu | self]``, the layout of the gradient
    rows and the Adam moments, so a training step gathers, activates and
    updates an entity's parameters as one row.  The named blocks are views
    of its columns:

    theta_u : (n, d) receiving-side embeddings
    theta_v : (n, d) emitting-side embeddings
    theta_mu : (n,) background rates
    theta_self : (n,) diagonal self-excitation
    theta_beta : global decay speed, shared by every pair (a float)
    """

    theta_u = _Columns(lambda d: slice(0, d))
    theta_v = _Columns(lambda d: slice(d, 2 * d))
    theta_mu = _Columns(lambda d: 2 * d)
    theta_self = _Columns(lambda d: 2 * d + 1)

    def __init__(self, theta_mu, theta_beta, theta_self, theta_u, theta_v, dim):
        theta_mu = np.asarray(theta_mu, dtype=np.float64)
        theta_self = np.asarray(theta_self, dtype=np.float64)
        theta_u = np.asarray(theta_u, dtype=np.float64)
        theta_v = np.asarray(theta_v, dtype=np.float64)
        dim = int(dim)
        n = theta_mu.shape[0]
        if theta_mu.ndim != 1 or theta_self.shape != (n,):
            raise ValueError("theta_mu and theta_self must be (n,) arrays")
        if theta_u.shape != (n, dim) or theta_v.shape != (n, dim):
            raise ValueError(
                f"embedding blocks must have shape ({n}, {dim}); "
                f"got {theta_u.shape} and {theta_v.shape}"
            )
        theta = np.empty((n, 2 * dim + 2))
        theta[:, :dim] = theta_u
        theta[:, dim:2 * dim] = theta_v
        theta[:, 2 * dim] = theta_mu
        theta[:, 2 * dim + 1] = theta_self
        self._adopt(theta, theta_beta, dim)

    @classmethod
    def from_block(cls, theta: np.ndarray, theta_beta: float, dim: int) -> "ModelParams":
        """Parameters over an existing ``[u | v | mu | self]`` block, which is
        used as it is, not copied."""
        params = cls.__new__(cls)
        params._adopt(theta, theta_beta, int(dim))
        return params

    def _adopt(self, theta, theta_beta, dim):
        if theta.dtype != np.float64 or theta.ndim != 2 or theta.shape[1] != 2 * dim + 2:
            raise ValueError(f"parameter block must be float64 of shape (n, {2 * dim + 2})")
        if not np.isfinite(theta).all():
            raise ValueError("parameters must be finite")
        self.theta = theta
        self.theta_beta = float(theta_beta)
        self.dim = dim
        if not math.isfinite(self.theta_beta):
            raise ValueError("theta_beta must be finite")

    @property
    def num_entities(self) -> int:
        return self.theta.shape[0]

    def mu(self) -> np.ndarray:
        return softplus(self.theta_mu)

    def beta(self) -> float:
        """The decay rate: :func:`softplus`'s split, on the float with ``math``."""
        x = self.theta_beta
        return max(x, 0.0) + math.log1p(math.exp(-abs(x)))

    def beta_grad(self) -> float:
        """d beta / d theta_beta: :func:`softplus_grad`'s formula on the float."""
        return 0.5 * (1.0 + math.tanh(0.5 * self.theta_beta))

    def self_rates(self) -> np.ndarray:
        return softplus(self.theta_self)

    def factors_u(self) -> np.ndarray:
        return softplus(self.theta_u)

    def factors_v(self) -> np.ndarray:
        return softplus(self.theta_v)

    def copy(self) -> "ModelParams":
        return ModelParams.from_block(self.theta.copy(), self.theta_beta, self.dim)


def influence_matrix(params: ModelParams) -> np.ndarray:
    """Materialize the full (n, n) influence matrix.

    Entry (x, y) is the jump entity y's events cause in entity x's
    intensity; the diagonal comes from the self-excitation parameters,
    everything else from the low-rank factors.  Quadratic in the number of entities; meant for inspection and evaluation
    at small scale, not for the evaluation engines.
    """
    u = params.factors_u()
    v = params.factors_v()
    mat = u @ v.T
    np.fill_diagonal(mat, params.self_rates())
    return mat
