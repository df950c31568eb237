"""Core types and primitives for multivariate Hawkes processes.

A model over ``n`` entities couples a background rate per entity with an
exponentially decaying influence kernel between entity pairs.  The influence
matrix is factorized: off-diagonal entries are inner products of low-rank
non-negative embeddings, diagonal entries get their own parameter.  All raw
parameters live in an unconstrained space and are mapped through softplus,
so positivity never has to be enforced by projection.  The per-entity ones
form one ``(n, 2d + 2)`` row block ``[u | v | mu | self]``, the layout of the
gradient rows and the Adam moments.  A :class:`Dataset` caches its flat event
layout, slot tables and per-event frame, which no parameter affects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence as SequenceType

import numpy as np

__all__ = [
    "NumericalDivergenceError",
    "softplus",
    "softplus_grad",
    "softplus_inv",
    "Event",
    "Sequence",
    "Dataset",
    "ModelParams",
    "alpha",
    "alpha_row",
    "influence_matrix",
    "intensity",
    "compensator",
    "SequenceScan",
]


class NumericalDivergenceError(RuntimeError):
    """Raised when a likelihood or intensity stops being finite/positive."""


def softplus(x):
    """Elementwise log(1 + e^x), safe against overflow for large x: the split
    max(x, 0) + log1p(e^-|x|) of ``np.logaddexp(0, x)``, in whole-array
    passes on one buffer."""
    x = np.asarray(x, dtype=float)
    out = np.abs(x, out=np.empty_like(x))
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    out += np.maximum(x, 0.0)
    return out[()]


def softplus_grad(x):
    """Derivative of :func:`softplus`, the logistic sigmoid.

    Written via tanh so it is stable for arguments of either sign.
    """
    x = np.asarray(x, dtype=float)
    out = np.multiply(x, 0.5, out=np.empty_like(x))
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


@dataclass(frozen=True)
class Event:
    """A single timestamped occurrence attributed to one entity."""

    entity: int
    time: float


class Sequence:
    """An ordered event sequence observed on the window [0, horizon].

    Events must be strictly increasing in time; two events at the same
    timestamp are rejected because the intensity at an event time is defined
    over strictly earlier history only.
    """

    __slots__ = ("times", "entities", "horizon", "_active")

    def __init__(self, events: Iterable[Event], horizon: float):
        events = list(events)
        times = np.array([e.time for e in events], dtype=np.float64)
        entities = np.array([e.entity for e in events], dtype=np.int64)
        self._init_from_arrays(times, entities, float(horizon))

    @classmethod
    def from_arrays(cls, times, entities, horizon: float) -> "Sequence":
        """Build a sequence without constructing Event objects."""
        obj = cls.__new__(cls)
        obj._init_from_arrays(
            np.asarray(times, dtype=np.float64).copy(),
            np.asarray(entities, dtype=np.int64).copy(),
            float(horizon),
        )
        return obj

    def _init_from_arrays(self, times, entities, horizon):
        if times.ndim != 1 or entities.ndim != 1 or len(times) != len(entities):
            raise ValueError("times and entities must be 1-d arrays of equal length")
        if not math.isfinite(horizon) or horizon <= 0:
            raise ValueError(f"horizon must be a positive real, got {horizon}")
        if len(times):
            if not np.all(np.isfinite(times)):
                raise ValueError("event times must be finite")
            if times[0] < 0:
                raise ValueError("event times must be non-negative")
            diffs = np.diff(times)
            if np.any(diffs <= 0):
                k = int(np.argmax(diffs <= 0))
                raise ValueError(
                    f"event times must strictly increase; violation after index {k} "
                    f"(t={times[k]!r} then t={times[k + 1]!r})"
                )
            if times[-1] > horizon:
                raise ValueError(
                    f"event at t={times[-1]!r} lies beyond the horizon {horizon!r}"
                )
        times.setflags(write=False)
        entities.setflags(write=False)
        self.times = times
        self.entities = entities
        self.horizon = horizon
        self._active = None

    def __len__(self) -> int:
        return len(self.times)

    @property
    def events(self) -> list[Event]:
        return [Event(int(x), float(t)) for x, t in zip(self.entities, self.times)]

    @property
    def active_entities(self) -> np.ndarray:
        """Sorted distinct entities with at least one event here."""
        if self._active is None:
            self._active = np.unique(self.entities)
            self._active.setflags(write=False)
        return self._active

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return (
            self.horizon == other.horizon
            and np.array_equal(self.times, other.times)
            and np.array_equal(self.entities, other.entities)
        )

    def __repr__(self):
        return f"Sequence(n={len(self)}, horizon={self.horizon})"


class Dataset:
    """A collection of sequences over a shared entity universe.

    ``activity_count[x]`` counts the sequences containing at least one event
    of entity x; it is what makes per-entity bookkeeping cheap even when most
    entities never appear.
    """

    __slots__ = (
        "num_entities",
        "sequences",
        "activity_count",
        "_index",
        "_flat",
        "_slots",
        "_offsets",
        "_frame",
    )

    def __init__(self, num_entities: int, sequences: SequenceType[Sequence]):
        num_entities = int(num_entities)
        if num_entities <= 0:
            raise ValueError("num_entities must be positive")
        sequences = list(sequences)
        for k, seq in enumerate(sequences):
            if len(seq) and int(seq.entities.max()) >= num_entities:
                raise ValueError(
                    f"sequence {k} references entity {int(seq.entities.max())} "
                    f"outside the universe of {num_entities} entities"
                )
        self.num_entities = num_entities
        self.sequences = sequences
        self._index = self._flat = self._slots = self._offsets = self._frame = None
        self.activity_count = np.bincount(self.slot_tables()[2], minlength=num_entities)

    @property
    def active_index(self) -> list[list[int]]:
        """Positions of the sequences with an event of each entity, built on first use."""
        if self._index is None:
            _, slot_seq, slot_entity, _, _ = self.slot_tables()
            self._index = [[] for _ in range(self.num_entities)]
            for k, x in zip(slot_seq.tolist(), slot_entity.tolist()):
                self._index[x].append(k)
        return self._index

    def __len__(self) -> int:
        return len(self.sequences)

    def flat_events(self):
        """Concatenated event arrays over all sequences, built once.

        Returns ``(horizons, nonempty, lengths, times, labels)`` where
        ``horizons`` covers every sequence and the other four describe the
        non-empty ones in order.  Sequences are fixed after construction, so
        the layout is computed on first use and reused by every engine pass.
        """
        if self._flat is None:
            horizons = np.array([s.horizon for s in self.sequences], dtype=np.float64)
            nonempty = np.flatnonzero([len(s) > 0 for s in self.sequences])
            if nonempty.size:
                lengths = np.array(
                    [len(self.sequences[k]) for k in nonempty], dtype=np.int64
                )
                times = np.concatenate([self.sequences[k].times for k in nonempty])
                labels = np.concatenate(
                    [self.sequences[k].entities for k in nonempty]
                ).astype(np.int64)
            else:
                lengths = np.zeros(0, dtype=np.int64)
                times = np.zeros(0)
                labels = np.zeros(0, dtype=np.int64)
            self._flat = (horizons, nonempty, lengths, times, labels)
        return self._flat

    def slot_tables(self):
        """Per-(sequence, entity) slot index over all events, built once.

        Returns ``(slot_of, slot_seq, slot_entity, seq_slot_start, counts)``:
        the slot of each event in flat order, each slot's sequence position
        and entity (sequence-major sorted), the slot range of every sequence,
        and the events per slot.  Depends only on the data, never on
        parameters.
        """
        if self._slots is None:
            labels = self.flat_events()[4]
            n = np.int64(self.num_entities)
            code = self.event_frame()[0] * n + labels
            uq, slot_of = np.unique(code, return_inverse=True)
            slot_seq = uq // n
            slot_entity = uq % n
            seq_slot_start = np.searchsorted(
                slot_seq, np.arange(len(self.sequences) + 1)
            ).astype(np.int64)
            counts = np.bincount(slot_of, minlength=len(uq)).astype(np.int64)
            self._slots = (slot_of, slot_seq, slot_entity, seq_slot_start, counts)
        return self._slots

    def event_offsets(self) -> np.ndarray:
        """``(len(sequences) + 1,)``: sequence ``k`` owns flat events
        ``offsets[k]:offsets[k + 1]``.  Built once."""
        if self._offsets is None:
            lengths = np.array([len(s) for s in self.sequences], dtype=np.int64)
            self._offsets = np.concatenate([[0], np.cumsum(lengths)])
        return self._offsets

    def event_frame(self):
        """Per-event columns that do not depend on the parameters, built once.

        Returns ``(seq_of, tail, trel)`` in flat event order: each event's
        sequence position, ``horizon - t`` and ``t - t_first`` (the offset
        from its sequence's first event).
        """
        if self._frame is None:
            horizons, nonempty, lengths, times, _ = self.flat_events()
            seq_of = np.repeat(nonempty, lengths)
            first = times[self.event_offsets()[seq_of]]
            self._frame = (seq_of, horizons[seq_of] - times, times - first)
        return self._frame

    @property
    def total_events(self) -> int:
        return sum(len(s) for s in self.sequences)

    @property
    def total_horizon(self) -> float:
        return math.fsum(s.horizon for s in self.sequences)

    def never_active(self) -> np.ndarray:
        """Entities with no event in any sequence."""
        return np.flatnonzero(self.activity_count == 0)

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.num_entities == other.num_entities
            and len(self.sequences) == len(other.sequences)
            and all(a == b for a, b in zip(self.sequences, other.sequences))
        )


class _Columns:
    """Columns ``cols(dim)`` of :attr:`ModelParams.theta` as a view;
    assigning to it writes into the block."""

    def __init__(self, cols):
        self.cols = cols

    def __get__(self, obj, owner=None):
        return self if obj is None else obj.theta[:, self.cols(obj.dim)]

    def __set__(self, obj, value):
        obj.theta[:, self.cols(obj.dim)] = value


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
        return float(softplus(self.theta_beta))

    def self_rates(self) -> np.ndarray:
        return softplus(self.theta_self)

    def factors_u(self) -> np.ndarray:
        return softplus(self.theta_u)

    def factors_v(self) -> np.ndarray:
        return softplus(self.theta_v)

    def copy(self) -> "ModelParams":
        return ModelParams.from_block(self.theta.copy(), self.theta_beta, self.dim)


def alpha(params: ModelParams, x: int, y: int) -> float:
    """Influence of an event by entity y on the rate of entity x."""
    if x == y:
        return float(softplus(params.theta_self[x]))
    u = softplus(params.theta_u[x])
    v = softplus(params.theta_v[y])
    return float(u @ v)


def alpha_row(params: ModelParams, x: int, ys: np.ndarray) -> np.ndarray:
    """Vector of influences alpha[x, y] for an array of source entities y."""
    ys = np.asarray(ys, dtype=np.int64)
    u = softplus(params.theta_u[x])
    out = softplus(params.theta_v[ys]) @ u
    diag = ys == x
    if np.any(diag):
        out[diag] = softplus(params.theta_self[x])
    return out


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


def intensity(params: ModelParams, seq: Sequence, x: int, t: float) -> float:
    """Conditional rate of entity x at time t given the history before t.

    Direct summation over prior events; the definitional form, linear in the
    sequence length.
    """
    mask = seq.times < t
    if not np.any(mask):
        return float(softplus(params.theta_mu[x]))
    beta = params.beta()
    decays = np.exp(-beta * (t - seq.times[mask]))
    excitation = alpha_row(params, x, seq.entities[mask]) @ decays
    return float(softplus(params.theta_mu[x]) + excitation)


def compensator(params: ModelParams, seq: Sequence, x: int) -> float:
    """Integral of the rate of entity x over [0, horizon], in closed form."""
    mu_x = float(softplus(params.theta_mu[x]))
    if len(seq) == 0:
        return mu_x * seq.horizon
    beta = params.beta()
    w = -np.expm1(-beta * (seq.horizon - seq.times))
    return mu_x * seq.horizon + float(alpha_row(params, x, seq.entities) @ w) / beta


class SequenceScan:
    """Recursive decay state for one left-to-right pass over a sequence.

    Carries the shared embedding-space excitation (``decay_vector``, the sum
    of emitting embeddings of past events, decayed to the current time) and a
    per-active-entity scalar (``self_decay``) counting decayed past events of
    that same entity.  Together they reconstruct every event intensity in
    constant work per event instead of a quadratic history sum.

    With ``track_beta=True`` the state also carries the derivative of both
    quantities with respect to the decay parameter.
    """

    __slots__ = (
        "beta",
        "decay_vector",
        "self_decay",
        "last_time",
        "track_beta",
        "decay_vector_dbeta",
        "_self_last",
        "_self_dbeta",
        "_theta_v",
        "_v_rows",
    )

    def __init__(self, params: ModelParams, track_beta: bool = False):
        self.beta = params.beta()
        # Emitting embeddings are gathered one entity at a time on first use,
        # so constructing and running a scan never touches entities outside
        # the sequence.
        self._theta_v = params.theta_v
        self._v_rows: dict[int, np.ndarray] = {}
        self.decay_vector = np.zeros(params.dim)
        self.self_decay: dict[int, float] = {}
        self.last_time = 0.0
        self.track_beta = bool(track_beta)
        self.decay_vector_dbeta = np.zeros(params.dim) if track_beta else None
        self._self_last: dict[int, float] = {}
        self._self_dbeta: dict[int, float] = {}

    def _v_row(self, entity: int) -> np.ndarray:
        row = self._v_rows.get(entity)
        if row is None:
            row = softplus(self._theta_v[entity])
            self._v_rows[entity] = row
        return row

    def advance(self, time: float, entity: int):
        """Move the scan to ``time``, consume the event there, and return the
        pre-event state.

        Returns ``(decay_vector, self_decay)`` evaluated just before the
        event, or a 4-tuple with their beta-derivatives appended when
        ``track_beta`` is on.  The returned vector is a live view; callers
        that keep it must copy.
        """
        if time < self.last_time:
            raise ValueError("scan times must be non-decreasing")
        entity = int(entity)
        dt = time - self.last_time
        decay = math.exp(-self.beta * dt)
        if self.track_beta:
            # d/dbeta of e^{-beta dt} S pulls down a -dt factor on the decayed part.
            self.decay_vector_dbeta *= decay
            self.decay_vector_dbeta -= dt * decay * self.decay_vector
        self.decay_vector *= decay
        self.last_time = time

        r_last = self._self_last.get(entity, 0.0)
        r_dt = time - r_last
        r_decay = math.exp(-self.beta * r_dt)
        r = self.self_decay.get(entity, 0.0)
        r_at = r * r_decay
        if self.track_beta:
            rp = self._self_dbeta.get(entity, 0.0)
            rp_at = r_decay * (rp - r_dt * r)
            self._self_dbeta[entity] = rp_at
        self.self_decay[entity] = r_at + 1.0
        self._self_last[entity] = time

        out_vec = self.decay_vector
        self.decay_vector = self.decay_vector + self._v_row(entity)
        if self.track_beta:
            out = (out_vec, r_at, self.decay_vector_dbeta, rp_at)
            self.decay_vector_dbeta = self.decay_vector_dbeta.copy()
            return out
        return out_vec, r_at
