"""Stochastic training: per-sequence sparse Adam steps over the lazy engine.

One epoch walks the sequences once.  Each step scans one sequence on the
dataset's cached layout, reads the one-epoch-lagged decayed emitting totals
from the caches, the incrementally maintained receiving-embedding total, and
only the parameters of entities active in the sequence; the lazy engine's
gradient rows for those entities then get one Adam update of their rows of
the ``[u | v | mu | self]`` parameter block, which also moves the global
decay slot and refreshes the receiving total.  The parallel mode runs the
same step lock-free from several workers over shared memory (only the decay
slot is locked), trading bitwise reproducibility for throughput.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import json
import math
import multiprocessing
import os
import queue as queue_module
import time
from dataclasses import dataclass, field

import numpy as np

from .lazy import LazyCaches, SequenceGradient, _slot_gradients, build_caches, lazy_log_likelihood, update_u_hat
from .model import Dataset, ModelParams, NumericalDivergenceError, softplus, softplus_inv
from .scan import batch_sequence_stats

__all__ = [
    "TrainingDivergedError",
    "TrainConfig",
    "AdamState",
    "TrainReport",
    "adam_step",
    "init_params",
    "train",
    "train_parallel",
]

# Wait on the result queue between checks that the workers are alive.
_POLL_SECONDS = 0.1


class TrainingDivergedError(RuntimeError):
    """Optimization produced a non-finite objective.

    Carries the last parameter snapshot whose exact epoch log-likelihood was
    finite, plus the report rows accumulated up to the failure.
    """

    def __init__(self, message: str, last_params: ModelParams, report: "TrainReport", epoch: int):
        super().__init__(message)
        self.last_params = last_params
        self.report = report
        self.epoch = epoch


@dataclass
class TrainConfig:
    epochs: int = 50
    learning_rate: float = 0.01
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    dim: int = 20
    threads: int = 1
    seed: int = 0
    shuffle: bool = False
    log_every: int = 10
    checkpoint_dir: str | None = None

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.learning_rate < 0:
            # zero is degenerate but accepted: it freezes the parameters,
            # which is the cleanest probe of the lagged-cache bookkeeping
            raise ValueError("learning_rate must not be negative")
        if not (0.0 < self.adam_beta1 < 1.0 and 0.0 < self.adam_beta2 < 1.0):
            raise ValueError("adam decay factors must lie in (0, 1)")
        if self.adam_eps <= 0:
            raise ValueError("adam_eps must be positive")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if self.log_every < 1:
            raise ValueError("log_every must be >= 1")

    def digest(self) -> str:
        payload = json.dumps(
            {k: v for k, v in self.__dict__.items() if k != "checkpoint_dir"},
            sort_keys=True,
        )
        return hashlib.blake2b(payload.encode(), digest_size=8).hexdigest()


class AdamState:
    """Adam moments as (n, 2d + 2) rows ``[u | v | mu | self]``, with per-row step counts.

    A row's blocks move together and share the counter ``t``, which advances
    only when the row is touched, so rarely seen entities get the full bias
    correction on their first updates instead of a stale global step number.
    ``decay_guard`` wraps each update of the decay scalars; parallel workers
    point it at the shared decay slot.
    """

    def __init__(self, m: np.ndarray, v: np.ndarray, t: np.ndarray):
        self.m, self.v, self.t = m, v, t
        self.m_beta, self.v_beta, self.t_beta = 0.0, 0.0, 0
        self.decay_guard = contextlib.nullcontext

    @classmethod
    def zeros(cls, n: int, d: int) -> "AdamState":
        return cls(np.zeros((n, 2 * d + 2)), np.zeros((n, 2 * d + 2)), np.zeros(n, dtype=np.int64))


@dataclass
class TrainReport:
    """Exact per-epoch curves and snapshot bookkeeping.

    ``u_hat_drift`` holds the relative gap per epoch between the running
    receiving-embedding total and a from-scratch recomputation.
    ``final_caches`` is the training-state cache object at exit (lagged
    aggregates included), kept for invariant checks and warm restarts.
    ``decay_steps`` counts Adam steps on the decay parameter.
    """

    epoch_loglik: list[float] = field(default_factory=list)
    epoch_seconds: list[float] = field(default_factory=list)
    snapshot_paths: list[str] = field(default_factory=list)
    u_hat_drift: list[float] = field(default_factory=list)
    final_caches: LazyCaches | None = None
    decay_steps: int = 0


def _adam_rows(state: AdamState, idx: np.ndarray, rows: np.ndarray, d_beta: float,
               config: TrainConfig, params: ModelParams):
    """One sparse ascent step, in place, on the gradient rows ``[u | v | mu | self]``
    of entities ``idx`` and on the decay.

    The moments are of the negated gradient (the usual minimizer convention)
    and the step is subtracted.
    """
    b1 = config.adam_beta1
    b2 = config.adam_beta2
    if len(idx):
        g = -rows
        state.t[idx] = steps = state.t[idx] + 1
        state.m[idx] = m = b1 * state.m[idx] + (1.0 - b1) * g
        state.v[idx] = v = b2 * state.v[idx] + (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1**steps)[:, None]
        v_hat = v / (1.0 - b2**steps)[:, None]
        params.theta[idx] -= config.learning_rate * m_hat / (np.sqrt(v_hat) + config.adam_eps)

    g = -d_beta
    with state.decay_guard():
        state.t_beta += 1
        state.m_beta = b1 * state.m_beta + (1.0 - b1) * g
        state.v_beta = b2 * state.v_beta + (1.0 - b2) * g * g
        m_hat = state.m_beta / (1.0 - b1**state.t_beta)
        v_hat = state.v_beta / (1.0 - b2**state.t_beta)
        params.theta_beta -= config.learning_rate * m_hat / (math.sqrt(v_hat) + config.adam_eps)


def adam_step(state: AdamState, grads: SequenceGradient, config: TrainConfig, params: ModelParams):
    """Apply one sparse ascent step in place.

    Only rows of ``grads.entities`` and the global decay parameter move;
    every other row's parameters, moments, and counters stay untouched.
    """
    rows = np.concatenate(
        [grads.d_theta_u, grads.d_theta_v, grads.d_theta_mu[:, None], grads.d_theta_self[:, None]],
        axis=1,
    )
    _adam_rows(state, grads.entities, rows, grads.d_theta_beta, config, params)


def init_params(data: Dataset, config: TrainConfig, rng: np.random.Generator) -> ModelParams:
    """Data-informed starting point.

    Background rates warm-start at each entity's event count over the summed
    horizons (floored at half an event so silent entities stay finite); the
    decay speed starts at 1; embeddings and diagonals start small and
    positive, away from the flat region of the softplus.
    """
    n, d = data.num_entities, config.dim
    counts = np.bincount(data.flat_events()[4], minlength=n)
    rates = np.maximum(counts, 0.5) / data.total_horizon
    # Drawn straight into the [u | v | mu | self] block, one part at a time,
    # in the order the draws have always been made.
    theta = np.empty((n, 2 * d + 2))
    theta[:, 2 * d] = softplus_inv(rates)
    theta[:, 2 * d + 1] = rng.normal(-2.0, 0.1, size=n)
    theta[:, :d] = rng.normal(-2.0, 0.1, size=(n, d))
    theta[:, d:2 * d] = rng.normal(-2.0, 0.1, size=(n, d))
    return ModelParams.from_block(theta, float(softplus_inv(1.0)), d)


def _maybe_checkpoint(config: TrainConfig, params: ModelParams, epoch: int,
                      loglik: float, report: TrainReport):
    if config.checkpoint_dir is None:
        return
    from .data_io import write_checkpoint

    os.makedirs(config.checkpoint_dir, exist_ok=True)
    path = os.path.join(config.checkpoint_dir, f"epoch{epoch:04d}.ckpt")
    meta = {
        "epoch": epoch,
        "loglik": loglik,
        "seed": config.seed,
        "config_digest": config.digest(),
    }
    write_checkpoint(path, params, meta)
    report.snapshot_paths.append(path)


def _finish_epoch(params: ModelParams, data: Dataset, caches: LazyCaches,
                  config: TrainConfig, report: TrainReport, epoch: int,
                  secs: float, last_good: ModelParams) -> float:
    """Exact reporting with freshly built caches; raises on divergence."""
    try:
        fresh = build_caches(params, data)
        loglik = lazy_log_likelihood(params, data, fresh)
    except (NumericalDivergenceError, ValueError) as exc:
        raise TrainingDivergedError(
            f"epoch {epoch}: {exc}", last_good, report, epoch
        ) from exc
    rebuilt_norm = float(np.linalg.norm(fresh.u_hat))
    drift = float(np.linalg.norm(caches.u_hat - fresh.u_hat)) / max(rebuilt_norm, 1e-300)
    report.epoch_loglik.append(loglik)
    report.epoch_seconds.append(secs)
    report.u_hat_drift.append(drift)
    if epoch % config.log_every == 0 or epoch == config.epochs:
        print(f"epoch={epoch} loglik={loglik:.6f} secs={secs:.3f}", flush=True)
        _maybe_checkpoint(config, params, epoch, loglik, report)
    return loglik


def _step(params: ModelParams, data: Dataset, k: int, caches: LazyCaches, state: AdamState,
          config: TrainConfig) -> np.ndarray:
    """One sparse Adam step on sequence ``k``, against the lagged ``z_hat``.

    Returns the sequence's decayed emitting total under the parameters before
    the step, its share of the next epoch's ``z_hat``.
    """
    bs = batch_sequence_stats(params, data, gradients=True, subset=(k, k + 1))
    rows, g_beta = _slot_gradients(params, bs, caches, data.activity_count)
    idx = bs.slot_entity
    old_u = params.theta_u[idx]
    _adam_rows(state, idx, rows, float(g_beta[0]), config, params)
    update_u_hat(caches, idx, old_u, params.theta_u[idx])
    return bs.z[0]


def train(
    data: Dataset,
    config: TrainConfig,
    init: ModelParams | None = None,
) -> tuple[ModelParams, TrainReport]:
    """Sequential training; deterministic for a fixed config.

    Per epoch, one :func:`_step` per non-empty sequence, in order or in a
    seeded shuffle.  Reported likelihoods are exact, computed against rebuilt
    caches after each epoch.
    """
    rng = np.random.default_rng(config.seed)
    if init is None:
        params = init_params(data, config, rng)
    else:
        if init.num_entities != data.num_entities:
            raise ValueError(
                f"init covers {init.num_entities} entities, data has {data.num_entities}"
            )
        params = init.copy()
    caches = build_caches(params, data)
    state = AdamState.zeros(params.num_entities, params.dim)
    report = TrainReport()
    last_good = params.copy()
    base_order = np.arange(len(data.sequences))
    nonempty = np.diff(data.event_offsets()) > 0

    for epoch in range(1, config.epochs + 1):
        start = time.perf_counter()
        order = rng.permutation(base_order) if config.shuffle else base_order
        z_next = np.zeros(params.dim)
        try:
            for k in order[nonempty[order]].tolist():
                z_next += _step(params, data, k, caches, state, config)
        except NumericalDivergenceError as exc:
            raise TrainingDivergedError(
                f"epoch {epoch}: {exc}", last_good, report, epoch
            ) from exc
        caches.z_hat = z_next
        secs = time.perf_counter() - start
        _finish_epoch(params, data, caches, config, report, epoch, secs, last_good)
        last_good = params.copy()
    report.final_caches = caches
    report.decay_steps = state.t_beta
    return params, report


def _shared_array(shape, dtype=np.float64):
    size = int(np.prod(shape))
    if dtype == np.float64:
        raw = multiprocessing.RawArray(ctypes.c_double, size)
    elif dtype == np.int64:
        raw = multiprocessing.RawArray(ctypes.c_int64, size)
    else:
        raise ValueError(f"unsupported shared dtype {dtype}")
    return np.frombuffer(raw, dtype=dtype).reshape(shape)


def _parallel_worker(
    worker_id: int,
    shard: np.ndarray,
    data: Dataset,
    params: ModelParams,
    beta_slots: np.ndarray,
    beta_lock,
    state: AdamState,
    caches: LazyCaches,
    config: TrainConfig,
    queue,
):
    """One epoch over a shard against shared-memory parameters.

    The decay parameter and its Adam scalars live in a shared slot vector
    (value, first moment, second moment, step count).  A step's gradient may
    use a decay value another worker has since moved, and torn embedding rows
    are tolerated, as the lock-free contract allows; but each update of the
    slots holds ``beta_lock`` from read to write, so none is lost.
    """

    @contextlib.contextmanager
    def decay_guard():
        with beta_lock:
            params.theta_beta, state.m_beta, state.v_beta = beta_slots[:3].tolist()
            state.t_beta = int(beta_slots[3])
            yield
            beta_slots[:] = (params.theta_beta, state.m_beta, state.v_beta, state.t_beta)

    state.decay_guard = decay_guard
    z_partial = np.zeros(params.dim)
    try:
        for k in shard.tolist():
            params.theta_beta = float(beta_slots[0])
            z_partial += _step(params, data, k, caches, state, config)
        queue.put(("done", worker_id, z_partial))
    except NumericalDivergenceError as exc:
        queue.put(("diverged", worker_id, str(exc)))
    except Exception as exc:  # surfaced by the parent as a hard failure
        queue.put(("error", worker_id, f"{type(exc).__name__}: {exc}"))


def _collect(queue, workers, epoch: int) -> dict:
    """One ``(kind, payload)`` per worker id; a worker that exits silently is an error.

    A worker that had exited before an empty wait began had sent nothing.
    """
    results = {}
    while len(results) < len(workers):
        exited = [wid for wid, w in enumerate(workers)
                  if wid not in results and w.exitcode is not None]
        try:
            kind, wid, payload = queue.get(timeout=_POLL_SECONDS)
        except queue_module.Empty:
            if exited:
                wid = exited[0]
                raise RuntimeError(
                    f"epoch {epoch} worker {wid} exited with code "
                    f"{workers[wid].exitcode} without reporting a result"
                ) from None
            continue
        results[wid] = (kind, payload)
    return results


def train_parallel(data: Dataset, config: TrainConfig) -> tuple[ModelParams, TrainReport]:
    """Lock-free parallel training over forked workers and shared memory.

    Sequences are split into one static shard per worker; each epoch forks
    the workers, they run :func:`train`'s step, streaming updates into the
    shared parameter blocks without locks (the decay slot excepted), and the
    parent then swaps in the next epoch's decayed emitting totals, measures
    the receiving-total drift, rebuilds it, and reports the exact likelihood.
    Results match sequential training statistically, not bitwise.  A worker
    that dies raises an error naming it and the epoch; the others are reaped.
    """
    if config.threads < 2:
        raise ValueError("train_parallel needs threads >= 2; use train for one")
    ctx = multiprocessing.get_context("fork")
    rng = np.random.default_rng(config.seed)
    seed_params = init_params(data, config, rng)
    n = data.num_entities
    d = config.dim

    params = ModelParams.from_block(_shared_array((n, 2 * d + 2)), seed_params.theta_beta, d)
    params.theta[:] = seed_params.theta
    # slot vector: decay value, its two Adam moments, its step count
    beta_slots = _shared_array((4,))
    beta_slots[0] = seed_params.theta_beta
    beta_lock = ctx.Lock()

    state = AdamState(
        _shared_array((n, 2 * d + 2)), _shared_array((n, 2 * d + 2)), _shared_array((n,), np.int64)
    )
    caches = build_caches(params, data)
    shared_u_hat = _shared_array((d,))
    shared_u_hat[:] = caches.u_hat
    caches.u_hat = shared_u_hat

    report = TrainReport()
    last_good = params.copy()
    base_order = np.arange(len(data.sequences))
    nonempty = np.diff(data.event_offsets()) > 0

    for epoch in range(1, config.epochs + 1):
        start = time.perf_counter()
        order = rng.permutation(base_order) if config.shuffle else base_order
        shards = [shard[nonempty[shard]] for shard in np.array_split(order, config.threads)]
        queue = ctx.Queue()
        workers = [
            ctx.Process(
                target=_parallel_worker,
                args=(wid, shard, data, params, beta_slots, beta_lock, state, caches, config, queue),
            )
            for wid, shard in enumerate(shards)
        ]
        results = None
        try:
            for w in workers:
                w.start()
            results = _collect(queue, workers, epoch)
        finally:
            for w in workers:
                if results is None and w.is_alive():
                    w.terminate()
                if w.pid is not None:
                    w.join()
        params.theta_beta = float(beta_slots[0])
        failures = [(wid, kind, payload) for wid, (kind, payload) in sorted(results.items())
                    if kind != "done"]
        if failures:
            wid, kind, payload = failures[0]
            if kind == "diverged":
                raise TrainingDivergedError(
                    f"epoch {epoch} worker {wid}: {payload}", last_good, report, epoch
                )
            raise RuntimeError(f"epoch {epoch} worker {wid} failed: {payload}")
        caches.z_hat = np.sum([results[wid][1] for wid in range(len(workers))], axis=0)
        secs = time.perf_counter() - start
        _finish_epoch(params, data, caches, config, report, epoch, secs, last_good)
        # lock-free interleaving lets the incremental receiving total drift;
        # rebuild it exactly once per epoch after recording how far it moved
        caches.u_hat[:] = softplus(params.theta_u).sum(axis=0)
        last_good = params.copy()
    report.final_caches = caches
    report.decay_steps = int(beta_slots[3])
    return params, report
