"""Stochastic training: per-sequence sparse Adam steps over the lazy engine.

One epoch walks the sequences once.  Each step scans one sequence on the
dataset's cached layout: through its (m, m) decay kernel when it has at most
``_PAIRWISE_MAX`` events, else with the banded scan.  It reads two plain
arrays, the one-epoch-lagged decayed emitting total ``z_hat`` and the
incrementally maintained receiving total ``u_hat``, and only the parameters
of entities active in the sequence; the lazy engine's one gradient formula,
which a full gradient pass runs on each range of sequences, turns the scan
into rows for those entities, which get one Adam update of their rows of the
``[u | v | mu | self]`` parameter block, together with the decay's slot.
The rows' moments and step counts sit side by side in one ``[m | v | t]``
block, read in one gather and written in one scatter per step, and one
function states Adam's update for those rows and for the decay's slot alike.
The rows Adam read and wrote then refresh the receiving total through one
activation.

:func:`train` and :func:`train_parallel` run one loop, :func:`_fit`: the
same start-up, the same epoch body :func:`_epoch` and the same decay slot.
Sequentially the body runs in-process over the whole order; in parallel
each forked worker runs it over its shard, lock-free against shared
memory (only the decay slot is locked), trading bitwise reproducibility
for throughput.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import mmap
import multiprocessing
import os
import queue as queue_module
import time
from dataclasses import dataclass, field

import numpy as np

from .lazy import _chunks, _log_likelihood, _range_gradient, _workspace, _z_hat, update_u_hat
from .model import Dataset, ModelParams, NumericalDivergenceError, softplus_inv
from .scan import Workspace, batch_sequence_stats, pairwise_sequence_stats

__all__ = [
    "TrainingDivergedError",
    "TrainConfig",
    "TrainReport",
    "train",
    "train_parallel",
]

# Wait on the result queue between checks that the workers are alive.
_POLL_SECONDS = 0.1

# A step scans a sequence of at most this many events through its (m, m)
# decay kernel, whose cost grows with m squared, and a longer one with the
# banded scan.  Timed per call at d = 20 on a 2-core Xeon VM, the kernel won
# at 96 events (170-260 us against 210-330 us for the banded scan, with
# distinct or repeated entities) and lost from about 128 (210-760 us against
# 220-580 us; at 256, 2.1 ms against 0.4-0.8 ms).
_PAIRWISE_MAX = 96


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
    """Adam moments of the parameter rows ``[u | v | mu | self]`` of width w
    = 2d + 2, in one (n, 2w + 1) block ``[m | v | t]``, and the decay's slot
    ``(value, m, v, t)``.

    A row's blocks move together and share its step count ``t``, a float64
    column (exact up to 2^53), which advances only when the row is touched,
    so rarely seen entities get the full bias correction on their first
    updates instead of a stale global step number.  One ``alloc`` call draws
    the block, so parallel workers share one buffer, and a step reads a
    row's ``(m, v, t)`` in one gather and writes them in one scatter.
    The decay slot is the decay's one home in both modes: each update holds
    ``lock`` from read to write, a no-op sequentially and one lock shared by
    the parallel workers, so no update is lost.
    """

    def __init__(self, params: ModelParams, alloc=np.zeros, lock=contextlib.nullcontext()):
        """Zero moments for ``params`` from ``alloc``; the slot starts at its decay."""
        n, w = params.theta.shape
        self.block = alloc((n, 2 * w + 1))
        self.decay = alloc(4)
        self.decay[0] = params.theta_beta
        self.lock = lock


@dataclass
class TrainReport:
    """Exact per-epoch curves and snapshot bookkeeping.

    ``u_hat_drift`` holds the relative gap per epoch between the running
    receiving-embedding total and the parameters' fresh sum, against which
    ``epoch_loglik`` is computed (training builds no caches).
    ``decay_steps`` counts Adam steps on the decay parameter.
    """

    epoch_loglik: list[float] = field(default_factory=list)
    epoch_seconds: list[float] = field(default_factory=list)
    snapshot_paths: list[str] = field(default_factory=list)
    u_hat_drift: list[float] = field(default_factory=list)
    decay_steps: int = 0


def _adam(m, v, t, g, config: TrainConfig):
    """Adam's update (Kingma & Ba 2015) of the moments ``m``, ``v`` at step
    count ``t`` for the negated gradient ``g``, arrays and floats rounded alike
    (``np.power``): returns the step to subtract and the advanced ``(m, v, t)``."""
    b1, b2 = config.adam_beta1, config.adam_beta2
    t = t + 1
    m = b1 * m + (1.0 - b1) * g
    v = b2 * v + (1.0 - b2) * g * g
    return (config.learning_rate * (m / (1.0 - np.power(b1, t)))
            / (np.sqrt(v / (1.0 - np.power(b2, t))) + config.adam_eps)), m, v, t


def _adam_rows(state: AdamState, idx: np.ndarray, rows: np.ndarray, d_beta: float,
               config: TrainConfig, params: ModelParams):
    """One sparse ascent step, in place, on the gradient rows ``[u | v | mu | self]``
    of entities ``idx`` and on the decay's slot, whose new value it copies to
    ``params.theta_beta``.

    The moments are of the negated gradient (the usual minimizer convention)
    and the step is subtracted.  Returns the parameter rows of ``idx`` as read
    just before the write and as written: under parallel training another
    worker may have moved them since this step's scan read them.
    """
    w = rows.shape[1]
    moments = state.block[idx]  # the rows' [m | v | t], gathered once
    m, v, t = moments[:, :w], moments[:, w:2 * w], moments[:, 2 * w:]
    step, m[:], v[:], t[:] = _adam(m, v, t, -rows, config)  # into the gathered copy
    state.block[idx] = moments  # and scattered once
    old = params.theta[idx]
    params.theta[idx] = new = old - step
    with state.lock:
        beta, m, v, t = state.decay.tolist()
        step, m, v, t = _adam(m, v, t, -d_beta, config)
        state.decay[:] = beta - step, m, v, t
        params.theta_beta = float(state.decay[0])
    return old, new


def init_params(data: Dataset, config: TrainConfig, rng: np.random.Generator) -> ModelParams:
    """Data-informed starting point.

    Background rates warm-start at each entity's event count over the summed
    horizons (floored at half an event so silent entities stay finite); the
    decay speed starts at 1; embeddings and diagonals start small and
    positive, away from the flat region of the softplus.
    """
    n, d = data.num_entities, config.dim
    counts = np.bincount(data.labels, minlength=n)
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


def _finish_epoch(params: ModelParams, data: Dataset, u_hat: np.ndarray,
                  config: TrainConfig, report: TrainReport, epoch: int,
                  secs: float, last_good: ModelParams,
                  ws: Workspace) -> tuple[np.ndarray, ModelParams]:
    """Exact reporting against a receiving total summed afresh, and the
    running total ``u_hat``'s drift from it; returns that total and a
    snapshot of ``params``, or raises on divergence."""
    try:
        fresh = params.factors_u().sum(axis=0)
        loglik = _log_likelihood(params, data, fresh, ws)
        snapshot = params.copy()  # refuses a non-finite block
    except (NumericalDivergenceError, ValueError) as exc:
        raise TrainingDivergedError(
            f"epoch {epoch}: {exc}", last_good, report, epoch
        ) from exc
    rebuilt_norm = float(np.linalg.norm(fresh))
    drift = float(np.linalg.norm(u_hat - fresh)) / max(rebuilt_norm, 1e-300)
    report.epoch_loglik.append(loglik)
    report.epoch_seconds.append(secs)
    report.u_hat_drift.append(drift)
    if epoch % config.log_every == 0 or epoch == config.epochs:
        print(f"epoch={epoch} loglik={loglik:.6f} secs={secs:.3f}", flush=True)
        _maybe_checkpoint(config, params, epoch, loglik, report)
    return fresh, snapshot


def _step(params: ModelParams, data: Dataset, k: int, u_hat: np.ndarray, z_hat: np.ndarray,
          state: AdamState, config: TrainConfig, ws: Workspace) -> np.ndarray:
    """One sparse Adam step on sequence ``k``, against the running ``u_hat``,
    which it updates, the lagged ``z_hat`` and the decay's value in its slot;
    a banded scan's blocks and the gradient's scratch live in the epoch's
    workspace ``ws``.

    Returns the sequence's decayed emitting total under the parameters before
    the step, its share of the next epoch's ``z_hat``.
    """
    params.theta_beta = float(state.decay[0])
    offsets = data.offsets
    if offsets[k + 1] - offsets[k] <= _PAIRWISE_MAX:
        bs = pairwise_sequence_stats(params, data, k)
    else:
        bs = batch_sequence_stats(params, data, gradients=True, subset=(k, k + 1), workspace=ws)
    rows, g_beta = _range_gradient(params, bs, u_hat, z_hat, data, ws=ws)
    old, new = _adam_rows(state, bs.slot_entity, rows, float(g_beta[0]), config, params)
    d = params.dim
    update_u_hat(u_hat, old[:, :d], new[:, :d])
    return bs.z[0]


def _epoch(params: ModelParams, data: Dataset, shard: np.ndarray, u_hat: np.ndarray,
           z_hat: np.ndarray, state: AdamState, config: TrainConfig,
           ws: Workspace) -> np.ndarray:
    """One :func:`_step` per sequence of ``shard``, in order; returns the sum
    of their shares of the next epoch's ``z_hat``."""
    z_next = np.zeros(params.dim)
    for k in shard.tolist():
        z_next += _step(params, data, k, u_hat, z_hat, state, config, ws)
    return z_next


def _shared_array(shape, dtype=np.float64) -> np.ndarray:
    """Zeros in an anonymous shared mapping of their own, which forked workers
    write in place and which unmaps when its last array goes."""
    nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
    return np.frombuffer(mmap.mmap(-1, nbytes), dtype=dtype).reshape(shape)


def _parallel_worker(worker_id: int, shard: np.ndarray, params: ModelParams, data: Dataset,
                     u_hat: np.ndarray, z_hat: np.ndarray, state: AdamState,
                     config: TrainConfig, ws: Workspace, queue):
    """A forked worker's :func:`_epoch` over its shard, reported as one
    ``("done" | "diverged" | "error", worker_id, payload)`` on ``queue``."""
    try:
        queue.put(("done", worker_id, _epoch(params, data, shard, u_hat, z_hat, state, config, ws)))
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


def _fit(data: Dataset, config: TrainConfig, init: ModelParams | None, ctx=None):
    """The one training loop: in-process when ``ctx`` is None, else one forked
    worker per shard each epoch from the multiprocessing context ``ctx``, over
    parameters, Adam state and ``u_hat`` in memory from one allocator."""
    rng = np.random.default_rng(config.seed)
    initial = init_params(data, config, rng) if init is None else init
    if initial.dim != config.dim:
        raise ValueError(f"init has dim {initial.dim}, config.dim is {config.dim}")
    alloc = np.zeros if ctx is None else _shared_array
    params = ModelParams.from_block(alloc(initial.theta.shape), initial.theta_beta, config.dim)
    params.theta[:] = initial.theta
    u_hat = alloc(config.dim)
    u_hat[:] = params.factors_u().sum(axis=0)
    z_hat = _z_hat(params, data)
    state = AdamState(params, alloc, contextlib.nullcontext() if ctx is None else ctx.Lock())
    report, last_good = TrainReport(), initial  # never written: good until an epoch ends
    nonempty = np.diff(data.offsets) > 0
    base_order = np.arange(len(data))
    ranges = _chunks(data)
    for epoch in range(1, config.epochs + 1):
        start = time.perf_counter()
        # the epoch's steps and its report share one workspace, which
        # is dropped with the epoch (a forked worker writes its own copy)
        ws = _workspace(data, ranges, config.dim)
        order = rng.permutation(base_order) if config.shuffle else base_order
        splits = np.array_split(order, config.threads)  # one shard in train
        shards = [shard[nonempty[shard]] for shard in splits]
        if ctx is None:
            try:
                z_hat = _epoch(params, data, shards[0], u_hat, z_hat, state, config, ws)
            except NumericalDivergenceError as exc:
                raise TrainingDivergedError(
                    f"epoch {epoch}: {exc}", last_good, report, epoch
                ) from exc
        else:
            queue = ctx.Queue()
            workers = [
                ctx.Process(target=_parallel_worker,
                            args=(wid, shard, params, data, u_hat, z_hat, state, config, ws,
                                  queue))
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
            for wid, (kind, payload) in sorted(results.items()):
                if kind == "diverged":
                    msg = f"epoch {epoch} worker {wid}: {payload}"
                    raise TrainingDivergedError(msg, last_good, report, epoch)
                if kind == "error":
                    raise RuntimeError(f"epoch {epoch} worker {wid} failed: {payload}")
            z_hat = np.sum([results[wid][1] for wid in range(len(workers))], axis=0)
        params.theta_beta = float(state.decay[0])
        secs = time.perf_counter() - start
        fresh, last_good = _finish_epoch(params, data, u_hat, config, report, epoch, secs,
                                         last_good, ws)
        del ws
        if ctx is not None:
            # lock-free interleaving lets the incremental receiving total
            # drift; reset it once per epoch after recording how far it moved
            u_hat[:] = fresh
    report.decay_steps = int(state.decay[3])
    return params, report


def train(data: Dataset, config: TrainConfig,
          init: ModelParams | None = None) -> tuple[ModelParams, TrainReport]:
    """Sequential training; deterministic for a fixed config.

    Per epoch, one :func:`_step` per non-empty sequence, in order or in a
    seeded shuffle.  Reported likelihoods are exact, computed after each
    epoch against the receiving total summed afresh from the parameters.
    """
    if config.threads > 1:
        raise ValueError("train runs one process; use train_parallel for threads > 1")
    return _fit(data, config, init)


def train_parallel(data: Dataset, config: TrainConfig) -> tuple[ModelParams, TrainReport]:
    """Lock-free parallel training over forked workers and shared memory.

    :func:`train`'s loop, with the order split into one shard per worker:
    each epoch forks the workers, each runs the epoch body over its shard,
    streaming updates into the shared parameter and Adam blocks without
    locks (the decay slot excepted); the parent then swaps in the next
    epoch's decayed emitting totals, reports the exact likelihood, and
    resets the drifted receiving total to the fresh sum.  Results match
    sequential training statistically, not bitwise.  A worker that fails or
    dies raises an error naming it and the epoch; the others are reaped.
    """
    if config.threads < 2:
        raise ValueError("train_parallel needs threads >= 2; use train for one")
    return _fit(data, config, None, multiprocessing.get_context("fork"))
