"""Synthetic ground truth: influence graphs and exact event sampling.

The generator grows a directed graph by preferential attachment (three-case
edge growth with in/out degree smoothing), optionally compresses it to a
low-rank non-negative matrix, rescales for stability, and samples event
sequences by thinning.  Residual transforms for goodness-of-fit close the
loop: sequences sampled from a model should look like unit-rate Poisson
after rescaling by that model's compensator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Dataset, ModelParams, Sequence, softplus

__all__ = [
    "UnstableConfigurationError",
    "GroundTruth",
    "thinning_sample",
    "synthetic_dataset",
    "time_rescaling_residuals",
]

# sample_scale_free_graph's chances that a step adds a node pointing at an old
# one and that it joins two old nodes (the rest, 0.05, adds a node an old one
# points at), and its in- and out-degree smoothing terms.
_ALPHA_IN, _BETA_FRAC = 0.41, 0.54
_DELTA_IN, _DELTA_OUT = 0.2, 0.0


class UnstableConfigurationError(ValueError):
    """The requested process would explode (branching ratio at or above 1)."""


def spectral_radius_estimate(values: np.ndarray, iterations: int = 200) -> float:
    """Largest-eigenvalue magnitude via power iteration.

    For the non-negative matrices used here the dominant eigenvalue is real
    and non-negative, so iterating from a strictly positive vector converges
    to it; the estimate is deterministic.  Sparse inputs (such as adjacency
    matrices) are iterated through their edge list so the cost tracks the
    number of nonzeros rather than n^2.
    """
    n = values.shape[0]
    if n == 0:
        return 0.0
    nnz = int(np.count_nonzero(values))
    if nnz == 0:
        return 0.0
    if nnz * 8 < values.size:
        rows, cols = np.nonzero(values)
        vals = values[rows, cols].astype(np.float64)

        def matvec(x: np.ndarray) -> np.ndarray:
            return np.bincount(rows, weights=vals * x[cols], minlength=n)

    else:
        dense = np.asarray(values, dtype=np.float64)

        def matvec(x: np.ndarray) -> np.ndarray:
            return dense @ x

    x = np.full(n, 1.0 / math.sqrt(n))
    rho = 0.0
    for _ in range(iterations):
        y = matvec(x)
        norm = float(np.linalg.norm(y))
        if norm == 0.0 or not math.isfinite(norm):
            return 0.0 if norm == 0.0 else float("inf")
        if abs(norm - rho) <= 1e-12 * norm:
            return norm
        rho = norm
        x = y / norm
    return rho


@dataclass
class InfluenceMatrix:
    """A non-negative influence matrix plus a spectral-radius estimate."""

    values: np.ndarray
    spectral_note: float

    @classmethod
    def from_values(cls, values: np.ndarray, iterations: int = 60) -> "InfluenceMatrix":
        values = np.asarray(values)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValueError(f"influence matrix must be square, got {values.shape}")
        if np.any(values < 0):
            raise ValueError("influence matrix entries must be non-negative")
        return cls(values=values, spectral_note=spectral_radius_estimate(values, iterations))


@dataclass
class GroundTruth:
    """The generating parameters of a synthetic dataset, in natural scale."""

    mu: np.ndarray
    beta: float
    alpha: np.ndarray


def sample_scale_free_graph(n: int, seed: int) -> InfluenceMatrix:
    """Directed scale-free graph grown edge by edge.

    Each step does one of three things: attach a new node pointing at a
    target chosen by in-degree (probability ``_ALPHA_IN``), add an edge
    between existing nodes chosen by out- and in-degree (``_BETA_FRAC``), or
    attach a new node receiving an edge from a source chosen by out-degree
    (the remaining 0.05).  The deltas smooth the degree-proportional choices
    so degree-zero nodes stay reachable.  Growth stops when ``n`` nodes
    exist; the returned adjacency is binary with parallel edges collapsed.
    """
    if n < 2:
        raise ValueError("need at least 2 nodes")

    adj = np.zeros((n, n), dtype=np.uint8)
    # Deterministic two-node seed: a directed 2-cycle, so both in- and
    # out-degree mass exist from the start.
    adj[0, 1] = 1
    adj[1, 0] = 1
    out_ends = [0, 1]
    in_ends = [1, 0]
    num_nodes = 2
    if n == 2:
        return InfluenceMatrix.from_values(adj)

    rng = np.random.default_rng(np.random.PCG64(seed))

    def pick(ends: list[int], delta: float) -> int:
        """A node by its degree among ``ends``, smoothed by ``delta``."""
        total_deg = len(ends)
        if rng.random() * (total_deg + num_nodes * delta) < total_deg:
            return ends[int(rng.integers(total_deg))]
        return int(rng.integers(num_nodes))

    while num_nodes < n:
        r = rng.random()
        if r < _ALPHA_IN:
            w = pick(in_ends, _DELTA_IN)
            v = num_nodes
            num_nodes += 1
        elif r < _ALPHA_IN + _BETA_FRAC:
            v = pick(out_ends, _DELTA_OUT)
            w = pick(in_ends, _DELTA_IN)
        else:
            v = pick(out_ends, _DELTA_OUT)
            w = num_nodes
            num_nodes += 1
        out_ends.append(v)
        in_ends.append(w)
        adj[v, w] = 1

    return InfluenceMatrix.from_values(adj)


def low_rank_approximation(matrix: InfluenceMatrix | np.ndarray, rank: int) -> InfluenceMatrix:
    """Best rank-k approximation by truncated SVD, clamped to stay non-negative."""
    values = matrix.values if isinstance(matrix, InfluenceMatrix) else np.asarray(matrix)
    if rank < 1 or rank > min(values.shape):
        raise ValueError(f"rank must be in [1, {min(values.shape)}], got {rank}")
    u, s, vt = np.linalg.svd(values.astype(np.float64), full_matrices=False)
    approx = (u[:, :rank] * s[:rank]) @ vt[:rank]
    np.maximum(approx, 0.0, out=approx)
    return InfluenceMatrix.from_values(approx)


def rescale_for_stability(
    matrix: InfluenceMatrix, beta: float, target: float = 0.8
) -> InfluenceMatrix:
    """Shrink the influence matrix so its branching ratio is at most ``target``.

    The expected offspring count per event is governed by the spectral radius
    of alpha/beta; keeping it under 1 keeps sampled sequences finite.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    rho = matrix.spectral_note
    ratio = rho / beta
    if rho == 0.0 or ratio <= target:
        return matrix
    scale = target * beta / rho
    return InfluenceMatrix(values=matrix.values * scale, spectral_note=rho * scale)


def thinning_sample(
    mu: np.ndarray,
    beta: float,
    alpha: InfluenceMatrix | np.ndarray,
    horizon: float,
    seed,
) -> Sequence:
    """Exact draw from the process by thinning.

    Between events the total intensity only decays, so the value just after
    the latest state change is a valid dominating rate: propose exponential
    waits under it, accept with the ratio of true to dominating intensity,
    then attribute the event proportionally to per-entity intensities.
    """
    if isinstance(alpha, InfluenceMatrix):
        rho = alpha.spectral_note
        alpha_values = alpha.values
    else:
        alpha_values = np.asarray(alpha, dtype=np.float64)
        rho = spectral_radius_estimate(alpha_values)
    mu = np.asarray(mu, dtype=np.float64)
    n = len(mu)
    if alpha_values.shape != (n, n):
        raise ValueError(f"alpha must be ({n}, {n}), got {alpha_values.shape}")
    if np.any(mu < 0) or beta <= 0 or horizon <= 0:
        raise ValueError("mu must be non-negative, beta and horizon positive")
    branching = rho / beta
    if branching >= 1.0:
        raise UnstableConfigurationError(
            f"branching ratio {branching:.3f} >= 1; expected event count diverges"
        )
    mu_total = float(mu.sum())
    if mu_total == 0.0:
        return Sequence.from_arrays([], [], horizon)
    expected = mu_total * horizon / (1.0 - branching)
    cap = int(10.0 * expected) + 1000

    rng = np.random.default_rng(seed)
    alpha_f = alpha_values.astype(np.float64)
    excitation = np.zeros(n)
    t = 0.0
    times: list[float] = []
    entities: list[int] = []
    while True:
        lam_bar = mu_total + float(excitation.sum())
        dt = rng.exponential(1.0 / lam_bar)
        if dt == 0.0:
            continue
        t_new = t + dt
        if t_new > horizon:
            break
        excitation *= math.exp(-beta * dt)
        t = t_new
        lam_total = mu_total + float(excitation.sum())
        if rng.random() * lam_bar <= lam_total:
            rates = mu + excitation
            cum = np.cumsum(rates)
            x = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
            x = min(x, n - 1)
            times.append(t)
            entities.append(x)
            excitation += alpha_f[:, x]
            if len(times) > cap:
                raise UnstableConfigurationError(
                    f"sampled {len(times)} events against an expectation of "
                    f"{expected:.1f}; configuration is effectively unstable"
                )
    return Sequence.from_arrays(times, entities, horizon)


def synthetic_dataset(
    nodes: int,
    sequences: int,
    beta: float,
    mu_rate: float,
    horizon: float,
    seed: int,
    rank: int | None = None,
) -> tuple[Dataset, GroundTruth]:
    """Scale-free graph -> (optional) low-rank compression -> stable rescale
    (to branching ratio 0.8) -> independently seeded sequence draws."""
    if sequences < 1:
        raise ValueError("sequences must be >= 1")
    root = np.random.SeedSequence(seed)
    graph_seed, sampling_seed = root.spawn(2)
    graph = sample_scale_free_graph(nodes, seed=int(graph_seed.generate_state(1)[0]))
    # the estimate iterates in float64 either way, so the graph's note holds
    influence = InfluenceMatrix(graph.values.astype(np.float64), graph.spectral_note)
    if rank is not None:
        influence = low_rank_approximation(influence, rank)
    influence = rescale_for_stability(influence, beta)
    mu = np.full(nodes, float(mu_rate))
    seqs = [
        thinning_sample(mu, beta, influence, horizon, seed=child)
        for child in sampling_seed.spawn(sequences)
    ]
    truth = GroundTruth(mu=mu, beta=float(beta), alpha=influence.values)
    return Dataset(nodes, seqs), truth


def _column_influence(model: ModelParams | GroundTruth) -> tuple[np.ndarray, float, float]:
    """Per-source-entity total outgoing influence, plus beta and total mu."""
    if isinstance(model, GroundTruth):
        return model.alpha.sum(axis=0), float(model.beta), float(model.mu.sum())
    u = model.factors_u()
    v = model.factors_v()
    u_sum = u.sum(axis=0)
    col = v @ u_sum - np.einsum("ij,ij->i", u, v) + softplus(model.theta_self)
    return col, model.beta(), float(model.mu().sum())


def time_rescaling_residuals(model: ModelParams | GroundTruth, seq: Sequence) -> np.ndarray:
    """Compensator increments of the pooled process between consecutive events.

    Under the model that generated the sequence these are i.i.d. unit-mean
    exponentials, which is what the goodness-of-fit tests check.
    """
    n = len(seq)
    out = np.empty(n)
    if n == 0:
        return out
    col, beta, mu_total = _column_influence(model)
    state = 0.0  # decayed total outgoing influence of past events
    prev = 0.0
    for i in range(n):
        dt = seq.times[i] - prev
        decay = math.exp(-beta * dt)
        out[i] = mu_total * dt + state * (1.0 - decay) / beta
        state = state * decay + float(col[seq.entities[i]])
        prev = seq.times[i]
    return out
