"""Recovery metrics, held-out likelihood, and engine benchmarking.

Metrics always live on the natural parameter scale (rates and kernel
weights after the activation), never on the raw pre-activation values, so
two parameterizations describing the same process score the same.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .dense import dense_gradient
from .lazy import _gradient, _log_likelihood
from .model import Dataset, ModelParams, influence_matrix, softplus_inv

__all__ = [
    "RecoveryReport",
    "BenchmarkResult",
    "rmse_params",
    "holdout_loglik",
    "runtime_benchmark",
]


@dataclass
class RecoveryReport:
    """How close estimated parameters are to a known ground truth.

    ``rmse_alpha`` averages over all ordered entity pairs, diagonal
    included.  ``loglik`` is whatever per-event likelihood the caller chose
    to attach (nan when none was computed).
    """

    rmse_mu: float
    rmse_beta: float
    rmse_alpha: float
    loglik: float
    config: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("rmse_mu", "rmse_beta", "rmse_alpha"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


def _unpack_truth(truth):
    if hasattr(truth, "mu"):
        return (
            np.asarray(truth.mu, dtype=float),
            float(truth.beta),
            np.asarray(truth.alpha, dtype=float),
        )
    mu, beta, alpha = truth
    return np.asarray(mu, dtype=float), float(beta), np.asarray(alpha, dtype=float)


def rmse_params(estimated: ModelParams, truth, loglik: float = float("nan")) -> RecoveryReport:
    """Root-mean-square recovery error of rates, decay, and influence.

    ``truth`` is either an object with ``mu``, ``beta``, ``alpha``
    attributes or a plain ``(mu, beta, alpha)`` triple, all on the natural
    scale.
    """
    mu, beta, alpha = _unpack_truth(truth)
    n = estimated.num_entities
    if mu.shape != (n,):
        raise ValueError(f"truth mu has shape {mu.shape}, expected ({n},)")
    if alpha.shape != (n, n):
        raise ValueError(f"truth alpha has shape {alpha.shape}, expected ({n}, {n})")

    mu_err = estimated.mu() - mu
    alpha_err = influence_matrix(estimated) - alpha
    return RecoveryReport(
        rmse_mu=float(np.sqrt(np.mean(mu_err**2))),
        rmse_beta=abs(estimated.beta() - beta),
        rmse_alpha=float(np.sqrt(np.mean(alpha_err**2))),
        loglik=loglik,
        config={"num_entities": n, "dim": estimated.dim},
    )


def holdout_loglik(params: ModelParams, data: Dataset) -> float:
    """Exact log-likelihood of held-out sequences, divided by event count.

    Per-event normalization makes values comparable across datasets of
    different sizes; duplicating every sequence leaves it unchanged.
    """
    total = data.total_events
    if total == 0:
        raise ValueError("held-out data has zero events; nothing to score")
    return _log_likelihood(params, data, params.factors_u().sum(axis=0)) / total


@dataclass
class BenchmarkResult:
    """Wall-clock timings of one engine's full-dataset gradient pass."""

    engine: str
    repetitions: int
    median_seconds: float
    spread_seconds: float
    times: list[float]


def runtime_benchmark(engine: str, data: Dataset, repetitions: int = 5,
                      params: ModelParams | None = None,
                      seed: int = 0) -> BenchmarkResult:
    """Time full-dataset gradient passes; parsing and setup stay outside.

    The timed region is one complete epoch-style gradient computation: for
    the lazy engine that includes summing both global totals afresh, ``u_hat``
    from the parameters and ``z_hat`` from the data, since a real epoch pays
    those linear terms too.
    """
    if engine not in ("dense", "lazy"):
        raise ValueError(f"unknown engine {engine!r}; expected 'dense' or 'lazy'")
    if repetitions < 1:
        raise ValueError("repetitions must be at least 1")
    if params is None:
        rng = np.random.default_rng(seed)
        n = data.num_entities
        params = ModelParams(
            theta_mu=rng.normal(-2.0, 0.1, size=n),
            theta_beta=softplus_inv(1.0),
            theta_self=rng.normal(-2.0, 0.1, size=n),
            theta_u=rng.normal(-2.0, 0.1, size=(n, 4)),
            theta_v=rng.normal(-2.0, 0.1, size=(n, 4)),
            dim=4,
        )

    times = []
    for _ in range(repetitions):
        start = time.perf_counter()
        if engine == "dense":
            dense_gradient(params, data)
        else:
            _gradient(params, data, params.factors_u().sum(axis=0))
        times.append(time.perf_counter() - start)

    arr = np.array(times)
    return BenchmarkResult(
        engine=engine,
        repetitions=repetitions,
        median_seconds=float(np.median(arr)),
        spread_seconds=float(np.percentile(arr, 75) - np.percentile(arr, 25)),
        times=times,
    )


def write_recovery_tsv(path, report: RecoveryReport):
    """Key-value TSV of a recovery report."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("metric\tvalue\n")
        fh.write(f"rmse_mu\t{report.rmse_mu!r}\n")
        fh.write(f"rmse_beta\t{report.rmse_beta!r}\n")
        fh.write(f"rmse_alpha\t{report.rmse_alpha!r}\n")
        fh.write(f"loglik\t{report.loglik!r}\n")
        for key in sorted(report.config):
            fh.write(f"config.{key}\t{report.config[key]}\n")


def write_benchmark_tsv(path, results):
    """One row per benchmark result."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("engine\trepetitions\tmedian_seconds\tspread_seconds\n")
        for r in results:
            fh.write(f"{r.engine}\t{r.repetitions}\t{r.median_seconds!r}\t{r.spread_seconds!r}\n")
