"""Exact log-likelihood of the factorised Hawkes model, straight from its definition.

The intensity of entity x at time t is

    lambda_x(t) = mu_x + sum_{t_j < t} alpha[x, y_j] exp(-beta (t - t_j)),
    alpha[x, y] = u_x . v_y for x != y,  alpha[x, x] = s_x,

with mu, beta, s, u, v the softplus of the raw parameters.  Each sequence
contributes the log-intensities at its events, computed here as direct
history sums, minus the compensator summed over the whole universe,

    T sum_x mu_x + (1 / beta) sum_j (u_sum . v_{y_j} - u_{y_j} . v_{y_j} + s_{y_j})
                                     (1 - exp(-beta (T - t_j))),

where the bracket is the column sum sum_x alpha[x, y_j].  Nothing here shares
code with the package's engines; the only import from it is ``ModelParams``,
so a fault in the scans, caches or gradient formulas cannot hide in both.

A history term whose exponent beta * (t_i - t_j) exceeds 750 is exactly 0.0
in float64, so the history sums skip those pairs without changing a bit.
"""

from __future__ import annotations

import math

import numpy as np

from sparsehawkes.model import ModelParams

EPS = np.finfo(np.float64).eps
# exp(-750) rounds to +0.0 in float64 (the least subnormal is exp(-744.4)).
_UNDERFLOW = 750.0
# Elements per block of the pairwise history tables, and the most rows of
# one long sequence per block (each row's block width is its window plus the
# block's height, so short blocks waste less of the triangle).
_BLOCK = 1 << 20
_ROWS = 64


def softplus(x):
    return np.logaddexp(0.0, x)


def softplus_inv(y):
    return y + math.log(-math.expm1(-y))


def _flat(params: ModelParams) -> np.ndarray:
    """Raw parameters as one vector, in the order (mu, beta, self, u, v)."""
    return np.concatenate([
        params.theta_mu, [params.theta_beta], params.theta_self,
        params.theta_u.ravel(), params.theta_v.ravel(),
    ])


def _unflat(x: np.ndarray, n: int, d: int):
    mu = x[:n]
    beta = x[n]
    s = x[n + 1:2 * n + 1]
    u = x[2 * n + 1:2 * n + 1 + n * d].reshape(n, d)
    v = x[2 * n + 1 + n * d:].reshape(n, d)
    return mu, beta, s, u, v


def _terms(x: np.ndarray, n: int, d: int, seqs) -> np.ndarray:
    """Every additive term of the log-likelihood, as one array."""
    th_mu, th_beta, th_s, th_u, th_v = _unflat(x, n, d)
    mu, s, u, v = softplus(th_mu), softplus(th_s), softplus(th_u), softplus(th_v)
    beta = float(softplus(th_beta))
    column = v @ u.sum(axis=0) - np.einsum("ij,ij->i", u, v) + s
    mu_total = math.fsum(mu)
    out = []
    by_len: dict[int, list] = {}
    for labels, times, horizon in seqs:
        out.append(np.array([-horizon * mu_total]))
        if len(labels):
            w = -np.expm1(-beta * (horizon - times))
            out.append(-(column[labels] * w) / beta)
            by_len.setdefault(len(labels), []).append((labels, times))
    for m, group in by_len.items():
        ys = np.array([g[0] for g in group])
        ts = np.array([g[1] for g in group])
        out.append(_log_intensities(ys, ts, mu, beta, s, u, v).ravel())
    return np.concatenate(out)


def _log_intensities(ys, ts, mu, beta, s, u, v):
    """log lambda at each event of equal-length sequences ``ys``/``ts`` (G, m)."""
    g_all, m = ys.shape
    out = np.empty((g_all, m))
    per_seq = max(1, _BLOCK // (m * m))
    for g0 in range(0, g_all, per_seq):
        y = ys[g0:g0 + per_seq]
        t = ts[g0:g0 + per_seq]
        rows = max(1, min(_ROWS, _BLOCK // (len(y) * m))) if m > _ROWS else m
        for r0 in range(0, m, rows):
            r1 = min(m, r0 + rows)
            # first column any row of the block can still see above underflow
            c0 = int(min(np.searchsorted(tk, tk[r0] - _UNDERFLOW / beta) for tk in t)) if r0 else 0
            yi, yj = y[:, r0:r1], y[:, c0:r1]
            amat = np.matmul(u[yi], v[yj].transpose(0, 2, 1))
            same = yi[:, :, None] == yj[:, None, :]
            amat = np.where(same, s[yi][:, :, None], amat)
            earlier = np.arange(r0, r1)[:, None] > np.arange(c0, r1)[None, :]
            lag = np.where(earlier, t[:, r0:r1, None] - t[:, None, c0:r1], np.inf)
            np.exp(np.multiply(lag, -beta, out=lag), out=lag)
            excitation = np.einsum("gij,gij->gi", amat, lag)
            out[g0:g0 + len(y), r0:r1] = np.log(mu[yi] + excitation)
    return out


def log_likelihood(params: ModelParams, seqs) -> float:
    """Exact log-likelihood of ``seqs``, a list of (entities, times, horizon)."""
    return math.fsum(_terms(_flat(params), params.num_entities, params.dim, seqs))


def directional_check(params: ModelParams, seqs, grad_flat: np.ndarray,
                      rng: np.random.Generator, directions: int):
    """Compare ``grad_flat . e`` with central differences along random unit e.

    Returns a list of ``(analytic, numeric, tolerance)``.  The tolerance is
    the step error of the central difference: a rounding part, 64 ulps of
    the summed term magnitudes divided by the step, plus a truncation part,
    estimated by the gap between the differences at steps h and 2h (the
    truncation error of the h step is about a third of that gap).
    """
    n, d = params.num_entities, params.dim
    x0 = _flat(params)
    scale = float(np.abs(_terms(x0, n, d, seqs)).sum())
    h = 1e-4
    out = []
    for _ in range(directions):
        e = rng.standard_normal(x0.size)
        e /= np.linalg.norm(e)
        f = {k: math.fsum(_terms(x0 + k * h * e, n, d, seqs)) for k in (-2, -1, 1, 2)}
        d1 = (f[1] - f[-1]) / (2 * h)
        d2 = (f[2] - f[-2]) / (4 * h)
        tol = 64 * EPS * scale / h + abs(d1 - d2)
        out.append((float(grad_flat @ e), d1, tol))
    return out


def self_test():
    """Two events on two entities, worked by hand with d = 1 and beta = 1.

    mu = (0.5, 0.25), s = (0.3, 0.2), u = (1, 2), v = (0.5, 1.5); entity 0
    fires at t = 1, entity 1 at t = 2, horizon 3.  lambda_0(1) = 0.5 and
    lambda_1(2) = 0.25 + u_1 v_0 e^-1.  The first event adds s_0 + u_1 v_0
    = 1.3 of column mass over (1 - e^-2); the second u_0 v_1 + s_1 = 1.7
    over (1 - e^-1); the background owes 3 * 0.75.
    """
    inv = np.vectorize(softplus_inv)
    params = ModelParams(
        theta_mu=inv([0.5, 0.25]),
        theta_beta=softplus_inv(1.0),
        theta_self=inv([0.3, 0.2]),
        theta_u=inv([[1.0], [2.0]]),
        theta_v=inv([[0.5], [1.5]]),
        dim=1,
    )
    seqs = [(np.array([0, 1]), np.array([1.0, 2.0]), 3.0)]
    e1, e2 = math.exp(-1.0), math.exp(-2.0)
    expected = (math.log(0.5) + math.log(0.25 + e1) - 2.25
                - 1.3 * (1 - e2) - 1.7 * (1 - e1))
    got = log_likelihood(params, seqs)
    if not abs(got - expected) <= 1e-12 * abs(expected):
        raise AssertionError(f"oracle self-test: {got!r} != {expected!r}")
