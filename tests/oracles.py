"""Independent slow-path oracles used across the test suite.

Everything here is written against the math directly, scalar loops and all,
sharing no code with the package's evaluation paths.  Quadratic cost is the
point: these are only run on small instances.
"""

import math

import numpy as np

from sparsehawkes.model import Dataset, ModelParams, Sequence


def sp(x: float) -> float:
    """Scalar softplus with its own overflow branch."""
    if x > 30.0:
        return x + math.log1p(math.exp(-x))
    return math.log1p(math.exp(x))


def alpha_brute(params: ModelParams, x: int, y: int) -> float:
    if x == y:
        return sp(float(params.theta_self[x]))
    return sum(
        sp(float(params.theta_u[x, k])) * sp(float(params.theta_v[y, k]))
        for k in range(params.dim)
    )


def intensity_brute(params: ModelParams, seq: Sequence, x: int, t: float) -> float:
    beta = sp(params.theta_beta)
    lam = sp(float(params.theta_mu[x]))
    for ti, yi in zip(seq.times, seq.entities):
        if ti < t:
            lam += alpha_brute(params, x, int(yi)) * math.exp(-beta * (t - ti))
    return lam


def compensator_brute(params: ModelParams, seq: Sequence, x: int) -> float:
    beta = sp(params.theta_beta)
    total = sp(float(params.theta_mu[x])) * seq.horizon
    for ti, yi in zip(seq.times, seq.entities):
        total += (
            alpha_brute(params, x, int(yi))
            / beta
            * (1.0 - math.exp(-beta * (seq.horizon - ti)))
        )
    return total


def loglik_brute(params: ModelParams, data: Dataset) -> float:
    """Double-loop log-likelihood: every event against its full history,
    every entity's compensator in every sequence."""
    parts = []
    for seq in data.sequences:
        for ti, yi in zip(seq.times, seq.entities):
            parts.append(math.log(intensity_brute(params, seq, int(yi), float(ti))))
        for x in range(data.num_entities):
            parts.append(-compensator_brute(params, seq, x))
    return math.fsum(parts)


def pack(params: ModelParams) -> np.ndarray:
    return np.concatenate([
        params.theta_mu,
        [params.theta_beta],
        params.theta_self,
        params.theta_u.ravel(),
        params.theta_v.ravel(),
    ])


def unpack(vec: np.ndarray, num_entities: int, dim: int) -> ModelParams:
    n, d = num_entities, dim
    mu = vec[:n]
    beta = float(vec[n])
    self_block = vec[n + 1 : 2 * n + 1]
    u = vec[2 * n + 1 : 2 * n + 1 + n * d].reshape(n, d)
    v = vec[2 * n + 1 + n * d :].reshape(n, d)
    return ModelParams(mu.copy(), beta, self_block.copy(), u.copy(), v.copy(), d)


def fd_gradient(fn, params: ModelParams, step: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function of the parameters,
    over every raw coordinate, in pack() order."""
    x0 = pack(params)
    n, d = params.num_entities, params.dim
    grad = np.empty_like(x0)
    for i in range(len(x0)):
        hi = x0.copy()
        lo = x0.copy()
        hi[i] += step
        lo[i] -= step
        grad[i] = (fn(unpack(hi, n, d)) - fn(unpack(lo, n, d))) / (2.0 * step)
    return grad


def random_params(rng: np.random.Generator, n: int, d: int) -> ModelParams:
    return ModelParams(
        theta_mu=rng.normal(-2.5, 0.7, size=n),
        theta_beta=float(rng.normal(0.4, 0.4)),
        theta_self=rng.normal(-2.0, 0.5, size=n),
        theta_u=rng.normal(-1.5, 0.5, size=(n, d)),
        theta_v=rng.normal(-1.5, 0.5, size=(n, d)),
        dim=d,
    )


def random_sequence(rng: np.random.Generator, n_entities: int, max_events: int,
                    horizon: float | None = None) -> Sequence:
    if horizon is None:
        horizon = float(rng.uniform(2.0, 15.0))
    n_ev = int(rng.integers(0, max_events + 1))
    times = np.unique(rng.uniform(0.0, horizon, size=n_ev))
    entities = rng.integers(0, n_entities, size=len(times))
    return Sequence.from_arrays(times, entities, horizon)


def random_instance(
    rng: np.random.Generator,
    max_entities: int = 8,
    max_seqs: int = 5,
    max_events: int = 12,
    max_dim: int = 3,
    min_entities: int = 2,
):
    n = int(rng.integers(min_entities, max_entities + 1))
    d = int(rng.integers(1, max_dim + 1))
    params = random_params(rng, n, d)
    n_seq = int(rng.integers(1, max_seqs + 1))
    seqs = [random_sequence(rng, n, max_events) for _ in range(n_seq)]
    return params, Dataset(n, seqs)


def rel_close(a, b, rtol: float, atol: float = 0.0) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return bool(np.all(np.abs(a - b) <= atol + rtol * np.maximum(np.abs(a), np.abs(b))))


def reference_train(data: Dataset, config, init: ModelParams):
    """Sequential training as first written: the old per-sequence step.

    One step per non-empty sequence, in dataset order: the stepwise scan,
    the per-sequence gradient formulas (in their original form, which keeps
    the sequence-local emitting total the package's form cancels), Adam
    applied block by block, the receiving total refreshed row by row, and
    each sequence's decayed emitting total summed into the next epoch's.
    Unlike the rest of this module it reuses the package's stepwise
    reference scan and activations; what it pins down is the step around
    them.  Returns the final parameters and the brute-force log-likelihood
    after each epoch.
    """
    from sparsehawkes.model import softplus, softplus_grad
    from sparsehawkes.scan import sequence_stats_reference

    params = init.copy()
    n, d = params.num_entities, params.dim
    activity = data.activity_count
    horizons = np.array([s.horizon for s in data.sequences])
    absent = np.array([
        sum(h for k, h in enumerate(horizons) if k not in data.active_index[x])
        for x in range(n)
    ])
    g_mu_const = np.where(activity > 0, absent / np.maximum(activity, 1), 0.0)

    def decayed_total(seq):
        beta = sp(params.theta_beta)
        w = -np.expm1(-beta * (seq.horizon - seq.times))
        return w @ softplus(params.theta_v[seq.entities])

    u_hat = softplus(params.theta_u).sum(axis=0)
    z_hat = sum((decayed_total(s) for s in data.sequences if len(s)), np.zeros(d))
    blocks = ("theta_mu", "theta_self", "theta_u", "theta_v")
    moments = {b: [np.zeros_like(getattr(params, b)), np.zeros_like(getattr(params, b)),
                   np.zeros(n, dtype=np.int64)] for b in blocks}
    beta_moments = [0.0, 0.0, 0]
    b1, b2, lr, eps = config.adam_beta1, config.adam_beta2, config.learning_rate, config.adam_eps

    def adam(m, v, t, idx, grad):
        g = -grad
        t[idx] += 1
        steps = t[idx] if g.ndim == 1 else t[idx][:, None]
        m[idx] = b1 * m[idx] + (1.0 - b1) * g
        v[idx] = b2 * v[idx] + (1.0 - b2) * g * g
        return lr * (m[idx] / (1.0 - b1**steps)) / (np.sqrt(v[idx] / (1.0 - b2**steps)) + eps)

    logliks = []
    for _ in range(config.epochs):
        z_next = np.zeros(d)
        for seq in data.sequences:
            if len(seq) == 0:
                continue
            z_next += decayed_total(seq)
            st = sequence_stats_reference(params, seq, gradients=True)
            act = st.active
            beta = sp(params.theta_beta)
            g_self = st.r_over_lam - st.q / beta
            grads = {
                "theta_mu": st.inv_lam - seq.horizon - g_mu_const[act],
                "theta_self": g_self,
                "theta_u": (st.s_over_lam - st.v_act * st.r_over_lam[:, None]
                            - (st.z[None, :] - st.v_act * st.q[:, None]) / beta
                            + (st.z[None, :] - z_hat[None, :] / activity[act][:, None]) / beta),
                "theta_v": (st.p_rev - st.u_act * st.r_over_lam[:, None]
                            - (u_hat[None, :] - st.u_act) * st.q[:, None] / beta),
            }
            g_beta = (st.beta_log + (u_hat @ st.z + st.c_act @ st.q) / beta**2
                      - (u_hat @ st.z_beta + st.c_act @ st.q_beta) / beta)
            old_u = params.theta_u[act].copy()
            for b in blocks:
                raw = grads[b] * softplus_grad(getattr(params, b)[act])
                getattr(params, b)[act] -= adam(*moments[b], act, raw)
            g = -float(g_beta * softplus_grad(params.theta_beta))
            m, v, t = beta_moments
            t += 1
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g * g
            beta_moments = [m, v, t]
            params.theta_beta -= lr * (m / (1.0 - b1**t)) / (math.sqrt(v / (1.0 - b2**t)) + eps)
            for k, x in enumerate(act):
                u_hat += softplus(params.theta_u[x]) - softplus(old_u[k])
        z_hat = z_next
        logliks.append(loglik_brute(params, data))
    return params, logliks
