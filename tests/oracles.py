"""Independent slow-path oracles used across the test suite.

The brute-force oracles (``alpha_brute``, ``intensity_brute``,
``compensator_brute``, ``loglik_brute``, ``fd_gradient``) are written against
the math directly, scalar loops and all, sharing no code with the package's
evaluation paths.  Quadratic cost is the point: these are only run on small
instances.

The rest are earlier formulations of package code, kept here because tests
compare the package against them:

- ``SequenceScan`` and ``sequence_stats_reference``: the event-by-event
  (Ozaki 1979) recursion that the banded scan vectorises, returning one
  sequence's statistics as a ``SequenceStats``; ``stats_at`` slices the same
  fields out of a scan's ``BatchStats``.  They reuse the package's
  ``softplus`` and ``ModelParams.beta``.
- ``chain_carries_reference``: the banded scan's cross-band carries as a
  level-by-level loop over chains of band records, vectorised across chains.
- ``reference_train``: the first per-sequence training step, run on that
  scan.
- ``reference_read_cascade_file``: the line-by-line cascade parser.
"""

import math
from dataclasses import dataclass

import numpy as np

from sparsehawkes.data_io import CascadeFile, CascadeFormatError
from sparsehawkes.model import Dataset, ModelParams, NumericalDivergenceError, Sequence, softplus


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


# ---------------------------------------------------------------------------
# the banded scan's carries


def chain_carries_reference(first_flags, g, totals, reverse, width):
    """Cross-band carries along chains of consecutive band records.

    Chains are maximal runs marked by ``first_flags``; ``g`` holds each
    band's integer phase index, ``totals`` its summed weights and ``width``
    the phase width of a band.  Forward carries accumulate everything before
    a band, decayed to the band's start; reverse carries accumulate
    everything after it, decayed so that one more factor of
    ``exp(pos - width)`` lands on the consuming row.  Bands of a chain are
    processed level by level, vectorised across chains.  Returns None when
    every chain is a single band.
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
            fac = np.exp((gf[prev] - gf[idx]) * width)
            carr[idx] = fac[expand] * (carr[prev] + totals[prev])
    else:
        last_flags = np.empty(ne, dtype=bool)
        last_flags[:-1] = first_flags[1:]
        last_flags[-1] = True
        dec = math.exp(-width)
        for k in range(kmax - 1, -1, -1):
            idx = ((rank == k) & ~last_flags).nonzero()[0]
            nxt = idx + 1
            fac = np.exp((gf[idx] - gf[nxt] + 1.0) * width)
            carr[idx] = fac[expand] * (totals[nxt] + dec * carr[nxt])
    return carr


# ---------------------------------------------------------------------------
# the event-by-event recursion


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
    package's engines use the banded array scan, which the tests check against
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


def stats_at(batch, k: int) -> SequenceStats:
    """Sequence ``k``'s statistics sliced out of a ``BatchStats``'s slot tables."""
    o0 = int(batch.seq_slot_start[k])
    o1 = int(batch.seq_slot_start[k + 1])
    sl = slice(o0, o1)
    g = batch.inv_lam is not None
    return SequenceStats(
        active=batch.slot_entity[sl],
        mu_act=batch.mu_slot[sl],
        u_act=batch.u_slot[sl],
        v_act=batch.v_slot[sl],
        c_act=batch.c_slot[sl],
        counts=batch.counts[sl],
        loglam=float(batch.loglam[k]),
        z=batch.z[k],
        q=batch.q[sl],
        inv_lam=batch.inv_lam[sl] if g else None,
        r_over_lam=batch.r_over_lam[sl] if g else None,
        s_over_lam=batch.s_over_lam[sl] if g else None,
        p_rev=batch.p_rev[sl] if g else None,
        beta_log=float(batch.beta_log[k]) if g else 0.0,
        z_beta=batch.z_beta[k] if g else None,
        q_beta=batch.q_beta[sl] if g else None,
    )


def reference_train(data: Dataset, config, init: ModelParams):
    """Sequential training as first written: the old per-sequence step.

    One step per non-empty sequence, in dataset order: the stepwise scan,
    the per-sequence gradient formulas (in their original form, which keeps
    the sequence-local emitting total the package's form cancels), Adam
    applied block by block, the receiving total refreshed row by row, and
    each sequence's decayed emitting total summed into the next epoch's.
    It runs on :func:`sequence_stats_reference` above and reuses the
    package's activations (``softplus``, ``softplus_grad``); what it pins
    down is the step around them.  Returns the final parameters and the
    brute-force log-likelihood after each epoch.
    """
    from sparsehawkes.model import softplus_grad

    params = init.copy()
    n, d = params.num_entities, params.dim
    activity = data.activity_count
    absent = np.array([
        sum(s.horizon for s in data.sequences if x not in s.entities) for x in range(n)
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


def reference_read_cascade_file(path) -> CascadeFile:
    """The cascade parser written line by line: one tuple per event, a sort
    and a validated ``Sequence`` per sequence, errors raised as each line is
    read.  The package's chunked columnar parser must agree with it on the
    vocabulary, the dataset and every error message."""
    path = str(path)
    label_index: dict[str, int] = {}
    vocabulary: list[str] = []
    # per sequence id: list of (timestamp, entity, line_no), declared horizon
    events: dict[str, list[tuple[float, int, int]]] = {}
    horizons: dict[str, tuple[float, int]] = {}
    order: list[str] = []
    pending_horizon: tuple[float, int] | None = None

    with open(path, encoding="utf-8-sig") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if not line:
                continue
            if line.startswith("#"):
                parts = line.split()
                if parts[0] != "#horizon" or len(parts) != 2:
                    raise CascadeFormatError(
                        f"line {line_no}: unknown directive {parts[0]!r}"
                    )
                if pending_horizon is not None:
                    raise CascadeFormatError(
                        f"line {line_no}: horizon directive follows another with no "
                        "event line between them"
                    )
                try:
                    value = float(parts[1])
                except ValueError:
                    raise CascadeFormatError(
                        f"line {line_no}: horizon {parts[1]!r} is not a number"
                    ) from None
                if not math.isfinite(value) or value <= 0:
                    raise CascadeFormatError(
                        f"line {line_no}: horizon must be a finite positive number"
                    )
                pending_horizon = (value, line_no)
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise CascadeFormatError(
                    f"line {line_no}: expected 3 tab-separated fields, got {len(fields)}"
                )
            seq_id, label, stamp_text = fields
            if not seq_id or not label:
                raise CascadeFormatError(
                    f"line {line_no}: empty sequence id or entity label"
                )
            try:
                stamp = float(stamp_text)
            except ValueError:
                raise CascadeFormatError(
                    f"line {line_no}: timestamp {stamp_text!r} is not a number"
                ) from None
            if not math.isfinite(stamp):
                raise CascadeFormatError(f"line {line_no}: timestamp must be finite")
            if stamp < 0:
                raise CascadeFormatError(f"line {line_no}: negative timestamp")
            if pending_horizon is not None:
                if seq_id in horizons:
                    raise CascadeFormatError(
                        f"line {pending_horizon[1]}: duplicate horizon for sequence "
                        f"{seq_id!r} (first given on line {horizons[seq_id][1]})"
                    )
                horizons[seq_id] = pending_horizon
                pending_horizon = None
            entity = label_index.get(label)
            if entity is None:
                entity = len(vocabulary)
                label_index[label] = entity
                vocabulary.append(label)
            bucket = events.get(seq_id)
            if bucket is None:
                bucket = []
                events[seq_id] = bucket
                order.append(seq_id)
            bucket.append((stamp, entity, line_no))

    if pending_horizon is not None:
        raise CascadeFormatError(
            f"line {pending_horizon[1]}: horizon directive with no event line after it"
        )
    if not order:
        raise CascadeFormatError(f"{path}: no sequences")

    sequences = []
    for seq_id in order:
        rows = sorted(events[seq_id], key=lambda r: r[0])
        for (t0, _, _), (t1, _, ln) in zip(rows, rows[1:]):
            if t1 == t0:
                raise CascadeFormatError(
                    f"line {ln}: duplicate timestamp {t1!r} in sequence {seq_id!r}"
                )
        declared = horizons.get(seq_id)
        horizon = declared[0] if declared is not None else rows[-1][0]
        if horizon <= 0:
            raise CascadeFormatError(
                f"sequence {seq_id!r}: all timestamps are 0 and no horizon was given"
            )
        beyond = next((r for r in rows if r[0] > horizon), None)
        if beyond is not None:
            raise CascadeFormatError(
                f"line {beyond[2]}: timestamp {beyond[0]!r} exceeds the horizon "
                f"{horizon!r} of sequence {seq_id!r}"
            )
        sequences.append(
            Sequence.from_arrays(
                [r[0] for r in rows], [r[1] for r in rows], horizon
            )
        )
    return CascadeFile(path=path, vocabulary=vocabulary, dataset=Dataset(len(vocabulary), sequences))
