"""Seeded generators for the benchmark's three data shapes.

Each workload is written as two cascade text files: a training file and a
held-out file.  Every held-out label also occurs in the training file, since
``sparsehawkes eval`` refuses labels its checkpoint has never seen.  The
program under test receives only these files (and, for the engine passes, a
``Dataset`` parsed from them); nothing here imports the package.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Shape:
    """Make-up of one workload.

    ``entities`` is the universe the training file covers exactly; ``dim``
    is the embedding rank trained and evaluated with; ``epochs`` is the
    length of each ``sparsehawkes train`` run.
    """

    name: str
    entities: int
    dim: int
    epochs: int
    train_seqs: int
    heldout_seqs: int
    events_per_seq: int


SHAPES = {
    s.name: s
    for s in (
        # The paper's regime: a wide universe, each sequence touching five
        # entities.  The first entities/5 sequences partition a permutation
        # of the universe, so every entity is active somewhere.
        Shape("short-wide", entities=10_000, dim=20, epochs=2,
              train_seqs=2_000, heldout_seqs=1_000, events_per_seq=5),
        # Same sequence shape over 50 entities: every row is hot.
        Shape("short-narrow", entities=50, dim=5, epochs=2,
              train_seqs=2_000, heldout_seqs=1_000, events_per_seq=5),
        # Few long sequences, each over its own pool of 100 entities, with
        # a phase span (beta * t at beta = 1) of about 3990, i.e. 11 bands.
        Shape("long-bands", entities=1_000, dim=20, epochs=10,
              train_seqs=20, heldout_seqs=4, events_per_seq=2_000),
    )
}

SHORT_HORIZON = 10.0
LONG_HORIZON = 4_000.0
LONG_SPAN = 3_990.0
LONG_POOL = 100


@dataclass
class Inputs:
    """Paths of the written files plus the sequences they hold.

    ``train`` and ``heldout`` are lists of ``(entity ids, times, horizon)``
    with the generator's own entity ids; the files label entity ``x`` as
    ``e<x>``.
    """

    shape: Shape
    train_path: str
    heldout_path: str
    train: list
    heldout: list

    @property
    def train_events(self) -> int:
        return sum(len(s[0]) for s in self.train)

    @property
    def heldout_events(self) -> int:
        return sum(len(s[0]) for s in self.heldout)


def label(x) -> str:
    return f"e{int(x)}"


def _short_times(rng, m):
    # strictly increasing even if two uniforms collide
    return np.sort(rng.uniform(0.0, SHORT_HORIZON, size=m)) + np.arange(m) * 1e-9


def _long_times(rng, m):
    gaps = rng.exponential(1.0, size=m + 1)
    times = 5.0 + LONG_SPAN * np.cumsum(gaps[:m]) / gaps.sum()
    if not np.all(np.diff(times) > 0):
        raise RuntimeError("generated long sequence has a repeated timestamp")
    return times


def _short_sequences(shape: Shape, rng, n_seqs, cover: bool):
    """Labels and times of ``n_seqs`` sequences over distinct entities."""
    m = shape.events_per_seq
    n = shape.entities
    seqs = []
    if cover:
        perm = rng.permutation(n).reshape(-1, m)
        seqs.extend(perm)
    while len(seqs) < n_seqs:
        seqs.append(rng.choice(n, size=m, replace=False))
    return [(labels, _short_times(rng, m), SHORT_HORIZON) for labels in seqs[:n_seqs]]


def _long_sequences(shape: Shape, rng, n_seqs, cover: bool):
    """Each sequence repeats every member of its 100-entity pool equally."""
    n = shape.entities
    m = shape.events_per_seq
    perm = rng.permutation(n)
    share = n // shape.train_seqs
    out = []
    for k in range(n_seqs):
        if cover:
            own = perm[k * share:(k + 1) * share]
            rest = rng.choice(np.setdiff1d(np.arange(n), own), size=LONG_POOL - len(own),
                              replace=False)
            pool = np.concatenate([own, rest])
        else:
            pool = rng.choice(n, size=LONG_POOL, replace=False)
        labels = rng.permutation(np.repeat(pool, m // LONG_POOL))
        out.append((labels, _long_times(rng, m), LONG_HORIZON))
    return out


def _write(path, seqs):
    lines = []
    for k, (labels, times, horizon) in enumerate(seqs):
        lines.append(f"#horizon {horizon!r}\n")
        sid = f"s{k}"
        lines.extend(f"{sid}\t{label(x)}\t{float(t)!r}\n" for x, t in zip(labels, times))
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def generate(name: str, seed: int, out_dir: str) -> Inputs:
    """Write the training and held-out files of workload ``name``."""
    shape = SHAPES[name]
    rng = np.random.default_rng([seed, sorted(SHAPES).index(name)])
    make = _long_sequences if shape.events_per_seq > LONG_POOL else _short_sequences
    train = make(shape, rng, shape.train_seqs, cover=True)
    heldout = make(shape, rng, shape.heldout_seqs, cover=False)
    covered = np.unique(np.concatenate([s[0] for s in train]))
    if len(covered) != shape.entities:
        raise RuntimeError(f"{name}: training file covers {len(covered)} entities")
    os.makedirs(out_dir, exist_ok=True)
    train_path = os.path.join(out_dir, "train.tsv")
    heldout_path = os.path.join(out_dir, "heldout.tsv")
    _write(train_path, train)
    _write(heldout_path, heldout)
    return Inputs(shape, train_path, heldout_path, train, heldout)
