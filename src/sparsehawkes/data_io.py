"""Cascade text ingestion, dataset statistics, and checkpoint persistence.

Two on-disk contracts live here.  Cascade files are UTF-8 text, one event per
line as ``<sequence-id>\\t<entity-label>\\t<timestamp>``, with an optional
``#horizon <real>`` line that applies to the sequence of the next event line.
Checkpoints are a small self-describing binary: magic, version, dimensions,
the raw float64 parameter blocks, the entity vocabulary, and a JSON metadata
blob.  Both parsers reject malformed input outright instead of repairing it.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .model import Dataset, ModelParams, Sequence

__all__ = [
    "CascadeFormatError",
    "CheckpointFormatError",
    "CascadeFile",
    "DatasetStats",
    "Checkpoint",
    "parse_cascades",
    "read_cascade_file",
    "write_cascades",
    "dataset_stats",
    "write_checkpoint",
    "read_checkpoint",
    "read_checkpoint_full",
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_VERSION",
]


class CascadeFormatError(ValueError):
    """A cascade file violates the format; the message names the line."""


class CheckpointFormatError(ValueError):
    """A checkpoint file is corrupt, truncated, or from an unknown version."""


@dataclass
class CascadeFile:
    """A parsed cascade file: the dataset plus its label vocabulary.

    ``vocabulary[i]`` is the label of entity index ``i``; indices are dense
    and assigned by first appearance in the file.
    """

    path: str
    vocabulary: list[str]
    dataset: Dataset


def read_cascade_file(path) -> CascadeFile:
    path = str(path)
    label_index: dict[str, int] = {}
    vocabulary: list[str] = []
    # per sequence id: list of (timestamp, entity, line_no), declared horizon
    events: dict[str, list[tuple[float, int, int]]] = {}
    horizons: dict[str, tuple[float, int]] = {}
    order: list[str] = []
    pending_horizon: tuple[float, int] | None = None

    with open(path, encoding="utf-8") as fh:
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


def parse_cascades(path) -> Dataset:
    """Parse a cascade file, dropping the label vocabulary."""
    return read_cascade_file(path).dataset


def write_cascades(path, data: Dataset, vocabulary: list[str] | None = None,
                   sequence_ids: list[str] | None = None):
    """Serialize a dataset in the cascade text format.

    Labels default to the decimal entity index.  Horizon directives are
    always written, so a round trip preserves horizons that do not coincide
    with the last timestamp.  Entities that never occur have no carrier in
    this format and are dropped on re-parse.
    """
    if vocabulary is None:
        vocabulary = [str(i) for i in range(data.num_entities)]
    elif len(vocabulary) != data.num_entities:
        raise ValueError(
            f"vocabulary has {len(vocabulary)} labels for {data.num_entities} entities"
        )
    if sequence_ids is None:
        sequence_ids = [f"s{i}" for i in range(len(data.sequences))]
    elif len(sequence_ids) != len(data.sequences):
        raise ValueError("one sequence id per sequence required")
    with open(path, "w", encoding="utf-8") as fh:
        for seq_id, seq in zip(sequence_ids, data.sequences):
            if len(seq) == 0:
                # an empty sequence has no event line to hang a horizon on
                continue
            fh.write(f"#horizon {seq.horizon!r}\n")
            for t, x in zip(seq.times, seq.entities):
                fh.write(f"{seq_id}\t{vocabulary[int(x)]}\t{float(t)!r}\n")


@dataclass
class DatasetStats:
    """Sparsity and size summary of a dataset.

    ``active_fractions`` holds each sequence's active-entity count divided by
    the universe size, sorted descending.  ``event_count_histogram`` maps the
    per-sequence event count to how many sequences have it.
    ``mean_active_entities`` is the average number of distinct entities per
    sequence, the quantity that drives the sparse engine's per-sequence cost.
    """

    num_entities: int
    num_sequences: int
    total_events: int
    active_fractions: np.ndarray
    event_count_histogram: np.ndarray
    mean_active_entities: float
    median_active_fraction: float = field(init=False)

    def __post_init__(self):
        self.median_active_fraction = (
            float(np.median(self.active_fractions)) if len(self.active_fractions) else 0.0
        )


def dataset_stats(data: Dataset) -> DatasetStats:
    if len(data.sequences) == 0:
        raise ValueError("dataset has no sequences")
    active_counts = np.array([len(s.active_entities) for s in data.sequences], dtype=np.int64)
    event_counts = np.array([len(s) for s in data.sequences], dtype=np.int64)
    fractions = np.sort(active_counts / data.num_entities)[::-1]
    return DatasetStats(
        num_entities=data.num_entities,
        num_sequences=len(data.sequences),
        total_events=int(event_counts.sum()),
        active_fractions=fractions,
        event_count_histogram=np.bincount(event_counts),
        mean_active_entities=float(active_counts.mean()),
    )


CHECKPOINT_MAGIC = b"LMHP"
CHECKPOINT_VERSION = 1


@dataclass
class Checkpoint:
    """Everything a checkpoint file holds, decoded."""

    params: ModelParams
    meta: dict
    vocabulary: list[str]
    version: int


def write_checkpoint(path, params: ModelParams, meta: dict,
                     vocabulary: list[str] | None = None):
    """Binary dump of the parameter blocks plus vocabulary and metadata.

    Metadata must be JSON-serializable; it is stored canonically (sorted
    keys) so identical inputs produce identical bytes.  The file is written
    under a temporary name in the same directory and then renamed over
    ``path``, so a write that fails midway leaves any previous file intact.
    """
    n = params.num_entities
    if vocabulary is None:
        vocabulary = []
    elif len(vocabulary) != n:
        raise ValueError(f"vocabulary has {len(vocabulary)} labels for {n} entities")
    meta_blob = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<I", CHECKPOINT_VERSION))
            fh.write(struct.pack("<QQ", n, params.dim))
            fh.write(params.theta_mu.astype("<f8", copy=False).tobytes())
            fh.write(struct.pack("<d", params.theta_beta))
            # each view of the row block is copied once, by ``tobytes``
            for block in (params.theta_self, params.theta_u, params.theta_v):
                fh.write(block.astype("<f8", copy=False).tobytes())
            fh.write(struct.pack("<Q", len(vocabulary)))
            for label in vocabulary:
                raw = label.encode("utf-8")
                fh.write(struct.pack("<I", len(raw)))
                fh.write(raw)
            fh.write(struct.pack("<Q", len(meta_blob)))
            fh.write(meta_blob)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _read_exact(fh, count: int, what: str) -> bytes:
    raw = fh.read(count)
    if len(raw) != count:
        raise CheckpointFormatError(
            f"truncated checkpoint: wanted {count} bytes for {what}, got {len(raw)}"
        )
    return raw


def read_checkpoint_full(path) -> Checkpoint:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointFormatError(f"bad magic {magic!r}")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, "version"))
        if version != CHECKPOINT_VERSION:
            raise CheckpointFormatError(f"unsupported checkpoint version {version}")
        n, d = struct.unpack("<QQ", _read_exact(fh, 16, "dimensions"))
        if n < 1 or d < 1 or n > 10**9 or d > 10**6:
            raise CheckpointFormatError(f"implausible dimensions |X|={n} d={d}")
        n = int(n)
        d = int(d)
        # Each part is read straight into its columns of one [u | v | mu | self]
        # block, allocated once the file has shown it holds the first part.
        raw_mu = _read_exact(fh, 8 * n, "theta_mu")
        theta = np.empty((n, 2 * d + 2))
        theta[:, 2 * d] = np.frombuffer(raw_mu, dtype="<f8")
        (theta_beta,) = struct.unpack("<d", _read_exact(fh, 8, "theta_beta"))
        theta[:, 2 * d + 1] = np.frombuffer(_read_exact(fh, 8 * n, "theta_self"), dtype="<f8")
        for cols, name in ((slice(0, d), "theta_u"), (slice(d, 2 * d), "theta_v")):
            theta[:, cols] = np.frombuffer(_read_exact(fh, 8 * n * d, name), dtype="<f8").reshape(n, d)
        (vocab_count,) = struct.unpack("<Q", _read_exact(fh, 8, "vocabulary count"))
        if vocab_count not in (0, n):
            raise CheckpointFormatError(
                f"vocabulary holds {vocab_count} labels for {n} entities"
            )
        vocabulary = []
        for i in range(vocab_count):
            (length,) = struct.unpack("<I", _read_exact(fh, 4, f"label {i} length"))
            raw = _read_exact(fh, length, f"label {i}")
            try:
                vocabulary.append(raw.decode("utf-8"))
            except UnicodeDecodeError:
                raise CheckpointFormatError(f"label {i} is not valid UTF-8") from None
        (meta_len,) = struct.unpack("<Q", _read_exact(fh, 8, "metadata length"))
        meta_blob = _read_exact(fh, meta_len, "metadata")
        if fh.read(1):
            raise CheckpointFormatError("trailing bytes after checkpoint payload")
    try:
        meta = json.loads(meta_blob)
    except json.JSONDecodeError:
        raise CheckpointFormatError("metadata is not valid JSON") from None
    params = ModelParams.from_block(theta, theta_beta, d)
    return Checkpoint(params=params, meta=meta, vocabulary=vocabulary, version=int(version))


def read_checkpoint(path) -> tuple[ModelParams, dict]:
    cp = read_checkpoint_full(path)
    return cp.params, cp.meta
