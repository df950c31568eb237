"""Cascade text ingestion and checkpoint persistence.

Two on-disk contracts live here.  Cascade files are UTF-8 text (a leading
byte-order mark is skipped), one event per line as
``<sequence-id>\\t<entity-label>\\t<timestamp>``, with an optional
``#horizon <real>`` line that applies to the sequence of the next event line.
They are parsed in bounded chunks straight into a dataset's flat columns.
Checkpoints are a small self-describing binary: magic, version, dimensions,
the raw float64 parameter blocks, the entity vocabulary, and a JSON metadata
blob.  Both parsers reject malformed input outright instead of repairing it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import struct
from dataclasses import dataclass
from itertools import chain, compress, count, filterfalse, repeat

import numpy as np

from .model import Dataset, ModelParams

__all__ = [
    "CascadeFormatError",
    "CheckpointFormatError",
    "CascadeFile",
    "Checkpoint",
    "read_cascade_file",
    "write_cascades",
    "write_checkpoint",
    "read_checkpoint_full",
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


# ``readlines`` hint in characters: the parser holds one chunk's lines at a time.
CHUNK_HINT = 1 << 16


def _event_line_error(line: str) -> str | None:
    """What is wrong with an event line, if anything."""
    fields = line.split("\t")
    if len(fields) != 3:
        return f"expected 3 tab-separated fields, got {len(fields)}"
    if not fields[0] or not fields[1]:
        return "empty sequence id or entity label"
    try:
        stamp = float(fields[2])
    except ValueError:
        return f"timestamp {fields[2]!r} is not a number"
    if not math.isfinite(stamp):
        return "timestamp must be finite"
    return "negative timestamp" if stamp < 0 else None


def _codes(keys: list[str], index: dict[str, int]) -> np.ndarray:
    """Int codes of ``keys``, numbering keys new to ``index`` in order of appearance."""
    index.update(zip(filterfalse(index.__contains__, dict.fromkeys(keys)), count(len(index))))
    return np.fromiter(map(index.__getitem__, keys), np.int64, len(keys))


class _CascadeParse:
    """State of one parse: id and label codes, declared horizons and, per chunk,
    the sequence codes, times, entity codes and line numbers of its events."""

    def __init__(self):
        self.seq_index, self.label_index, self.declared, self.columns = {}, {}, {}, []
        self.pending = None  # (horizon, line) of the directive awaiting its event line

    def take(self, lines: list[str], base: int):
        """Parse ``lines``, the file's lines from ``base + 1`` on."""
        hashed = np.array(lines, dtype="U1") == "#"
        event = ~hashed & (np.fromiter(map(str.count, lines, repeat("\t")), int, len(lines)) == 2)
        ev = np.flatnonzero(event)
        fields = "\t".join(compress(lines, event.tolist())).split("\t") if ev.size else []
        ids, labels, stamps = fields[0::3], fields[1::3], fields[2::3]
        try:
            times = np.fromiter(map(float, stamps), np.float64, len(stamps))
            ok = np.isfinite(times).all() and (times >= 0).all()
        except ValueError:
            ok = False
        odd = np.flatnonzero(~(hashed | event)).tolist()
        if not ok or "" in ids or "" in labels or any(map(lines.__getitem__, odd)):
            i, error = next((i, e) for i, line in enumerate(lines)
                            if line and not hashed[i] and (e := _event_line_error(line)))
            self.take(lines[:i], base)
            raise CascadeFormatError(f"line {base + i + 1}: {error}")
        seq = _codes(ids, self.seq_index)
        self.columns.append((seq, times, _codes(labels, self.label_index), ev + base + 1))

        directives = np.flatnonzero(hashed).tolist()
        if self.pending and ev.size and not (directives and directives[0] < ev[0]):
            self._bind(int(seq[0]))
        for k, (i, j) in enumerate(zip(directives, np.searchsorted(ev, directives).tolist())):
            line_no, parts = base + i + 1, lines[i].split()
            if parts[0] != "#horizon" or len(parts) != 2:
                raise CascadeFormatError(f"line {line_no}: unknown directive {parts[0]!r}")
            if self.pending:
                raise CascadeFormatError(f"line {line_no}: horizon directive follows another "
                                         "with no event line between them")
            try:
                value = float(parts[1])
            except ValueError:
                raise CascadeFormatError(
                    f"line {line_no}: horizon {parts[1]!r} is not a number") from None
            if not math.isfinite(value) or value <= 0:
                raise CascadeFormatError(
                    f"line {line_no}: horizon must be a finite positive number")
            self.pending = (value, line_no)
            if j < len(ev) and (k + 1 == len(directives) or ev[j] < directives[k + 1]):
                self._bind(int(seq[j]))

    def _bind(self, code: int):
        if code in self.declared:
            raise CascadeFormatError(
                f"line {self.pending[1]}: duplicate horizon for sequence "
                f"{list(self.seq_index)[code]!r} (first given on line {self.declared[code][1]})")
        self.declared[code], self.pending = self.pending, None

    def finish(self, path: str) -> CascadeFile:
        """Sort each sequence's events by time and run the whole-sequence checks."""
        if self.pending:
            raise CascadeFormatError(
                f"line {self.pending[1]}: horizon directive with no event line after it")
        if not self.seq_index:
            raise CascadeFormatError(f"{path}: no sequences")
        seq, times, labels, line_nos = (np.concatenate(c) for c in zip(*self.columns))
        self.columns = []
        order = np.lexsort((times, seq))
        seq, times, labels, line_nos = seq[order], times[order], labels[order], line_nos[order]
        k = len(self.seq_index)
        offsets = np.concatenate([[0], np.cumsum(np.bincount(seq, minlength=k))])
        horizons = times[offsets[1:] - 1]  # the last timestamp unless declared
        for code, (value, _) in self.declared.items():
            horizons[code] = value
        # the first sequence with a fault names it; its duplicates come first
        dup = np.flatnonzero((seq[1:] == seq[:-1]) & (times[1:] == times[:-1])) + 1
        zero = np.flatnonzero(horizons <= 0)
        over = np.flatnonzero(times > horizons[seq])
        bad = min([int(seq[a[0]]) for a in (dup, over) if a.size] + zero[:1].tolist(), default=k)
        if bad < k:
            name = list(self.seq_index)[bad]
            if dup.size and seq[dup[0]] == bad:
                raise CascadeFormatError(f"line {line_nos[dup[0]]}: duplicate timestamp "
                                         f"{float(times[dup[0]])!r} in sequence {name!r}")
            if horizons[bad] <= 0:
                raise CascadeFormatError(
                    f"sequence {name!r}: all timestamps are 0 and no horizon was given")
            raise CascadeFormatError(
                f"line {line_nos[over[0]]}: timestamp {float(times[over[0]])!r} exceeds "
                f"the horizon {float(horizons[bad])!r} of sequence {name!r}")
        vocabulary = list(self.label_index)
        dataset = Dataset.from_columns(len(vocabulary), offsets, times, labels, horizons)
        return CascadeFile(path=path, vocabulary=vocabulary, dataset=dataset)


def read_cascade_file(path) -> CascadeFile:
    """Parse a cascade file, ``CHUNK_HINT`` characters at a time: a chunk's
    event lines are split in one pass, their ids and labels coded through
    dicts, their timestamps parsed into arrays, and the lines before a bad
    event line parsed first, so the error raised is the first in the file."""
    parse = _CascadeParse()
    with open(path, encoding="utf-8-sig") as fh:
        base = 0
        while chunk := fh.readlines(CHUNK_HINT):
            parse.take(list(map(str.rstrip, chunk, repeat("\n"))), base)
            base += len(chunk)
    return parse.finish(str(path))


def write_cascades(path, data: Dataset, vocabulary: list[str] | None = None):
    """Serialize a dataset in the cascade text format.

    Sequence ``k`` is written with id ``s<k>``; labels default to the
    decimal entity index.  Horizon directives are always written, so a round
    trip preserves horizons that do not coincide with the last timestamp.
    Entities that never occur have no carrier in this format and are dropped
    on re-parse.
    """
    if vocabulary is None:
        vocabulary = [str(i) for i in range(data.num_entities)]
    elif len(vocabulary) != data.num_entities:
        raise ValueError(
            f"vocabulary has {len(vocabulary)} labels for {data.num_entities} entities"
        )
    with open(path, "w", encoding="utf-8") as fh:
        for k, seq in enumerate(data.sequences):
            if len(seq) == 0:
                # an empty sequence has no event line to hang a horizon on
                continue
            fh.write(f"#horizon {seq.horizon!r}\n")
            for t, x in zip(seq.times, seq.entities):
                fh.write(f"s{k}\t{vocabulary[int(x)]}\t{float(t)!r}\n")


CHECKPOINT_MAGIC = b"LMHP"
CHECKPOINT_VERSION = 1
_LABEL_LENGTH = struct.Struct("<I")


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
    under a temporary name in the same directory, synced to disk and then
    renamed over ``path``, so a write that fails midway leaves any previous
    file intact.
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
            encoded = list(map(str.encode, vocabulary))
            fh.write(b"".join(chain.from_iterable(
                zip(map(_LABEL_LENGTH.pack, map(len, encoded)), encoded))))
            fh.write(struct.pack("<Q", len(meta_blob)))
            fh.write(meta_blob)
            # on disk before the rename, so a crash cannot leave ``path``
            # naming a file whose blocks were never written
            fh.flush()
            os.fsync(fh.fileno())
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
        # the header, blocks, decay and two counts must fit before the allocation
        need, size = 24 + 8 * (n * (2 * d + 2) + 3), os.fstat(fh.fileno()).st_size
        if size < need:
            raise CheckpointFormatError(f"truncated checkpoint: |X|={n} d={d} needs at least "
                                        f"{need} bytes, the file has {size}")
        # Each part is read straight into its columns of one [u | v | mu | self] block.
        theta = np.empty((n, 2 * d + 2))
        theta[:, 2 * d] = np.frombuffer(_read_exact(fh, 8 * n, "theta_mu"), dtype="<f8")
        (theta_beta,) = struct.unpack("<d", _read_exact(fh, 8, "theta_beta"))
        theta[:, 2 * d + 1] = np.frombuffer(_read_exact(fh, 8 * n, "theta_self"), dtype="<f8")
        for cols, name in ((slice(0, d), "theta_u"), (slice(d, 2 * d), "theta_v")):
            theta[:, cols] = np.frombuffer(_read_exact(fh, 8 * n * d, name), dtype="<f8").reshape(n, d)
        (vocab_count,) = struct.unpack("<Q", _read_exact(fh, 8, "vocabulary count"))
        if vocab_count not in (0, n):
            raise CheckpointFormatError(
                f"vocabulary holds {vocab_count} labels for {n} entities"
            )
        rest = io.BytesIO(fh.read())  # the labels and the metadata, in one read
    view, pos, vocabulary = rest.getbuffer(), 0, []
    try:
        for i in range(vocab_count):
            (length,) = _LABEL_LENGTH.unpack_from(view, pos)
            pos += 4 + length
            vocabulary.append(str(view[pos - length:pos], "utf-8"))
    except struct.error:
        raise CheckpointFormatError(f"truncated checkpoint: label {i} has no length") from None
    except UnicodeDecodeError:
        if pos <= len(view):
            raise CheckpointFormatError(f"label {i} is not valid UTF-8") from None
    if pos > len(view):
        raise CheckpointFormatError(f"truncated checkpoint: label {i} runs past the end")
    rest.seek(pos)
    (meta_len,) = struct.unpack("<Q", _read_exact(rest, 8, "metadata length"))
    meta_blob = _read_exact(rest, meta_len, "metadata")
    if rest.read(1):
        raise CheckpointFormatError("trailing bytes after checkpoint payload")
    try:
        meta = json.loads(meta_blob)
    except json.JSONDecodeError:
        raise CheckpointFormatError("metadata is not valid JSON") from None
    params = ModelParams.from_block(theta, theta_beta, d)
    return Checkpoint(params=params, meta=meta, vocabulary=vocabulary, version=int(version))
