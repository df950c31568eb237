import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparsehawkes import (
    Dataset,
    Sequence,
    build_caches,
    lazy_log_likelihood,
)
from sparsehawkes import data_io
from sparsehawkes.data_io import (
    CHECKPOINT_MAGIC,
    CascadeFormatError,
    CheckpointFormatError,
    read_cascade_file,
    read_checkpoint_full,
    write_cascades,
    write_checkpoint,
)

from oracles import random_params, random_sequence, reference_read_cascade_file


def write_text(tmp_path, text, name="cascades.tsv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# cascade parsing


def test_parse_two_sequences(tmp_path):
    path = write_text(
        tmp_path,
        "s1\talice\t0.5\n"
        "s1\tbob\t1.25\n"
        "s2\tbob\t0.75\n"
        "#horizon 4.0\n"
        "s2\talice\t2.0\n",
    )
    cf = read_cascade_file(path)
    assert cf.vocabulary == ["alice", "bob"]
    data = cf.dataset
    assert data.num_entities == 2
    assert len(data.sequences) == 2
    s1, s2 = data.sequences
    np.testing.assert_array_equal(s1.times, [0.5, 1.25])
    np.testing.assert_array_equal(s1.entities, [0, 1])
    assert s1.horizon == 1.25  # defaults to the last timestamp
    np.testing.assert_array_equal(s2.times, [0.75, 2.0])
    np.testing.assert_array_equal(s2.entities, [1, 0])
    assert s2.horizon == 4.0  # the directive bound to the following line


def test_parse_sorts_events_within_sequence(tmp_path):
    path = write_text(tmp_path, "s\ta\t3.0\ns\tb\t1.0\ns\ta\t2.0\n")
    data = read_cascade_file(path).dataset
    np.testing.assert_array_equal(data.sequences[0].times, [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(data.sequences[0].entities, [1, 0, 0])


def test_parse_blank_lines_and_crlf(tmp_path):
    path = write_text(tmp_path, "\ns\ta\t1.0\r\n\n#horizon 2.0\r\ns\tb\t1.5\n\n")
    data = read_cascade_file(path).dataset
    assert data.sequences[0].horizon == 2.0
    assert len(data.sequences[0]) == 2


def test_parse_universe_is_observed_vocabulary(tmp_path):
    # labels that never occur have no carrier in the text format
    path = write_text(tmp_path, "s\tx\t1.0\ns\ty\t2.0\n")
    data = read_cascade_file(path).dataset
    assert data.num_entities == 2


def test_parse_empty_file_rejected(tmp_path):
    path = write_text(tmp_path, "")
    with pytest.raises(CascadeFormatError, match="no sequences"):
        read_cascade_file(path)


@pytest.mark.parametrize(
    "text,needle",
    [
        ("s\ta\n", "line 1"),
        ("s\ta\t1.0\textra\n", "line 1"),
        ("\ta\t1.0\n", "empty sequence id"),
        ("s\t\t1.0\n", "empty sequence id or entity label"),
        ("s\ta\tabc\n", "not a number"),
        ("s\ta\tnan\n", "finite"),
        ("s\ta\tinf\n", "finite"),
        ("s\ta\t-1.0\n", "negative"),
        ("#rate 3\ns\ta\t1.0\n", "unknown directive"),
        ("#horizon\ns\ta\t1.0\n", "unknown directive"),
        ("#horizon abc\ns\ta\t1.0\n", "not a number"),
        ("#horizon -2\ns\ta\t1.0\n", "finite positive"),
        ("#horizon 0\ns\ta\t1.0\n", "finite positive"),
        ("#horizon inf\ns\ta\t1.0\n", "finite positive"),
        ("#horizon 1.0\n#horizon 2.0\ns\ta\t0.5\n", "no event line between"),
        ("s\ta\t1.0\n#horizon 2.0\n", "no event line after"),
        ("s\ta\t1.0\ns\tb\t1.0\n", "duplicate timestamp"),
        ("#horizon 1.0\ns\ta\t0.5\n#horizon 2.0\ns\tb\t0.7\n", "duplicate horizon"),
        ("#horizon 1.0\ns\ta\t2.0\n", "exceeds the horizon"),
        ("s\ta\t0.0\n", "no horizon was given"),
    ],
)
def test_parse_rejects_malformed(tmp_path, text, needle):
    path = write_text(tmp_path, text)
    with pytest.raises(CascadeFormatError, match=needle):
        read_cascade_file(path)


def test_parse_error_names_the_offending_line(tmp_path):
    path = write_text(tmp_path, "s\ta\t1.0\ns\tb\t2.0\ns\tc\tbad\n")
    with pytest.raises(CascadeFormatError, match="line 3"):
        read_cascade_file(path)


def test_parse_duplicate_timestamp_names_later_line(tmp_path):
    # events arrive unsorted; the later file line carries the clash
    path = write_text(tmp_path, "s\ta\t2.0\ns\tb\t1.0\ns\tc\t2.0\n")
    with pytest.raises(CascadeFormatError, match="line 3"):
        read_cascade_file(path)


def test_parse_whole_sequence_faults_in_order(tmp_path):
    # the first faulty sequence is reported; within it a duplicate timestamp
    # comes before an event past the horizon
    text = "s\ta\t0.5\n#horizon 1.0\nt\ta\t2.0\nt\tb\t2.0\ns\tb\t0.0\ns\tc\t0.0\n"
    with pytest.raises(CascadeFormatError, match="line 6: duplicate timestamp 0.0 in sequence 's'"):
        read_cascade_file(write_text(tmp_path, text))
    with pytest.raises(CascadeFormatError, match="line 4: duplicate timestamp 2.0 in sequence 't'"):
        read_cascade_file(write_text(tmp_path, text.replace("c\t0.0", "c\t0.25")))
    with pytest.raises(CascadeFormatError, match="line 3: timestamp 2.0 exceeds the horizon 1.0"):
        read_cascade_file(write_text(tmp_path, text.replace("c\t0.0", "c\t0.25")
                                     .replace("b\t2.0", "b\t3.0")))


def test_parse_duplicate_horizon_reports_both_lines(tmp_path):
    path = write_text(
        tmp_path,
        "#horizon 5.0\ns\ta\t0.5\n#horizon 6.0\ns\tb\t0.7\n",
    )
    with pytest.raises(CascadeFormatError, match="line 3.*line 1"):
        read_cascade_file(path)


def test_parse_horizon_binds_across_interleaved_sequences(tmp_path):
    path = write_text(
        tmp_path,
        "#horizon 9.0\n"
        "s2\ta\t1.0\n"
        "s1\ta\t1.0\n"
        "s2\tb\t3.0\n",
    )
    data = read_cascade_file(path).dataset
    # sequence order follows first appearance; the directive bound to s2
    assert data.sequences[0].horizon == 9.0
    assert data.sequences[1].horizon == 1.0


def test_parse_skips_a_leading_bom(tmp_path):
    cf = read_cascade_file(write_text(tmp_path, "\ufeffs0\ta\t1.0\ns0\tb\t2.0\n"))
    assert len(cf.dataset) == 1
    assert cf.dataset.total_events == 2
    cf = read_cascade_file(write_text(tmp_path, "\ufeff#horizon 3.0\ns0\ta\t1.0\n"))
    assert cf.vocabulary == ["a"]
    assert cf.dataset.sequences[0].horizon == 3.0


_FIELD = st.sampled_from(["s0", "s1", "s2", "a", "b", "", "#x", " "])
_STAMP = st.one_of(
    st.sampled_from(["0", "0.5", "1", "2.5", "-0.0", "-1", "nan", "inf", "1e999", "abc", "", " 2"]),
    st.floats(min_value=0.0, max_value=10.0).map(repr),
)
_LINE = st.one_of(
    st.tuples(_FIELD, _FIELD, _STAMP).map("\t".join),
    st.tuples(st.sampled_from(["s0", "s1"]), st.sampled_from(["a", "b", "c"]), _STAMP).map("\t".join),
    st.sampled_from(["0.5", "2", "9.0", "0", "-1", "nan", "inf", "abc"]).map("#horizon {}".format),
    st.sampled_from(["", "#horizon", "#rate 3", "#", "#horizon 1 2", "#horizon\t4\t", "s0\ta"]),
    st.lists(_STAMP, min_size=4, max_size=5).map("\t".join),
)


@settings(max_examples=300)
@given(
    lines=st.lists(st.tuples(_LINE, st.sampled_from(["\n", "\r\n", "\r"])), max_size=12),
    last_newline=st.booleans(),
    bom=st.booleans(),
    hint=st.sampled_from([1, 8, 40, data_io.CHUNK_HINT]),
)
def test_parse_matches_line_by_line_reference(tmp_path_factory, lines, last_newline, bom, hint):
    text = "\ufeff" * bom + "".join(line + end for line, end in lines)
    if lines and not last_newline:
        text = text[:-len(lines[-1][1])]
    path = tmp_path_factory.mktemp("parse") / "c.tsv"
    path.write_text(text, encoding="utf-8", newline="")

    def outcome(read):
        try:
            cf = read(path)
        except CascadeFormatError as exc:
            return str(exc)
        d = cf.dataset
        return (cf.vocabulary, d.num_entities, d.offsets.tolist(), d.times.tobytes(),
                d.labels.tolist(), d.horizons.tobytes())

    want = outcome(reference_read_cascade_file)
    old = data_io.CHUNK_HINT
    data_io.CHUNK_HINT = hint
    try:
        assert outcome(read_cascade_file) == want
    finally:
        data_io.CHUNK_HINT = old


# ---------------------------------------------------------------------------
# cascade writing and round trips


def labels_of(data, vocabulary):
    return [
        ([vocabulary[int(x)] for x in seq.entities], seq.times.tolist(), seq.horizon)
        for seq in data.sequences
    ]


def test_write_parse_round_trip_small(tmp_path):
    times = [0.1, 1.7, 2.30000000000004]
    seqs = [
        Sequence.from_arrays(times, [2, 0, 2], 5.0),
        Sequence.from_arrays([0.25], [1], 0.25),
    ]
    data = Dataset(3, seqs)
    vocab = ["u", "v", "w"]
    path = tmp_path / "out.tsv"
    write_cascades(path, data, vocabulary=vocab)
    cf = read_cascade_file(path)
    assert labels_of(cf.dataset, cf.vocabulary) == labels_of(data, vocab)


def test_write_skips_empty_sequences(tmp_path):
    data = Dataset(2, [
        Sequence.from_arrays([], [], 3.0),
        Sequence.from_arrays([1.0], [0], 2.0),
    ])
    path = tmp_path / "out.tsv"
    write_cascades(path, data)
    cf = read_cascade_file(path)
    assert len(cf.dataset.sequences) == 1
    assert cf.dataset.sequences[0].horizon == 2.0


def test_write_validates_vocabulary_and_ids(tmp_path):
    data = Dataset(2, [Sequence.from_arrays([1.0], [0], 2.0)])
    with pytest.raises(ValueError, match="vocabulary"):
        write_cascades(tmp_path / "a.tsv", data, vocabulary=["only-one"])


def test_round_trip_is_byte_identical_at_scale(tmp_path):
    # one hundred thousand event lines through write -> parse -> write
    rng = np.random.default_rng(7)
    n_entities = 30
    seqs = []
    for _ in range(1000):
        times = np.cumsum(rng.exponential(0.37, size=100))
        entities = rng.integers(0, n_entities, size=100)
        seqs.append(Sequence.from_arrays(times, entities, float(times[-1]) + 0.5))
    data = Dataset(n_entities, seqs)

    first = tmp_path / "first.tsv"
    write_cascades(first, data)
    cf = read_cascade_file(first)
    assert cf.dataset.num_entities == n_entities
    assert sum(len(s) for s in cf.dataset.sequences) == 100_000

    second = tmp_path / "second.tsv"
    write_cascades(second, cf.dataset, vocabulary=cf.vocabulary)
    assert first.read_bytes() == second.read_bytes()

    default_vocab = [str(i) for i in range(n_entities)]
    assert labels_of(cf.dataset, cf.vocabulary) == labels_of(data, default_vocab)


# ---------------------------------------------------------------------------
# checkpoints


def small_params(seed=0, n=4, d=3):
    return random_params(np.random.default_rng(seed), n=n, d=d)


def test_checkpoint_round_trip(tmp_path):
    params = small_params()
    meta = {"epoch": 7, "loglik": -123.5, "seed": 3}
    vocab = [f"e{i}" for i in range(4)]
    path = tmp_path / "model.ckpt"
    write_checkpoint(path, params, meta, vocabulary=vocab)

    cp = read_checkpoint_full(path)
    assert cp.version == 1
    assert cp.meta == meta
    assert cp.vocabulary == vocab
    got = cp.params
    assert got.dim == params.dim
    assert got.theta_beta == params.theta_beta
    np.testing.assert_array_equal(got.theta_mu, params.theta_mu)
    np.testing.assert_array_equal(got.theta_self, params.theta_self)
    np.testing.assert_array_equal(got.theta_u, params.theta_u)
    np.testing.assert_array_equal(got.theta_v, params.theta_v)


def test_checkpoint_rewrite_is_byte_identical(tmp_path):
    params = small_params(seed=5)
    meta = {"b": [1, 2], "a": {"nested": True}}
    first = tmp_path / "a.ckpt"
    second = tmp_path / "b.ckpt"
    write_checkpoint(first, params, meta, vocabulary=["w", "x", "y", "z"])
    cp = read_checkpoint_full(first)
    write_checkpoint(second, cp.params, cp.meta, vocabulary=cp.vocabulary)
    assert first.read_bytes() == second.read_bytes()


def test_checkpoint_failed_write_keeps_previous_file(tmp_path):
    path = tmp_path / "m.ckpt"
    write_checkpoint(path, small_params(seed=1), {"epoch": 1}, vocabulary=["a", "b", "c", "d"])
    before = path.read_bytes()
    # a lone surrogate cannot be encoded: the write fails after the
    # parameter blocks have gone out
    with pytest.raises(UnicodeEncodeError):
        write_checkpoint(path, small_params(seed=2), {"epoch": 2}, vocabulary=["a", "b", "\ud800", "d"])
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]


def test_checkpoint_is_synced_before_the_rename(tmp_path, monkeypatch):
    calls = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        calls.append(("fsync", os.fstat(fd).st_ino))
        real_fsync(fd)

    def replace(src, dst):
        calls.append(("replace", os.stat(src).st_ino))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    path = tmp_path / "m.ckpt"
    write_checkpoint(path, small_params(seed=1), {"epoch": 1})
    # the file synced is the one renamed into place
    assert [c[0] for c in calls] == ["fsync", "replace"]
    assert calls[0][1] == calls[1][1] == os.stat(path).st_ino


def test_checkpoint_without_vocabulary(tmp_path):
    params = small_params(seed=1)
    path = tmp_path / "m.ckpt"
    write_checkpoint(path, params, {})
    cp = read_checkpoint_full(path)
    assert cp.vocabulary == []
    assert cp.meta == {}


def test_checkpoint_vocabulary_length_mismatch(tmp_path):
    with pytest.raises(ValueError, match="vocabulary"):
        write_checkpoint(tmp_path / "m.ckpt", small_params(), {}, vocabulary=["a"])


def test_checkpoint_unicode_labels(tmp_path):
    params = small_params(seed=2)
    vocab = ["école", "東京", "a\tb", "plain"]
    path = tmp_path / "m.ckpt"
    write_checkpoint(path, params, {"note": "über"}, vocabulary=vocab)
    cp = read_checkpoint_full(path)
    assert cp.vocabulary == vocab
    assert cp.meta["note"] == "über"


def test_checkpoint_preserves_likelihood_exactly(tmp_path):
    rng = np.random.default_rng(11)
    params = random_params(rng, n=50, d=4)
    seqs = [random_sequence(rng, n_entities=50, max_events=60, horizon=20.0)
            for _ in range(12)]
    data = Dataset(50, seqs)
    before = lazy_log_likelihood(params, data, build_caches(params, data))

    path = tmp_path / "big.ckpt"
    write_checkpoint(path, params, {"loglik": before})
    cp = read_checkpoint_full(path)
    loaded, meta = cp.params, cp.meta
    after = lazy_log_likelihood(loaded, data, build_caches(loaded, data))
    assert after == before
    assert meta["loglik"] == before


def valid_checkpoint_bytes(tmp_path, vocab=None):
    path = tmp_path / "base.ckpt"
    write_checkpoint(path, small_params(seed=3, n=2, d=1), {"k": 1}, vocabulary=vocab)
    return bytearray(path.read_bytes())


def reject(tmp_path, blob, needle):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointFormatError, match=needle):
        read_checkpoint_full(path)


def test_checkpoint_bad_magic(tmp_path):
    blob = valid_checkpoint_bytes(tmp_path)
    blob[:4] = b"NOPE"
    reject(tmp_path, blob, "bad magic")


def test_checkpoint_unsupported_version(tmp_path):
    blob = valid_checkpoint_bytes(tmp_path)
    blob[4:8] = (99).to_bytes(4, "little")
    reject(tmp_path, blob, "unsupported checkpoint version")


def test_checkpoint_implausible_dimensions(tmp_path):
    blob = valid_checkpoint_bytes(tmp_path)
    blob[8:16] = (0).to_bytes(8, "little")
    reject(tmp_path, blob, "implausible")
    blob = valid_checkpoint_bytes(tmp_path)
    blob[16:24] = (10**7).to_bytes(8, "little")
    reject(tmp_path, blob, "implausible")


def test_checkpoint_truncation_rejected(tmp_path):
    blob = valid_checkpoint_bytes(tmp_path, vocab=["ab", "cd"])
    # cut inside every region: header, parameter blocks, vocabulary, metadata
    for cut in (2, 6, 12, 30, 50, 70, 90, 100, 106, len(blob) - 1):
        reject(tmp_path, blob[:cut], "truncated|bad magic")


def test_checkpoint_header_outgrowing_the_file_is_refused_before_allocation(tmp_path):
    # 80 KB whose header claims |X| = 10,000 and d = 1,000,000: a 149 GiB
    # parameter block that the file size rules out before it is allocated
    blob = valid_checkpoint_bytes(tmp_path)
    blob[8:24] = struct.pack("<QQ", 10_000, 10**6)
    blob += bytes(80_000 - len(blob))
    reject(tmp_path, blob, r"^truncated checkpoint: \|X\|=10000 d=1000000 needs at least "
                           r"160000160048 bytes, the file has 80000$")


def test_checkpoint_trailing_bytes_rejected(tmp_path):
    blob = valid_checkpoint_bytes(tmp_path)
    reject(tmp_path, blob + b"\x00", "trailing bytes")


def test_checkpoint_vocabulary_count_mismatch(tmp_path):
    # layout for |X|=2, d=1: header 24 bytes, then 5 float64 blocks of
    # 16+8+16+16+16 bytes put the vocabulary count at offset 96
    blob = valid_checkpoint_bytes(tmp_path)
    assert blob[96:104] == (0).to_bytes(8, "little")
    blob[96:104] = (1).to_bytes(8, "little")
    reject(tmp_path, blob, "vocabulary holds 1 labels for 2")


def test_checkpoint_invalid_utf8_label(tmp_path):
    blob = valid_checkpoint_bytes(tmp_path, vocab=["ab", "cd"])
    assert blob[104:108] == (2).to_bytes(4, "little")
    assert blob[108:110] == b"ab"
    blob[108:110] = b"\xff\xff"
    reject(tmp_path, blob, "not valid UTF-8")


def test_checkpoint_invalid_metadata_json(tmp_path):
    blob = valid_checkpoint_bytes(tmp_path)
    # empty vocabulary: metadata length sits at 104, the blob at 112
    assert blob[112:113] == b"{"
    blob[112:113] = b"X"
    reject(tmp_path, blob, "not valid JSON")


def test_checkpoint_magic_constant():
    assert CHECKPOINT_MAGIC == b"LMHP"
    assert len(CHECKPOINT_MAGIC) == 4
