import numpy as np
import pytest

from sparsehawkes import (
    Dataset,
    Sequence,
    build_caches,
    lazy_log_likelihood,
)
from sparsehawkes.data_io import (
    CHECKPOINT_MAGIC,
    CascadeFormatError,
    CheckpointFormatError,
    dataset_stats,
    parse_cascades,
    read_cascade_file,
    read_checkpoint,
    read_checkpoint_full,
    write_cascades,
    write_checkpoint,
)

from oracles import random_params, random_sequence


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
    data = parse_cascades(path)
    np.testing.assert_array_equal(data.sequences[0].times, [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(data.sequences[0].entities, [1, 0, 0])


def test_parse_blank_lines_and_crlf(tmp_path):
    path = write_text(tmp_path, "\ns\ta\t1.0\r\n\n#horizon 2.0\r\ns\tb\t1.5\n\n")
    data = parse_cascades(path)
    assert data.sequences[0].horizon == 2.0
    assert len(data.sequences[0]) == 2


def test_parse_universe_is_observed_vocabulary(tmp_path):
    # labels that never occur have no carrier in the text format
    path = write_text(tmp_path, "s\tx\t1.0\ns\ty\t2.0\n")
    data = parse_cascades(path)
    assert data.num_entities == 2


def test_parse_empty_file_rejected(tmp_path):
    path = write_text(tmp_path, "")
    with pytest.raises(CascadeFormatError, match="no sequences"):
        parse_cascades(path)


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
        parse_cascades(path)


def test_parse_error_names_the_offending_line(tmp_path):
    path = write_text(tmp_path, "s\ta\t1.0\ns\tb\t2.0\ns\tc\tbad\n")
    with pytest.raises(CascadeFormatError, match="line 3"):
        parse_cascades(path)


def test_parse_duplicate_timestamp_names_later_line(tmp_path):
    # events arrive unsorted; the later file line carries the clash
    path = write_text(tmp_path, "s\ta\t2.0\ns\tb\t1.0\ns\tc\t2.0\n")
    with pytest.raises(CascadeFormatError, match="line 3"):
        parse_cascades(path)


def test_parse_duplicate_horizon_reports_both_lines(tmp_path):
    path = write_text(
        tmp_path,
        "#horizon 5.0\ns\ta\t0.5\n#horizon 6.0\ns\tb\t0.7\n",
    )
    with pytest.raises(CascadeFormatError, match="line 3.*line 1"):
        parse_cascades(path)


def test_parse_horizon_binds_across_interleaved_sequences(tmp_path):
    path = write_text(
        tmp_path,
        "#horizon 9.0\n"
        "s2\ta\t1.0\n"
        "s1\ta\t1.0\n"
        "s2\tb\t3.0\n",
    )
    data = parse_cascades(path)
    # sequence order follows first appearance; the directive bound to s2
    assert data.sequences[0].horizon == 9.0
    assert data.sequences[1].horizon == 1.0


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
    with pytest.raises(ValueError, match="sequence id"):
        write_cascades(tmp_path / "b.tsv", data, sequence_ids=["a", "b"])


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
# dataset statistics


def test_stats_everything_active():
    seqs = [
        Sequence.from_arrays([0.5, 1.0], [0, 1], 2.0),
        Sequence.from_arrays([0.25, 0.75], [1, 0], 2.0),
    ]
    stats = dataset_stats(Dataset(2, seqs))
    assert stats.num_entities == 2
    assert stats.num_sequences == 2
    assert stats.total_events == 4
    np.testing.assert_array_equal(stats.active_fractions, [1.0, 1.0])
    assert stats.mean_active_entities == 2.0
    assert stats.median_active_fraction == 1.0
    # two sequences of two events each
    np.testing.assert_array_equal(stats.event_count_histogram, [0, 0, 2])


def test_stats_sparse_activity():
    seqs = [Sequence.from_arrays([1.0], [3], 2.0)]
    stats = dataset_stats(Dataset(100, seqs))
    assert stats.active_fractions[0] == pytest.approx(0.01)
    assert stats.mean_active_entities == 1.0
    assert stats.total_events == 1


def test_stats_mixed_sizes():
    seqs = [
        Sequence.from_arrays([0.5], [0], 1.0),
        Sequence.from_arrays([0.5, 0.6, 0.7], [0, 1, 0], 1.0),
        Sequence.from_arrays([], [], 1.0),
    ]
    stats = dataset_stats(Dataset(4, seqs))
    np.testing.assert_array_equal(stats.event_count_histogram, [1, 1, 0, 1])
    np.testing.assert_allclose(stats.active_fractions, [0.5, 0.25, 0.0])
    assert stats.median_active_fraction == pytest.approx(0.25)
    assert stats.mean_active_entities == pytest.approx(1.0)


def test_stats_rejects_empty_dataset():
    with pytest.raises(ValueError, match="no sequences"):
        dataset_stats(Dataset(3, []))


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
    loaded, meta = read_checkpoint(path)
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
