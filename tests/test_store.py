"""Tests for the repro.store telemetry store: WAL framing, segment files,
manifest atomicity, the store read/write paths, and compaction."""

import pickle
import zlib

import numpy as np
import pytest

from repro.data.fulltrace import full_trace_covariance
from repro.store import (
    CompactionReport,
    Manifest,
    SegmentReader,
    SegmentWriter,
    TelemetryStore,
    TrialSlice,
    WalRecord,
    WriteAheadLog,
    bucket_means,
    compact_store,
    read_wal,
)
from repro.store.segment import segment_paths


def _series(n, seed=0, sensors=7):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, sensors)).astype(np.float32)


def _record(job_id=0, n=100, seed=None):
    return WalRecord(
        job_id=job_id, gpu_index=0, label=job_id % 3,
        model_name=f"m{job_id}",
        series=_series(n, seed=job_id if seed is None else seed),
    )


class TestWal:
    def test_commit_read_round_trip(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        records = [_record(0, 50), _record(1, 75)]
        for r in records:
            wal.stage(r)
        assert wal.n_staged == 2
        committed = wal.commit()
        assert [r.key for r in committed] == [(0, 0), (1, 0)]
        assert wal.n_staged == 0

        read_back, valid = read_wal(path)
        assert valid == path.stat().st_size
        assert [r.key for r in read_back] == [(0, 0), (1, 0)]
        for orig, back in zip(records, read_back):
            np.testing.assert_array_equal(orig.series, back.series)
            assert back.series.dtype == np.float32
            assert back.label == orig.label
            assert back.model_name == orig.model_name

    def test_torn_tail_trimmed(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.stage(_record(0, 40))
        wal.commit()
        good_size = path.stat().st_size
        # Append half of a second frame — a torn write.
        frame = _record(1, 40).encode()
        with path.open("ab") as handle:
            handle.write(frame[: len(frame) // 2])

        records, valid = read_wal(path)
        assert valid == good_size
        assert [r.key for r in records] == [(0, 0)]
        # A fresh WAL trims the torn tail before appending more.
        wal2 = WriteAheadLog(path)
        wal2.stage(_record(1, 40))
        wal2.commit()
        records, valid = read_wal(path)
        assert [r.key for r in records] == [(0, 0), (1, 0)]
        assert valid == path.stat().st_size

    def test_corrupt_crc_stops_replay(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.stage(_record(0, 30))
        wal.stage(_record(1, 30))
        wal.commit()
        # Flip one byte in the *second* frame's payload.
        first_len = len(_record(0, 30).encode())
        raw = bytearray(path.read_bytes())
        raw[first_len + 16] ^= 0xFF
        path.write_bytes(bytes(raw))

        records, valid = read_wal(path)
        assert [r.key for r in records] == [(0, 0)]
        assert valid == first_len

    def test_truncate(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.stage(_record(0, 20))
        wal.commit()
        wal.truncate()
        assert path.stat().st_size == 0
        assert wal.records() == []


class TestSegment:
    def _write_one(self, tmp_path, seq=0):
        rows = np.concatenate([_series(60, seed=1), _series(40, seed=2)])
        trials = {
            (0, 0): TrialSlice(row_start=0, n_rows=60, label=0, model_name="a"),
            (1, 0): TrialSlice(row_start=60, n_rows=40, label=1, model_name="b"),
        }
        SegmentWriter.write(tmp_path, seq, rows, trials)
        return rows, trials

    def test_write_read_round_trip(self, tmp_path):
        rows, trials = self._write_one(tmp_path)
        reader = SegmentReader(tmp_path, 0)
        assert reader.n_rows == 100
        assert reader.n_sensors == 7
        np.testing.assert_array_equal(np.asarray(reader.data), rows)
        np.testing.assert_array_equal(reader.series((1, 0)), rows[60:])
        assert reader.verify()
        reader.close()

    def test_series_is_zero_copy_view(self, tmp_path):
        self._write_one(tmp_path)
        reader = SegmentReader(tmp_path, 0)
        view = reader.series((0, 0))
        assert view.dtype == np.float32
        assert np.shares_memory(view, reader.data)

    def test_verify_catches_bit_rot(self, tmp_path):
        self._write_one(tmp_path)
        dat, _ = segment_paths(tmp_path, 0)
        raw = bytearray(dat.read_bytes())
        raw[100] ^= 0xFF
        dat.write_bytes(bytes(raw))
        reader = SegmentReader(tmp_path, 0)
        assert not reader.verify()

    def test_rejects_non_2d_rows(self, tmp_path):
        with pytest.raises(ValueError, match="2-D"):
            SegmentWriter.write(tmp_path, 0, np.zeros(10, dtype=np.float32), {})


class TestManifest:
    def test_save_load_round_trip(self, tmp_path):
        m = Manifest(n_shards=2, n_sensors=7)
        seq = m.allocate_seq(0)
        m.add_segment(0, seq)
        m.save(tmp_path)
        loaded = Manifest.load(tmp_path)
        assert loaded.n_shards == 2
        assert loaded.n_sensors == 7
        assert loaded.shard_segments(0) == [seq]
        assert loaded.shard_segments(1) == []

    def test_save_bumps_version(self, tmp_path):
        m = Manifest(n_shards=1, n_sensors=7)
        m.save(tmp_path)
        v1 = Manifest.load(tmp_path).version
        m.save(tmp_path)
        assert Manifest.load(tmp_path).version == v1 + 1

    def test_load_absent_returns_none(self, tmp_path):
        assert Manifest.load(tmp_path) is None

    def test_load_corrupt_raises(self, tmp_path):
        (tmp_path / "MANIFEST").write_bytes(b"not a manifest")
        with pytest.raises(ValueError):
            Manifest.load(tmp_path)

    def test_replace_segment(self, tmp_path):
        m = Manifest(n_shards=1, n_sensors=7)
        old = m.allocate_seq(0)
        m.add_segment(0, old)
        new = m.allocate_seq(0)
        m.replace_segment(0, old, new)
        assert m.shard_segments(0) == [new]


class TestTelemetryStore:
    def _fill(self, store, n_trials=5):
        expected = {}
        for job_id in range(n_trials):
            series = _series(400 + 40 * job_id, seed=job_id)
            store.append(job_id, series, label=job_id % 3,
                         model_name=f"m{job_id % 3}")
            expected[(job_id, 0)] = series
        return expected

    def test_flush_reopen_bit_parity(self, tmp_path):
        with TelemetryStore(tmp_path / "s", n_shards=3) as store:
            expected = self._fill(store)
            store.flush()
            for (job_id, gpu), series in expected.items():
                np.testing.assert_array_equal(store.series(job_id, gpu), series)
        with TelemetryStore(tmp_path / "s", n_shards=3) as store:
            assert store.keys() == sorted(expected)
            assert store.n_sensors == 7
            for (job_id, gpu), series in expected.items():
                got = store.series(job_id, gpu)
                assert got.dtype == np.float32
                np.testing.assert_array_equal(got, series)
            store.verify()

    def test_committed_but_unflushed_survives_reopen(self, tmp_path):
        with TelemetryStore(tmp_path / "s", n_shards=2) as store:
            expected = self._fill(store, n_trials=3)
            store.commit()  # WAL only, no segments
        with TelemetryStore(tmp_path / "s", n_shards=2) as store:
            assert store.keys() == sorted(expected)
            for (job_id, _), series in expected.items():
                np.testing.assert_array_equal(store.series(job_id), series)

    def test_first_commit_after_reopen_reads_wal_once(self, tmp_path,
                                                      monkeypatch):
        # Recovery reads the WAL; the torn-tail trim before the first
        # commit reuses the valid length that read found instead of
        # reading the whole log again, and still trims the tear.
        import repro.utils.persist as persist

        with TelemetryStore(tmp_path / "s", n_shards=1) as store:
            store.append(0, _series(100))
            store.commit()
            wal_path = store._wals[0].path
        frame = _record(7, 40).encode()
        with wal_path.open("ab") as handle:
            handle.write(frame[: len(frame) // 2])
        calls = []
        real_read_frames = persist.read_frames

        def spy(*args, **kwargs):
            calls.append(args[0])
            return real_read_frames(*args, **kwargs)

        monkeypatch.setattr(persist, "read_frames", spy)
        with TelemetryStore(tmp_path / "s", n_shards=1) as store:
            assert len(calls) == 1
            store.append(1, _series(50))
            store.commit()
            assert len(calls) == 1
        monkeypatch.undo()
        records, valid = read_wal(wal_path)
        assert [r.key for r in records] == [(0, 0), (1, 0)]
        assert valid == wal_path.stat().st_size

    def test_uncommitted_is_lost(self, tmp_path):
        with TelemetryStore(tmp_path / "s", n_shards=1) as store:
            store.append(0, _series(100))
        with TelemetryStore(tmp_path / "s", n_shards=1) as store:
            assert store.keys() == []

    def test_sealed_reads_are_zero_copy(self, tmp_path):
        with TelemetryStore(tmp_path / "s", n_shards=2) as store:
            self._fill(store)
            store.flush()
            key = store.keys()[0]
            reader = store._readers[store._catalog[key]]
            assert np.shares_memory(store.series(*key), reader.data)

    def test_duplicate_key_rejected(self, tmp_path):
        with TelemetryStore(tmp_path / "s") as store:
            store.append(0, _series(100))
            with pytest.raises(ValueError, match="append-only"):
                store.append(0, _series(100))
            store.flush()
            with pytest.raises(ValueError, match="append-only"):
                store.append(0, _series(100))
            # Same job, different GPU is a distinct trial.
            store.append(0, _series(100), gpu_index=1)

    def test_sensor_width_mismatch_rejected(self, tmp_path):
        with TelemetryStore(tmp_path / "s") as store:
            store.append(0, _series(100))
            with pytest.raises(ValueError, match="sensor"):
                store.append(1, _series(100, sensors=5))

    def test_empty_series_rejected(self, tmp_path):
        with TelemetryStore(tmp_path / "s") as store:
            with pytest.raises(ValueError, match="non-empty"):
                store.append(0, np.zeros((0, 7), dtype=np.float32))

    def test_unknown_key_raises(self, tmp_path):
        with TelemetryStore(tmp_path / "s") as store:
            with pytest.raises(KeyError):
                store.series(99)

    def test_reopen_uses_stored_shard_count(self, tmp_path):
        with TelemetryStore(tmp_path / "s", n_shards=3) as store:
            self._fill(store)
            store.flush()
        # Reopening with a different n_shards keeps the on-disk layout.
        with TelemetryStore(tmp_path / "s", n_shards=8) as store:
            assert store.n_shards == 3
            assert len(store) == 5

    def test_store_with_unchecked_headers_still_opens(self, tmp_path):
        # Older releases wrote STORECONFIG and segment metas as plain
        # pickled dicts with no CRC over the header.
        root = tmp_path / "old"
        shard = root / "shard-00"
        shard.mkdir(parents=True)
        (root / "STORECONFIG").write_bytes(pickle.dumps(
            {"magic": "repro-store-config-v1", "n_shards": 1}))
        rows = np.concatenate([_series(6, seed=1), _series(4, seed=2)])
        dat, meta = segment_paths(shard, 1)
        dat.write_bytes(rows.tobytes())
        meta.write_bytes(pickle.dumps({
            "magic": "repro-store-segment-v1",
            "n_rows": 10, "n_sensors": 7, "dtype": "float32",
            "crc32": zlib.crc32(rows.tobytes()),
            "trials": {
                (0, 0): TrialSlice(row_start=0, n_rows=6, label=1,
                                   model_name="a"),
                (1, 0): TrialSlice(row_start=6, n_rows=4, label=2,
                                   model_name="b"),
            },
        }))
        Manifest(n_shards=1, n_sensors=7, segments={0: [1]},
                 next_seq={0: 2}).save(root)
        with TelemetryStore(root, n_shards=4) as store:
            assert store.n_shards == 1
            assert store.keys() == [(0, 0), (1, 0)]
            np.testing.assert_array_equal(store.series(1), rows[6:])
            assert store.slice_info(0).label == 1
            store.verify()
            store.append(2, _series(5, seed=3))
            store.flush()
        with TelemetryStore(root) as store:
            assert len(store) == 3
            np.testing.assert_array_equal(store.series(0), rows[:6])

    def test_labelled_dataset_preserves_float32_views(self, tmp_path):
        with TelemetryStore(tmp_path / "s", n_shards=2) as store:
            expected = self._fill(store)
            store.flush()
            ds = store.labelled_dataset()
            assert len(ds) == len(expected)
            for trial in ds:
                assert trial.series.dtype == np.float32
                np.testing.assert_array_equal(
                    trial.series, expected[(trial.job_id, trial.gpu_index)]
                )
                assert np.shares_memory(
                    trial.series, store.series(trial.job_id, trial.gpu_index)
                )

    def test_labelled_dataset_min_samples(self, tmp_path):
        with TelemetryStore(tmp_path / "s") as store:
            self._fill(store)  # lengths 400..560
            store.flush()
            ds = store.labelled_dataset(min_samples=500)
            assert all(t.n_samples >= 500 for t in ds)
            assert 0 < len(ds) < 5

    def test_moments_match_dense_covariance(self, tmp_path):
        with TelemetryStore(tmp_path / "s") as store:
            self._fill(store, n_trials=2)
            store.flush()
            series = store.series(0)
            mean = series.mean(axis=0)
            scale = series.std(axis=0) + 1e-8
            got = store.moments(0).standardized_covariance(mean, scale)
            want = full_trace_covariance(series, mean, scale)
            np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-9)

    def test_stats_and_totals(self, tmp_path):
        with TelemetryStore(tmp_path / "s", n_shards=2) as store:
            expected = self._fill(store)
            store.flush()
            assert len(store) == 5
            assert (0, 0) in store
            assert (99, 0) not in store
            total = sum(s.shape[0] for s in expected.values())
            assert store.total_rows() == total
            stats = store.stats()
            assert stats["n_trials"] == 5
            assert stats["total_rows"] == total

    def test_gc_stray_removes_only_unreferenced(self, tmp_path):
        with TelemetryStore(tmp_path / "s", n_shards=1) as store:
            expected = self._fill(store, n_trials=3)
            store.flush()
            shard_dir = store._shard_dir(0)
            stray_dat, stray_meta = segment_paths(shard_dir, 999)
            stray_dat.write_bytes(b"junk")
            stray_meta.write_bytes(b"junk")
            removed = store.gc_stray()
            assert sorted(p.name for p in removed) == sorted(
                [stray_dat.name, stray_meta.name]
            )
            assert not stray_dat.exists()
            for (job_id, _), series in expected.items():
                np.testing.assert_array_equal(store.series(job_id), series)

    def test_ingest_dataset_round_trip(self, tmp_path, labelled_tiny):
        with TelemetryStore(tmp_path / "s", n_shards=4) as store:
            n = store.ingest_dataset(labelled_tiny)
            assert n == len(labelled_tiny)
            for trial in labelled_tiny:
                got = store.series(trial.job_id, trial.gpu_index)
                np.testing.assert_array_equal(
                    got, np.asarray(trial.series, dtype=np.float32)
                )


class TestCompaction:
    def _filled(self, root, n_trials=4, n_shards=2):
        store = TelemetryStore(root, n_shards=n_shards)
        raw = {}
        for job_id in range(n_trials):
            series = _series(420 + 30 * job_id, seed=job_id)
            store.append(job_id, series, label=job_id % 2,
                         model_name=f"m{job_id % 2}")
            raw[(job_id, 0)] = series
        store.flush()
        return store, raw

    def test_bucket_means_math(self):
        rows = np.arange(14, dtype=np.float32).reshape(7, 2)
        out = bucket_means(rows, 3)
        assert out.shape == (3, 2)
        assert out.dtype == np.float32
        np.testing.assert_allclose(out[0], rows[:3].mean(axis=0))
        np.testing.assert_allclose(out[1], rows[3:6].mean(axis=0))
        # Trailing partial bucket averages its single remaining row.
        np.testing.assert_allclose(out[2], rows[6])

    def test_bucket_means_identity_at_one(self):
        rows = _series(50)
        np.testing.assert_array_equal(bucket_means(rows, 1), rows)

    def test_compaction_reduces_rows_and_keeps_moments(self, tmp_path):
        store, raw = self._filled(tmp_path / "s")
        before = store.total_rows()
        report = compact_store(store, bucket=10, keep_segments=0)
        assert isinstance(report, CompactionReport)
        assert report.segments_compacted > 0
        assert store.total_rows() < before
        assert report.row_reduction > 0.8
        for (job_id, _), series in raw.items():
            mean = series.mean(axis=0)
            scale = series.std(axis=0) + 1e-8
            got = store.moments(job_id).standardized_covariance(mean, scale)
            want = full_trace_covariance(series, mean, scale)
            np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-9)
        store.close()

    def test_compaction_idempotent(self, tmp_path):
        store, _ = self._filled(tmp_path / "s")
        compact_store(store, bucket=10, keep_segments=0)
        rows_after = store.total_rows()
        report2 = compact_store(store, bucket=10, keep_segments=0)
        assert report2.segments_compacted == 0
        assert store.total_rows() == rows_after
        store.close()

    def test_compaction_survives_reopen(self, tmp_path):
        store, raw = self._filled(tmp_path / "s")
        compact_store(store, bucket=10, keep_segments=0)
        downsampled = {k: np.array(store.series(k[0])) for k in raw}
        store.close()
        with TelemetryStore(tmp_path / "s") as store:
            store.verify()
            for key, want in downsampled.items():
                np.testing.assert_array_equal(store.series(key[0]), want)
                # Moments of the *original* rows ride along in the meta.
                assert store.slice_info(key[0]).moments is not None

    def test_keep_segments_spares_newest(self, tmp_path):
        store, _ = self._filled(tmp_path / "s", n_shards=1)
        # A second flush creates a newer segment on the shard.
        store.append(100, _series(400, seed=100), label=0, model_name="m0")
        store.flush()
        compact_store(store, bucket=10, keep_segments=1)
        # The newest segment's trial is untouched (full resolution).
        assert store.series(100).shape[0] == 400
        store.close()
