"""Bit-identity parity suite for the inference fast paths.

Every optimisation is pinned against a reference — the path it replaced
(kept in :mod:`tests.oracles` where production no longer has it), the
grad-mode forward, or a serial run; these tests pin that fast and
reference produce *identical bits*, not merely close floats:

* ``no_grad`` fused-kernel forwards (LSTM / BiLSTM / Conv1d / MaxPool1d),
* the flattened joint tree traversal (forest + boosting, any ``n_jobs``),
* the zero-copy serving ring + batch-assembly scratch,
* process-parallel dataset generation,
* the numerically stable sigmoid.
"""

import numpy as np
import pytest

from repro.ml.boosting.xgb import GradientBoostingClassifier
from repro.ml.ensemble.forest import RandomForestClassifier
from repro.ml.tree.flat import FlatForest
from repro.nn import BiLSTM, LSTM, Tensor
from repro.nn.layers.conv import Conv1d, MaxPool1d
from repro.nn.layers.rnn import _sigmoid
from repro.nn.tensor import is_grad_enabled, no_grad
from repro.perf import (
    SUITES,
    Bench,
    BenchResult,
    Group,
    Suite,
    run_suite,
    time_group,
    write_bench_json,
)
from repro.perf.benches import MeanSignModel
from repro.serve.batcher import MicroBatcher
from repro.serve.session import StreamSession
from repro.simcluster.sensors import N_GPU_SENSORS
from tests.oracles import boosting_margins, forest_predict_proba


# ----------------------------------------------------------------------
# no_grad fused-kernel forwards
# ----------------------------------------------------------------------
SHAPES = [(3, 17, 7, 8), (1, 5, 2, 3), (4, 9, 5, 16)]


def _x(n, t, c, seed=0):
    return np.random.default_rng(seed).normal(size=(n, t, c)) \
             .astype(np.float32)


class TestNoGradForwardParity:
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("reverse", [False, True])
    def test_lstm_bit_identical(self, shape, reverse):
        n, t, c, h = shape
        layer = LSTM(c, h, rng=1)
        x = _x(n, t, c)
        ref = layer(Tensor(x), reverse=reverse).data
        with no_grad():
            fast = layer(Tensor(x), reverse=reverse).data
        assert np.array_equal(ref, fast)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_bilstm_bit_identical(self, shape):
        n, t, c, h = shape
        layer = BiLSTM(c, h, rng=2)
        x = _x(n, t, c, seed=1)
        ref = layer(Tensor(x)).data
        with no_grad():
            fast = layer(Tensor(x)).data
        assert np.array_equal(ref, fast)

    @pytest.mark.parametrize("padding", ["valid", "same", 2])
    def test_conv1d_bit_identical(self, padding):
        layer = Conv1d(5, 9, kernel_size=3, padding=padding, rng=3)
        x = _x(4, 20, 5, seed=2)
        ref = layer(Tensor(x)).data
        with no_grad():
            fast = layer(Tensor(x)).data
        assert np.array_equal(ref, fast)

    def test_maxpool_bit_identical(self):
        layer = MaxPool1d(3)
        x = _x(4, 21, 6, seed=3)
        ref = layer(Tensor(x)).data
        with no_grad():
            fast = layer(Tensor(x)).data
        assert np.array_equal(ref, fast)

    def test_fast_path_builds_no_graph(self):
        layer = LSTM(4, 6, rng=4)
        with no_grad():
            out = layer(Tensor(_x(2, 7, 4)))
        assert out._parents == ()
        assert not out.requires_grad

    def test_scratch_reuse_does_not_corrupt_earlier_outputs(self):
        # The LSTM reuses per-layer scratch between no_grad calls; outputs
        # must be freshly allocated, never views of that scratch.
        layer = LSTM(3, 5, rng=5)
        a_in, b_in = _x(2, 9, 3, seed=4), _x(2, 9, 3, seed=5)
        with no_grad():
            first = layer(Tensor(a_in)).data
            snapshot = first.copy()
            layer(Tensor(b_in))
        assert np.array_equal(first, snapshot)

    def test_scratch_rebuilds_on_shape_change(self):
        layer = LSTM(3, 5, rng=6)
        with no_grad():
            small = layer(Tensor(_x(1, 4, 3, seed=6))).data
            big = layer(Tensor(_x(5, 11, 3, seed=7))).data
        assert small.shape == (1, 4, 5) and big.shape == (5, 11, 5)

    def test_scratch_not_pickled(self):
        import pickle

        layer = LSTM(3, 5, rng=7)
        with no_grad():
            layer(Tensor(_x(2, 6, 3)))
        assert layer._infer_scratch is not None
        clone = pickle.loads(pickle.dumps(layer))
        assert clone._infer_scratch is None

    def test_no_grad_decorator(self):
        @no_grad()
        def probe():
            return is_grad_enabled()

        assert probe() is False
        assert is_grad_enabled() is True


class TestStableSigmoid:
    def test_extremes_do_not_overflow(self):
        with np.errstate(over="raise", invalid="raise"):
            out = _sigmoid(np.array([-100.0, 0.0, 100.0], dtype=np.float32))
        assert out[0] == pytest.approx(0.0, abs=1e-30)
        assert out[1] == 0.5
        assert out[2] == 1.0

    def test_matches_naive_form_in_safe_range(self):
        x = np.linspace(-10, 10, 201).astype(np.float32)
        naive = 1.0 / (1.0 + np.exp(-x.astype(np.float64)))
        assert np.allclose(_sigmoid(x), naive, atol=1e-6)

    def test_out_buffer(self):
        x = np.array([1.5, -2.0], dtype=np.float32)
        buf = np.empty_like(x)
        res = _sigmoid(x, out=buf)
        assert res is buf
        assert np.array_equal(res, _sigmoid(x))


# ----------------------------------------------------------------------
# Flattened tree-ensemble inference
# ----------------------------------------------------------------------
def _blobs(n, d, k, seed):
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=3.0, size=(k, d))
    y = rng.integers(0, k, size=n)
    return centers[y] + rng.normal(size=(n, d)), y


class TestFlatForest:
    @pytest.fixture(scope="class")
    def forest(self):
        X, y = _blobs(250, 10, 6, seed=0)
        y[:3] = 6          # rare class so some bootstraps miss classes
        rf = RandomForestClassifier(n_estimators=20, max_depth=7,
                                    oob_score=True, random_state=1)
        return rf.fit(X, y)

    def test_flat_matches_slow(self, forest):
        Xt, _ = _blobs(400, 10, 6, seed=1)
        assert np.array_equal(forest_predict_proba(forest, Xt),
                              forest.predict_proba(Xt))

    def test_n_jobs_bit_identical(self, forest):
        Xt, _ = _blobs(120, 10, 6, seed=2)
        assert np.array_equal(forest.predict_proba(Xt),
                              forest.predict_proba(Xt, n_jobs=2))

    def test_pickle_drops_cache_and_still_matches(self, forest):
        import pickle

        Xt, _ = _blobs(60, 10, 6, seed=3)
        expected = forest.predict_proba(Xt)
        clone = pickle.loads(pickle.dumps(forest))
        assert clone.__dict__.get("_flat_") is None
        assert np.array_equal(expected, clone.predict_proba(Xt))

    def test_feature_mismatch_raises(self, forest):
        with pytest.raises(ValueError, match="features"):
            forest.predict_proba(np.zeros((4, 3)))

    def test_from_trees_rebases_children(self, forest):
        flat = FlatForest.from_trees(forest.estimators_,
                                     classes=forest.classes_)
        sizes = [t.feature_.shape[0] for t in forest.estimators_]
        assert flat.feature_.shape[0] == sum(sizes)
        assert flat.n_trees == len(forest.estimators_)
        internal = flat.feature_ >= 0
        assert (flat.children_left_[internal] >= 0).all()
        assert (flat.children_left_[~internal] == -1).all()
        # Leaf payload rows are the tree distributions lifted onto the
        # ensemble class set.
        assert flat.value_.shape == (sum(sizes), forest.classes_.size)

    def test_boosting_flat_matches_slow(self):
        X, y = _blobs(200, 8, 4, seed=4)
        gb = GradientBoostingClassifier(n_estimators=5, max_depth=3,
                                        random_state=0).fit(X, y)
        Xt, yt = _blobs(150, 8, 4, seed=5)
        assert np.array_equal(boosting_margins(gb, Xt), gb._margins(Xt))
        assert np.array_equal(boosting_margins(gb, Xt, 2), gb._margins(Xt, 2))
        assert np.array_equal(gb._margins(Xt), gb._margins(Xt, n_jobs=2))
        # staged_accuracy accumulates the same margins round by round
        staged = gb.staged_accuracy(Xt, yt)
        assert staged.shape == (5,)
        final = float(np.mean(gb.predict(Xt) == yt))
        assert staged[-1] == pytest.approx(final)


# ----------------------------------------------------------------------
# Zero-copy serving
# ----------------------------------------------------------------------
class TestZeroCopyServing:
    def test_ring_windows_match_raw_stream(self):
        window, hop, total = 24, 6, 24 + 5 * 6
        rng = np.random.default_rng(0)
        stream = rng.normal(size=(total, N_GPU_SENSORS)).astype(np.float32)
        sess = StreamSession(session_id="j", window=window, hop=hop)
        reqs = []
        for start in range(0, total, 7):    # ragged chunks cross the wrap
            reqs.extend(sess.push(stream[start:start + 7]))
        assert [r.sample_index for r in reqs] == [24, 30, 36, 42, 48, 54]
        for req in reqs:
            expected = stream[req.sample_index - window:req.sample_index]
            assert np.array_equal(req.window, expected)
            assert req.window.dtype == np.float32
            assert req.window.flags["C_CONTIGUOUS"]

    def test_snapshots_are_independent_copies(self):
        sess = StreamSession(session_id="j", window=4, hop=2)
        rng = np.random.default_rng(1)
        first = sess.push(rng.normal(size=(4, N_GPU_SENSORS)))[0]
        before = first.window.copy()
        sess.push(rng.normal(size=(6, N_GPU_SENSORS)))
        assert np.array_equal(first.window, before)

    def test_oversized_push_keeps_last_window(self):
        window = 8
        sess = StreamSession(session_id="j", window=window, hop=2)
        rng = np.random.default_rng(2)
        stream = rng.normal(size=(45, N_GPU_SENSORS)).astype(np.float32)
        reqs = sess.push(stream)
        for req in reqs:
            expected = stream[req.sample_index - window:req.sample_index]
            assert np.array_equal(req.window, expected)

    def test_batcher_scratch_is_reused_not_aliased(self):
        model = MeanSignModel()
        batcher = MicroBatcher(model, max_batch=3, max_delay_s=10.0)
        rng = np.random.default_rng(3)

        def req_batch(seed):
            sess = StreamSession(session_id=seed, window=5, hop=5)
            g = np.random.default_rng(seed)
            return sess.push(g.normal(size=(5, N_GPU_SENSORS)))[0]

        first = [batcher.submit(req_batch(s)) for s in (10, 11, 12)]
        done_a = first[-1]
        assert len(done_a) == 3
        scratch_a = batcher._scratch
        labels_a = [c.label for c in done_a]
        expect_a = model.predict(
            np.stack([c.request.window for c in done_a])).tolist()
        assert labels_a == expect_a

        second = [batcher.submit(req_batch(s)) for s in (20, 21, 22)]
        done_b = second[-1]
        assert batcher._scratch is scratch_a       # buffer reused...
        assert [c.label for c in done_a] == labels_a   # ...results stable
        expect_b = model.predict(
            np.stack([c.request.window for c in done_b])).tolist()
        assert [c.label for c in done_b] == expect_b

    def test_scratch_rebuilds_on_geometry_change(self):
        batcher = MicroBatcher(MeanSignModel(), max_batch=2, max_delay_s=10.0)
        small = [np.ones((4, 3), dtype=np.float32)] * 2
        big = [np.ones((6, 3), dtype=np.float32)]
        assert batcher._assemble(small).shape == (2, 4, 3)
        assert batcher._assemble(big).shape == (1, 6, 3)
        assert batcher._scratch.shape == (2, 6, 3)


# ----------------------------------------------------------------------
# Parallel dataset generation
# ----------------------------------------------------------------------
class TestParallelDatagen:
    def test_bit_identical_to_serial(self):
        from repro.simcluster.cluster import ClusterSimulator, SimulationConfig

        cfg = SimulationConfig(seed=11, trials_scale=0.004,
                               min_jobs_per_class=1)
        serial_jobs, serial_log = ClusterSimulator(cfg).generate()
        par_jobs, par_log = ClusterSimulator(cfg).generate(n_jobs=2)
        assert list(serial_log) == list(par_log)
        assert len(serial_jobs) == len(par_jobs)
        for a, b in zip(serial_jobs, par_jobs):
            assert a.record == b.record
            for ga, gb in zip(a.gpu_series, b.gpu_series):
                assert np.array_equal(ga.data, gb.data)

    def test_n_jobs_one_is_serial(self):
        from repro.simcluster.cluster import ClusterSimulator, SimulationConfig

        cfg = SimulationConfig(seed=3, trials_scale=0.004,
                               min_jobs_per_class=1)
        jobs1, _ = ClusterSimulator(cfg).generate(n_jobs=1)
        jobs0, _ = ClusterSimulator(cfg).generate()
        assert all(a.record == b.record for a, b in zip(jobs0, jobs1))


# ----------------------------------------------------------------------
# perf harness
# ----------------------------------------------------------------------
class TestPerfHarness:
    ROW_FIELDS = {"bench", "unit", "work", "per_s", "p50_s", "p95_s",
                  "times_s", "peak_mb", "config"}

    def test_row_schema(self):
        row = BenchResult(bench="noop", unit="rows", work=10,
                          times_s=(0.2, 0.1, 0.4), config={"k": 1}).to_dict()
        assert set(row) == self.ROW_FIELDS
        assert row["times_s"] == [0.2, 0.1, 0.4]
        assert row["p50_s"] == 0.2 and row["p95_s"] >= row["p50_s"]
        assert row["per_s"] == pytest.approx(50.0)

    def test_time_group_rotates_interleaved_rounds(self):
        calls = []
        times = time_group([lambda: calls.append("a"),
                            lambda: calls.append("b")],
                           repeats=3, warmup=1)
        assert calls == ["a", "b", "a", "b", "b", "a", "a", "b"]
        assert [len(t) for t in times] == [3, 3]
        assert all(s >= 0 for t in times for s in t)

    def test_write_bench_json(self, tmp_path):
        import json

        path = write_bench_json(
            tmp_path / "BENCH_x.json",
            [BenchResult(bench="a", unit="rows", work=1, times_s=(0.1,))],
        )
        doc = json.loads(path.read_text())
        assert set(doc["rows"][0]) == self.ROW_FIELDS
        header = doc["header"]
        assert {"src_sha256", "cpu", "nproc", "python", "numpy"} <= set(header)

    def test_registry_files_injective_and_names_unique(self):
        files = [suite.file for suite in SUITES.values()]
        assert len(set(files)) == len(files) == 6
        names = [n for suite in SUITES.values() for n in suite.benches]
        assert len(set(names)) == len(names)

    def test_peak_mb_sees_a_32_mib_allocation(self, monkeypatch):
        def build(quick):
            yield Group([Bench("alloc", lambda: np.ones(4 * 1024 * 1024),
                               4 * 1024 * 1024, "floats")], repeats=2)

        monkeypatch.setitem(SUITES, "serve", Suite("serve", ("alloc",), build))
        (row,), failures = run_suite("serve", quick=True)
        assert failures == []
        assert row.peak_mb >= 32.0
        assert len(row.times_s) == 2

    def test_diverging_fast_path_exits_nonzero(self, monkeypatch, tmp_path):
        def slow():
            return np.arange(8.0)

        def fast():
            return np.arange(8.0) + 1e-12

        def build(quick):
            yield Group([
                Bench("x.slow", slow, 8, "rows"),
                Bench("x.fast", fast, 8, "rows",
                      parity=lambda: np.array_equal(slow(), fast())),
            ], repeats=1)

        monkeypatch.setitem(SUITES, "serve",
                            Suite("serve", ("x.slow", "x.fast"), build))
        from repro.cli import main

        assert main(["bench", "serve", "--quick",
                     "--out-dir", str(tmp_path)]) == 1
        assert not (tmp_path / "BENCH_serve.json").exists()

    def test_failed_trace_overhead_gate_exits_nonzero(self, monkeypatch,
                                                     tmp_path, capsys):
        # Sampled tracing reads 10% slower than untraced in every round,
        # so the re-measures cannot clear the 5% budget.
        import repro.perf.benches as benches
        from repro.cli import main

        def slow_second(fns, *, repeats, warmup=1, pause_gc=False):
            return [[1.1 if i == 1 else 1.0] * repeats
                    for i in range(len(fns))]

        monkeypatch.setattr(benches, "time_group", slow_second)
        assert main(["bench", "trace", "--quick",
                     "--out-dir", str(tmp_path)]) == 1
        assert "trace.overhead.sampled +10.00%" in capsys.readouterr().err
        assert (tmp_path / "BENCH_trace.json").exists()

    def test_cli_bench_parser(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(
            ["bench", "train", "store", "--quick", "--out-dir", "/tmp/x"])
        assert (args.command, args.suites, args.quick, args.out_dir) == (
            "bench", ["train", "store"], True, "/tmp/x")
        assert parser.parse_args(["bench"]).suites == []
        with pytest.raises(SystemExit):
            parser.parse_args(["bench", "nope"])
