"""The ``repro bench`` registry: six timed suites, one BENCH file each.

A suite is a generator that sets up its workload and yields
:class:`Group`\\ s of :class:`Bench` entries — a name, a zero-argument
callable, the work one call does and its unit, and optionally a parity
predicate.  :func:`run_suite` checks every parity predicate before it
times a group (a fast path that diverges from its reference raises
:class:`~repro.perf.harness.ParityError`), times the group's benches in
rotated interleaved rounds, sends the accumulated per-bench seconds
back into the generator, and takes the generator's return value as the
list of failed wall-clock gates.  Suites that hold resources (worker
pools, temporary stores) release them when the generator finishes.

Sizes, seeds, repeats and worker counts are per-suite constants: a full
run measures the committed ``BENCH_*.json`` baselines, ``quick=True``
is the CI smoke size.  Correctness — crash recovery, exactly-once
failover, churn bounds, trace connectivity, resume — is the tier-1
suite's job; the only gates here are the ones that need a wall clock:
the parity asserts, the sampled-tracing overhead budget, and (full size
only) the training and datagen throughput floors.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Generator, Iterable

import numpy as np

from repro.perf.harness import (
    BenchResult,
    ParityError,
    peak_mb,
    provenance,
    time_group,
    write_bench_json,
)

__all__ = [
    "Bench",
    "Group",
    "Suite",
    "SUITES",
    "MeanSignModel",
    "ThresholdModel",
    "run_suite",
    "run_bench",
    "BASELINE_TRAIN_SAMPLES_PER_S",
    "MAX_TRACE_OVERHEAD",
]

#: The committed pre-fusion single-process training baseline; the full
#: size ``train`` gates are multiples of it.
BASELINE_TRAIN_SAMPLES_PER_S = 906.6

#: Budget for job-sampled tracing on the serve hot path.
MAX_TRACE_OVERHEAD = 0.05
TRACE_SAMPLE = 1.0 / 16.0


@dataclass(frozen=True)
class Bench:
    """One timed callable: ``work`` units of ``unit`` per call."""

    name: str
    fn: Callable[[], object]
    work: int
    unit: str
    parity: Callable[[], bool] | None = None
    config: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Group:
    """Benches timed together, interleaved round by round."""

    benches: list[Bench]
    repeats: int
    warmup: int = 1
    pause_gc: bool = False


SuiteGen = Generator[Group, dict, "list[str] | None"]


@dataclass(frozen=True)
class Suite:
    """A registered suite: the bench names it may emit and its builder."""

    name: str
    benches: tuple[str, ...]
    build: Callable[[bool], SuiteGen]

    @property
    def file(self) -> str:
        """The one BENCH file this suite writes."""
        return f"BENCH_{self.name}.json"


# ----------------------------------------------------------------------
# stub models and synthetic data
# ----------------------------------------------------------------------
class MeanSignModel:
    """Near-free deterministic model: serve/store benches time the
    serving and I/O layers, not the classifier."""

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Label 1 where the window's grand mean is positive."""
        return (X.mean(axis=(1, 2)) > 0.0).astype(np.int64)


class ThresholdModel:
    """O(1)-per-window model for fleet and tracing scenarios.

    Each window is labelled on its own, so batch composition cannot
    change a prediction.  Module-level so subprocess workers can
    unpickle it.
    """

    def predict(self, X):
        """Label 1 where the window's mean sensor-0 reading exceeds 50."""
        X = np.asarray(X)
        return (X[:, :, 0].mean(axis=1) > 50.0).astype(np.int64)


def _blobs(n: int, d: int, k: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian class blobs — enough structure to grow real trees."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=3.0, size=(k, d))
    y = rng.integers(0, k, size=n)
    return centers[y] + rng.normal(size=(n, d)), y


def _synth_series(n_rows: int, seed: int = 2022, n_series: int = 8):
    """Seeded synthetic 7-sensor telemetry on a 0-100 scale."""
    rng = np.random.default_rng(seed)
    return [rng.random((n_rows, 7)) * 100.0 for _ in range(n_series)]


def _equal(a: Callable[[], np.ndarray], b: Callable[[], np.ndarray]):
    """Parity predicate: ``a()`` and ``b()`` are bit-identical."""
    return lambda: np.array_equal(a(), b())


def _per_s(times: dict, name: str, work: int) -> float:
    return work / float(np.percentile(times[name], 50))


# ----------------------------------------------------------------------
# serve: stream sessions + micro-batcher
# ----------------------------------------------------------------------
def _serve(quick: bool) -> SuiteGen:
    from repro.serve.batcher import MicroBatcher
    from repro.serve.session import StreamSession
    from repro.simcluster.sensors import N_GPU_SENSORS

    n_sessions = 8 if quick else 64
    window, hop, rate, max_batch = 540, 90, 90, 32
    samples_each = window + 4 * hop
    streams = np.random.default_rng(0).normal(
        size=(n_sessions, samples_each, N_GPU_SENSORS)).astype(np.float32)
    model = MeanSignModel()

    def replay() -> list:
        sessions = [StreamSession(session_id=i, window=window, hop=hop)
                    for i in range(n_sessions)]
        batcher = MicroBatcher(model, max_batch=max_batch, max_delay_s=0.0)
        done = []
        for start in range(0, samples_each, rate):
            for i, sess in enumerate(sessions):
                for req in sess.push(streams[i, start:start + rate]):
                    done.extend(batcher.submit(req))
        done.extend(batcher.drain())
        return done

    def ring_parity() -> bool:
        # every emitted window equals the raw slice of its source stream
        return all(
            np.array_equal(c.request.window,
                           streams[c.request.session_id,
                                   c.request.sample_index - window:
                                   c.request.sample_index])
            for c in replay()
        )

    yield Group([Bench(
        "serve.replay", replay, n_sessions * samples_each, "samples",
        parity=ring_parity,
        config={"sessions": n_sessions, "samples_each": samples_each,
                "window": window, "hop": hop, "max_batch": max_batch},
    )], repeats=2)

    batch = [c.request.window for c in replay()[:max_batch]]
    batch += batch[-1:] * (max_batch - len(batch))
    asm = MicroBatcher(model, max_batch=max_batch)
    cfg = {"batch": max_batch, "window": window, "sensors": N_GPU_SENSORS}

    def stack():
        return np.stack(batch)

    def scratch():
        return asm._assemble(batch)

    yield Group([
        Bench("serve.batch.stack", stack, max_batch, "windows", config=cfg),
        Bench("serve.batch.scratch", scratch, max_batch, "windows",
              parity=_equal(stack, scratch), config=cfg),
    ], repeats=20)


# ----------------------------------------------------------------------
# infer: tree ensembles and LSTM predict.  Parity gates: the tree-parallel
# forest against the serial one, no_grad LSTM predict against the grad
# forward; the flat-vs-per-tree-loop gates run in tier-1 against the
# test-side oracles.
# ----------------------------------------------------------------------
def _infer(quick: bool) -> SuiteGen:
    from repro.ml.boosting.xgb import GradientBoostingClassifier
    from repro.ml.ensemble.forest import RandomForestClassifier
    from repro.models import LSTMClassifier
    from repro.nn import Tensor
    from repro.nn.tensor import no_grad

    repeats = 3 if quick else 5
    n_train, n_test, n_trees = (200, 500, 10) if quick else (2000, 20000, 50)
    X, y = _blobs(n_train, 28, 26, 0)
    Xt, _ = _blobs(n_test, 28, 26, 1)
    rf = RandomForestClassifier(n_estimators=n_trees, max_depth=12,
                                random_state=0).fit(X, y)
    cfg = {"n_train": n_train, "n_test": n_test, "n_trees": n_trees,
           "d": 28, "k": 26}

    def flat():
        return rf.predict_proba(Xt)

    def flat_j2():
        return rf.predict_proba(Xt, n_jobs=2)

    yield Group([
        Bench("forest.predict.flat", flat, n_test, "rows", config=cfg),
        Bench("forest.predict.flat.j2", flat_j2, n_test, "rows",
              parity=_equal(flat, flat_j2), config={**cfg, "n_jobs": 2}),
    ], repeats=repeats)

    n_train, n_test, rounds = (200, 400, 4) if quick else (1500, 10000, 12)
    X, y = _blobs(n_train, 20, 8, 2)
    Xt2, _ = _blobs(n_test, 20, 8, 3)
    gb = GradientBoostingClassifier(n_estimators=rounds, max_depth=4,
                                    random_state=0).fit(X, y)
    cfg = {"n_train": n_train, "n_test": n_test, "rounds": rounds,
           "d": 20, "k": 8}

    def margins_flat():
        return gb._margins(Xt2)

    yield Group([
        Bench("boosting.margins.flat", margins_flat, n_test, "rows",
              config=cfg),
    ], repeats=repeats)

    n, t, hidden = (16 if quick else 256), 96, 32
    Xs = np.random.default_rng(0).normal(size=(n, t, 7)).astype(np.float32)
    lstm = LSTMClassifier(n_sensors=7, seq_len=t, n_classes=26,
                          hidden_size=hidden, seed=0)
    lstm.eval()
    cfg = {"n": n, "t": t, "sensors": 7, "hidden": hidden, "k": 26}

    def predict_grad():
        # the same forward with autograd bookkeeping on
        return np.concatenate([lstm(Tensor(Xs[s:s + 64])).data
                               for s in range(0, n, 64)])

    def predict_nograd():
        with no_grad():
            return predict_grad()

    yield Group([
        Bench("lstm.predict.grad", predict_grad, n, "windows", config=cfg),
        Bench("lstm.predict.nograd", predict_nograd, n, "windows",
              parity=_equal(predict_grad, predict_nograd), config=cfg),
    ], repeats=2)


# ----------------------------------------------------------------------
# train: LSTM epochs (single process, sharded, worker pool) + datagen
# ----------------------------------------------------------------------
def _same_release(a, b) -> bool:
    return len(a) == len(b) and all(
        x.record == y.record
        and all(np.array_equal(gx.data, gy.data)
                for gx, gy in zip(x.gpu_series, y.gpu_series))
        for x, y in zip(a, b)
    )


def _train(quick: bool) -> SuiteGen:
    from repro.models import LSTMClassifier
    from repro.nn import Adam, NLLLoss, Trainer
    from repro.simcluster.cluster import ClusterSimulator, SimulationConfig

    t, sensors, k, hidden = 96, 7, 26, 32
    repeats = 2 if quick else 3
    rng = np.random.default_rng(0)

    def make_trainer(batch_size, **kw):
        model = LSTMClassifier(n_sensors=sensors, seq_len=t, n_classes=k,
                               hidden_size=hidden, seed=0)
        return Trainer(model, Adam(model.parameters(), lr=1e-3), NLLLoss(),
                       batch_size=batch_size, max_epochs=1, patience=10,
                       shuffle_rng=0, **kw)

    # The committed baseline protocol: model built inside the timed
    # region, batch 32, one epoch including validation.
    n = 16 if quick else 256
    X = rng.normal(size=(n, t, sensors)).astype(np.float32)
    y = rng.integers(0, k, size=n)
    Xv, yv = X[:max(8, n // 8)], y[:max(8, n // 8)]
    cfg = {"n": n, "t": t, "sensors": sensors, "hidden": hidden, "k": k}
    yield Group([Bench(
        "lstm.train.epoch", lambda: make_trainer(32).fit(X, y, Xv, yv),
        n, "samples", config=cfg,
    )], repeats=repeats)

    # Weak-scaled data parallelism: fixed shard per worker, global batch
    # = 4 shards at every worker count, pool spawned outside the timed
    # region (workers persist across epochs, the steady state of a fit).
    shard, n_jobs = (16 if quick else 256), 4
    n_par = 102 if quick else 2048
    Xp = rng.normal(size=(n_par, t, sensors)).astype(np.float32)
    yp = rng.integers(0, k, size=n_par)
    Xpv, ypv = Xp[:max(8, n_par // 8)], yp[:max(8, n_par // 8)]
    pcfg = {**cfg, "n": n_par, "batch": 4 * shard, "shard": shard}

    def one_epoch_params(jobs: int) -> list:
        trainer = make_trainer(4 * shard, n_jobs=jobs, shard_size=shard)
        with trainer:
            trainer.fit(Xp, yp, Xpv, ypv)
        return [p.data for p in trainer.model.parameters()]

    def pool_parity() -> bool:
        return all(np.array_equal(a, b) for a, b in
                   zip(one_epoch_params(1), one_epoch_params(n_jobs)))

    sharded = make_trainer(4 * shard, n_jobs=1, shard_size=shard)
    pooled = make_trainer(4 * shard, n_jobs=n_jobs, shard_size=shard)
    with sharded, pooled:
        yield Group([
            Bench("lstm.train.epoch.sharded",
                  lambda: sharded.fit(Xp, yp, Xpv, ypv), n_par, "samples",
                  config={**pcfg, "n_jobs": 1}),
            Bench(f"lstm.train.epoch.j{n_jobs}",
                  lambda: pooled.fit(Xp, yp, Xpv, ypv), n_par, "samples",
                  parity=pool_parity, config={**pcfg, "n_jobs": n_jobs}),
        ], repeats=repeats)

    sim = ClusterSimulator(SimulationConfig(
        seed=2022, trials_scale=0.005 if quick else 0.03))
    n_gen = len(sim.job_plan())
    dcfg = {"trials_scale": sim.config.trials_scale, "jobs": n_gen}

    def parallel():
        return sim.generate(n_jobs=2)

    times = yield Group([
        Bench("datagen.serial", sim.generate, n_gen, "jobs", config=dcfg),
        Bench("datagen.parallel.j2", parallel, n_gen, "jobs",
              parity=lambda: _same_release(sim.generate()[0], parallel()[0]),
              config={**dcfg, "n_jobs": 2}),
    ], repeats=5, warmup=0)

    if quick:
        return []
    base = BASELINE_TRAIN_SAMPLES_PER_S
    single = _per_s(times, "lstm.train.epoch", n)
    par = _per_s(times, f"lstm.train.epoch.j{n_jobs}", n_par)
    serial = _per_s(times, "datagen.serial", n_gen)
    par_dg = _per_s(times, "datagen.parallel.j2", n_gen)
    gates = [
        (f"lstm.train.epoch {single:.0f}/s >= 1.5x baseline {base:.0f}/s",
         single >= 1.5 * base),
        (f"lstm.train.epoch.j{n_jobs} {par:.0f}/s >= 2.5x baseline "
         f"{base:.0f}/s", par >= 2.5 * base),
        # 5% tolerance: on a single-core host the parallel path falls
        # back to the serial loop, and the two differ only by noise.
        (f"datagen.parallel.j2 {par_dg:.0f}/s >= 0.95x datagen.serial "
         f"{serial:.0f}/s", par_dg >= 0.95 * serial),
    ]
    return [msg for msg, ok in gates if not ok]


# ----------------------------------------------------------------------
# store: ingest, recovery scan, mmap replay, compaction
# ----------------------------------------------------------------------
def _store(quick: bool) -> SuiteGen:
    import shutil
    import tempfile

    from repro.serve.loadgen import FleetLoadGenerator
    from repro.serve.server import InferenceServer
    from repro.simcluster.cluster import ClusterSimulator, SimulationConfig
    from repro.store.compact import compact_store
    from repro.store.store import TelemetryStore

    scale, n_shards, repeats = (0.01, 2, 2) if quick else (0.02, 4, 3)
    jobs, _ = ClusterSimulator(
        SimulationConfig(seed=2022, trials_scale=scale)).generate()
    series = [gs.data for job in jobs for gs in job.gpu_series]
    rows = int(sum(s.shape[0] for s in series))
    cfg = {"scale": scale, "trials": len(series), "rows": rows,
           "n_shards": n_shards}
    workdir = Path(tempfile.mkdtemp(prefix="repro-bench-store-"))
    root = workdir / "ingest"

    def fresh_store(path: Path, shards: int) -> TelemetryStore:
        shutil.rmtree(path, ignore_errors=True)
        store = TelemetryStore(path, n_shards=shards)
        store.ingest(jobs)
        return store

    def ingest():
        fresh_store(root, n_shards).close()

    def recover_scan():
        with TelemetryStore(root, n_shards=n_shards) as store:
            for _key, _info, stream in store.iter_trials():
                stream[0]               # touch first page of every trial

    def compact():
        with fresh_store(workdir / "compact", 1) as store:
            compact_store(store, bucket=10, keep_segments=0)

    try:
        yield Group([Bench("store.ingest", ingest, rows, "rows",
                           config=cfg)], repeats=repeats)
        yield Group([Bench("store.recover", recover_scan, rows, "rows",
                           config=cfg)], repeats=repeats)
        with TelemetryStore(root, n_shards=n_shards) as store:
            def loadgen():
                return FleetLoadGenerator.from_store(
                    store, n_jobs=16, rate=4.0, seed=2022)

            def replay():
                gen = loadgen()
                gen.run(InferenceServer(MeanSignModel(), clock=gen.clock))

            gen = loadgen()
            replay_rows = int(sum(gen.job_stream(j).shape[0]
                                  for j in range(gen.n_jobs)))
            yield Group([Bench(
                "store.replay", replay, replay_rows, "rows",
                config={**cfg, "n_jobs": 16, "rate": 4.0},
            )], repeats=repeats)
        yield Group([Bench("store.compact", compact, rows, "rows",
                           config={**cfg, "n_shards": 1, "bucket": 10})],
                    repeats=max(2, repeats - 1), warmup=0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# ----------------------------------------------------------------------
# fleet: killed-worker failover replay and capacity-model scaling
# ----------------------------------------------------------------------
def _rf_champion():
    """Simulate a release and fit the RF+Cov champion on 60-random-1."""
    from repro.data import build_challenge_suite
    from repro.data.labelled import build_labelled_dataset
    from repro.models import make_rf_cov
    from repro.simcluster.cluster import SimulationConfig

    labelled = build_labelled_dataset(
        SimulationConfig(seed=2022, trials_scale=0.02))
    ds = build_challenge_suite(labelled, seed=2022,
                               names=("60-random-1",))["60-random-1"]
    model = make_rf_cov(n_estimators=30, random_state=0)
    model.fit(ds.X_train, ds.y_train)
    window = ds.n_samples
    return model, window, [t.series for t in labelled.eligible(window).trials]


def _fleet(quick: bool) -> SuiteGen:
    from repro.fleet import FleetRouter, FleetWorker
    from repro.resilience.faults import FaultSpec, inject
    from repro.serve.loadgen import FleetLoadGenerator, SimulatedClock
    from repro.serve.server import ServeConfig

    n_jobs, max_samples, kill_tick = (24, 1800, 6) if quick else (32, 2700, 12)
    worker_counts = (1, 2, 4) if quick else (1, 2, 4, 8)
    n_parity, capacity = 4, 4
    if quick:
        model, window = ThresholdModel(), 90
        series = _synth_series(max_samples)
    else:
        model, window, series = _rf_champion()

    def build_fleet(n_workers, model, serve_config, capacity=None):
        clock = SimulatedClock()
        gen = FleetLoadGenerator(
            series, None, n_jobs=n_jobs, samples_per_tick=90,
            max_samples_per_job=max_samples, seed=2022, clock=clock)
        router = FleetRouter(
            [FleetWorker(f"w{i}", model, serve_config, clock=clock,
                         capacity_per_step=capacity)
             for i in range(n_workers)],
            clock=clock, history=gen.job_stream, vnodes=128)
        return gen, router

    def failover():
        # Crash the owner of job 0 at the top of its step on kill_tick:
        # workers step in sorted-id order, one crash-point hit each.
        gen, router = build_fleet(
            n_parity, model, ServeConfig(window=window, hop=min(90, window)))
        victim = sorted(router.worker_ids).index(router.owner_of(0))
        at_hit = kill_tick * n_parity + victim + 1
        with inject(FaultSpec("fleet.worker.crash", at_hit=at_hit,
                              mode="raise")):
            return len(gen.run(router).emissions)

    yield Group([Bench(
        "fleet.failover", failover, failover(), "windows",
        config={"workers": n_parity, "kill_tick": kill_tick,
                "n_jobs": n_jobs, "model": "stub" if quick else "rf"},
    )], repeats=3, warmup=0)

    # window == hop == chunk: every served chunk completes one window,
    # so goodput (windows emitted inside the replay horizon) counts
    # served chunks under the per-worker capacity model.
    scaling = ServeConfig(window=90, hop=90, flush_deadline_s=0.0)
    for n_workers in worker_counts:
        def goodput(n_workers=n_workers) -> int:
            gen, router = build_fleet(n_workers, ThresholdModel(), scaling,
                                      capacity=capacity)
            emitted = []
            gen.run(router, on_tick=lambda tick, em: emitted.extend(em))
            return len(emitted)

        yield Group([Bench(
            f"fleet.scaling.w{n_workers}", goodput, goodput(), "windows",
            config={"workers": n_workers, "capacity_per_step": capacity,
                    "n_jobs": n_jobs},
        )], repeats=3, warmup=0)


# ----------------------------------------------------------------------
# trace: traced failover replay, hot-path overhead, span WAL
# ----------------------------------------------------------------------
def _trace(quick: bool) -> SuiteGen:
    import tempfile

    from repro.fleet import FleetRouter, FleetWorker
    from repro.resilience.faults import FaultSpec, inject
    from repro.serve.loadgen import FleetLoadGenerator, SimulatedClock
    from repro.serve.server import InferenceServer, ServeConfig
    from repro.trace.sink import TraceSink, load_spans
    from repro.trace.span import Span, Tracer

    n_jobs, max_samples, kill_tick = (16, 900, 3) if quick else (32, 1800, 6)
    n_workers = 4
    series = _synth_series(max_samples)
    chunked = ServeConfig(window=90, hop=90, flush_deadline_s=0.0)

    def traced_failover() -> int:
        clock = SimulatedClock()
        gen = FleetLoadGenerator(
            series, None, n_jobs=n_jobs, samples_per_tick=90,
            max_samples_per_job=max_samples, seed=2022, clock=clock)
        sink = TraceSink()
        router = FleetRouter(
            [FleetWorker(f"w{i}", ThresholdModel(), chunked, clock=clock,
                         tracer=Tracer(sink, component=f"w{i}",
                                       worker_id=f"w{i}"))
             for i in range(n_workers)],
            history=gen.job_stream, tracer=Tracer(sink, component="router"))
        # hit kill_tick * n + 1 is w0's crash point at the top of kill_tick
        with inject(FaultSpec("fleet.worker.crash",
                              at_hit=kill_tick * n_workers + 1, mode="raise")):
            gen.run(router, tracer=Tracer(sink, component="gen"))
        return len(sink.spans())

    yield Group([Bench(
        "trace.failover", traced_failover, traced_failover(), "spans",
        config={"n_jobs": n_jobs, "workers": n_workers,
                "kill_tick": kill_tick},
    )], repeats=3, warmup=0)

    # The serve.replay geometry; the sampled-job fraction only tracks
    # the nominal rate with enough job streams, so quick keeps it too.
    shape = {"sessions": 64, "samples_each": 900, "window": 540, "hop": 90,
             "max_batch": 32}
    replay_series = _synth_series(shape["samples_each"])
    serve_config = ServeConfig(window=shape["window"], hop=shape["hop"],
                               max_batch=shape["max_batch"],
                               flush_deadline_s=0.0)

    def replay(sample: float | None) -> None:
        clock = SimulatedClock()
        gen = FleetLoadGenerator(replay_series, None,
                                 n_jobs=shape["sessions"],
                                 samples_per_tick=90, seed=2022, clock=clock)
        if sample is None:
            gen.run(InferenceServer(ThresholdModel(), serve_config,
                                    clock=clock))
            return
        sink = TraceSink()
        server = InferenceServer(
            ThresholdModel(), serve_config, clock=clock,
            tracer=Tracer(sink, component="srv", worker_id="srv"))
        gen.run(server, tracer=Tracer(sink, component="gen", sample=sample))

    n_samples = shape["sessions"] * shape["samples_each"]
    benches = [
        Bench(f"trace.overhead.{name}", lambda s=sample: replay(s),
              n_samples, "samples",
              config={**shape, "sample": 0.0 if sample is None else sample})
        for name, sample in (("untraced", None), ("sampled", TRACE_SAMPLE),
                             ("full", 1.0))
    ]
    repeats = 5 if quick else 9
    times = yield Group(benches, repeats=repeats, pause_gc=True)

    def overhead() -> float:
        # minima: scheduler noise can inflate a run, never deflate it
        return (min(times["trace.overhead.sampled"])
                / min(times["trace.overhead.untraced"]) - 1.0)

    # A minimum only sharpens with more samples, so a failing verdict
    # earns extra untraced/sampled rounds before it stands.
    for _ in range(3):
        if overhead() < MAX_TRACE_OVERHEAD:
            break
        yield Group(benches[:2], repeats=repeats, warmup=0, pause_gc=True)

    spans = [
        Span(trace_id=f"t{i % 7}", span_id=f"s:{i}",
             parent_id=None if i % 3 == 0 else f"s:{i - 1}",
             name=("request", "route", "predict")[i % 3],
             worker_id=f"w{i % 4}", start_s=float(i), end_s=i + 0.5,
             wall_s=1e-6 * i, status="ok" if i % 5 else "failed",
             annotations={"i": i} if i % 2 else None)
        for i in range(128)
    ]

    def wal_round_trip() -> None:
        with tempfile.TemporaryDirectory() as tmp:
            sink = TraceSink(wal_dir=tmp, flush_every=1 << 30, fsync=False)
            sink.extend(spans)
            sink.flush()
            load_spans(tmp)

    yield Group([Bench("trace.wal", wal_round_trip, len(spans), "spans",
                       config={"spans": len(spans)})], repeats=5)

    if overhead() >= MAX_TRACE_OVERHEAD:
        return [f"trace.overhead.sampled {overhead():+.2%} at sample="
                f"{TRACE_SAMPLE:g} is over the "
                f"{MAX_TRACE_OVERHEAD:.0%} budget"]
    return []


# ----------------------------------------------------------------------
# registry and runner
# ----------------------------------------------------------------------
SUITES: dict[str, Suite] = {s.name: s for s in (
    Suite("serve", ("serve.replay", "serve.batch.stack",
                    "serve.batch.scratch"), _serve),
    Suite("infer", ("forest.predict.flat", "forest.predict.flat.j2",
                    "boosting.margins.flat", "lstm.predict.grad",
                    "lstm.predict.nograd"), _infer),
    Suite("train", ("lstm.train.epoch", "lstm.train.epoch.sharded",
                    "lstm.train.epoch.j4", "datagen.serial",
                    "datagen.parallel.j2"), _train),
    Suite("store", ("store.ingest", "store.recover", "store.replay",
                    "store.compact"), _store),
    Suite("fleet", ("fleet.failover", "fleet.scaling.w1",
                    "fleet.scaling.w2", "fleet.scaling.w4",
                    "fleet.scaling.w8"), _fleet),
    Suite("trace", ("trace.failover", "trace.overhead.untraced",
                    "trace.overhead.sampled", "trace.overhead.full",
                    "trace.wal"), _trace),
)}


def run_suite(name: str, *, quick: bool = False
              ) -> tuple[list[BenchResult], list[str]]:
    """Run one registered suite; returns its rows and failed gates.

    Raises :class:`ParityError` before timing any group whose parity
    predicate fails.
    """
    suite = SUITES[name]
    times: dict[str, list[float]] = {}
    seen: dict[str, tuple[Bench, float]] = {}
    failures: list[str] = []
    gen = suite.build(quick)
    try:
        group = next(gen)
        while True:
            for bench in group.benches:
                if bench.name not in suite.benches:
                    raise ValueError(f"bench {bench.name!r} is not "
                                     f"registered in suite {name!r}")
                if bench.parity is not None and not bench.parity():
                    raise ParityError(f"{bench.name}: fast path diverged "
                                      "from its reference")
            measured = time_group([b.fn for b in group.benches],
                                  repeats=group.repeats, warmup=group.warmup,
                                  pause_gc=group.pause_gc)
            for bench, secs in zip(group.benches, measured):
                times.setdefault(bench.name, []).extend(secs)
                if bench.name not in seen:
                    seen[bench.name] = (bench, peak_mb(bench.fn))
            group = gen.send(times)
    except StopIteration as stop:
        failures = list(stop.value or [])
    finally:
        gen.close()
    results = [
        BenchResult(bench=b.name, unit=b.unit, work=b.work,
                    times_s=tuple(times[b.name]), peak_mb=peak,
                    config=b.config)
        for b, peak in seen.values()
    ]
    return results, failures


def run_bench(suites: Iterable[str] = (), *, quick: bool = False,
              out_dir: str | Path = ".") -> int:
    """Run suites (all by default), write their BENCH files; exit code.

    A parity failure skips that suite's file; a failed wall-clock gate
    still writes it.  Either makes the exit code 1.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    header = {**provenance(), "quick": quick}
    status = 0
    for name in list(suites) or list(SUITES):
        try:
            results, failures = run_suite(name, quick=quick)
        except ParityError as exc:
            print(f"PARITY FAILURE: {exc}", file=sys.stderr)
            status = 1
            continue
        path = write_bench_json(out_dir / SUITES[name].file, results, header)
        print(f"# {path}")
        for result in results:
            print(f"  {result}")
        for msg in failures:
            print(f"GATE FAILED: {msg}", file=sys.stderr)
            status = 1
    return status
