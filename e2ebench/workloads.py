"""The three benchmark workloads: set-up, one timed pass, output checks.

* ``serve-rf`` — about 1k stored job streams replayed through a
  two-worker :class:`~repro.fleet.FleetRouter` into an RF+Cov champion,
  no monitor taps.  Every serving layer carries a real share.
* ``serve-monitored`` — the same traffic shape at 64 jobs, plus a
  :class:`~repro.monitor.FleetDriftMonitor` ingress tap and a
  :class:`~repro.monitor.ShadowEvaluator` whose challenger is a CNN-LSTM.
* ``train`` — archive a simulated release into a fresh
  :class:`~repro.store.TelemetryStore`, read it back, cut ``60-random-1``
  windows, fit RF+Cov, XGB+Cov and a CNN-LSTM, score each on held-out
  windows.
  Its latency figures are per-tree fit times of the boosted model.

Every workload is a closed loop with one caller: the serve workloads
drive :class:`~repro.serve.FleetLoadGenerator` on a
:class:`~repro.serve.SimulatedClock` (submit one chunk per active job,
wait for ``router.step()``, repeat), in one process with in-process
workers.  The seed picks the job draw and the held-out windows; the
release, models and serving settings are fixed.
"""

from __future__ import annotations

import contextlib
import shutil
import tempfile
import time
import zlib
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.data import (
    WindowMode,
    build_challenge_dataset,
    extract_window,
    train_test_split_by_group,
    window_offsets,
)
from repro.fleet import FleetRouter, FleetWorker
from repro.ml.boosting import BoostingTree, GradientBoostingClassifier
from repro.ml.ensemble import RandomForestClassifier
from repro.ml.preprocessing import CovarianceFeatures, TimeSeriesStandardScaler
from repro.models import CNNLSTMClassifier, make_rf_cov, make_xgb_cov
from repro.monitor import DriftConfig, FleetDriftMonitor, ShadowEvaluator
from repro.nn import Adam, NLLLoss, Trainer
from repro.serve import (
    FleetLoadGenerator,
    InferenceServer,
    MicroBatcher,
    ServeConfig,
    SimulatedClock,
    StreamSession,
)
from repro.simcluster.architectures import N_CLASSES
from repro.simcluster.cluster import ClusterSimulator, SimulationConfig
from repro.store import TelemetryStore
from calibration import calibrate
from spans import patched

WINDOW = 540
HOP = 90
#: Rows every replayed job streams: 15 ticks (150 s of telemetry at
#: 9 Hz), 10 windows.  Stored trials run from 1,350 to 10,800 rows;
#: replayed whole, a run's work depended on which trials the seed drew,
#: and long jobs left a tail of near-empty ticks.
JOB_ROWS = 15 * HOP
DATASET = "60-random-1"
#: The labelled release and its ``60-random-1`` dataset are fixed, as the
#: real challenge's are, so the fitted models, memory and per-pass work do
#: not swing with the workload seed.  The seed draws the replayed jobs and
#: the held-out windows the models are scored on.
RELEASE_SEED = 2022
#: Held-out windows scored per test trial (random offsets from the seed).
HELD_OUT_PER_TRIAL = 10


@dataclass(frozen=True)
class Sizes:
    """Input and model sizes of one benchmark configuration."""

    trials_scale: float     # simulated release size (0.05 -> 178 jobs)
    serve_jobs: int         # concurrent streams on serve-rf
    monitored_jobs: int     # concurrent streams on serve-monitored
    rf_trees: int           # the serve champion's forest
    nn_hidden: int
    nn_epochs: int          # the serve-monitored challenger's training
    train_rf_trees: int     # the models a train pass fits
    xgb_rounds: int
    train_nn_epochs: int
    setup_repeats: int      # set-ups per run; setup_s is their median


#: A train pass is kept to a few seconds so that a run holds several:
#: the run reports the median over its passes.
FULL = Sizes(trials_scale=0.05, serve_jobs=1024, monitored_jobs=64,
             rf_trees=100, nn_hidden=128, nn_epochs=2,
             train_rf_trees=20, xgb_rounds=6, train_nn_epochs=1,
             setup_repeats=3)
#: Seconds-long configuration for the benchmark's own tests.
TINY = Sizes(trials_scale=0.02, serve_jobs=16, monitored_jobs=6,
             rf_trees=8, nn_hidden=8, nn_epochs=1,
             train_rf_trees=8, xgb_rounds=3, train_nn_epochs=1,
             setup_repeats=2)


class _NoSpans:
    """Stand-in tracer for untraced passes: call-site spans cost nothing."""

    def span(self, name):
        return contextlib.nullcontext()

    def count(self, name, n=1):
        pass


NO_SPANS = _NoSpans()


# ----------------------------------------------------------------------
# layer spans (installed only for traced passes)
def _rows(name):
    def counter(tr, args, result):
        tr.count(name, np.shape(args[1])[0])
    return counter


def _router_chunk(tr, args, result):
    if result:
        tr.count("fleet.router.chunks")


def _session_windows(tr, args, result):
    tr.count("serve.session.windows", len(result))


def _drift_rows(tr, args, result):
    tr.count("monitor.drift.rows", np.atleast_2d(args[2]).shape[0])


def _training_samples(tr, args, result):
    tr.count("nn.training.samples", len(result.epochs) * np.shape(args[1])[0])


def layer_spans() -> list:
    """``(owner, attr, layer, counter)`` for every measured layer entry point."""
    return [
        (FleetRouter, "submit", "fleet.router.submit", _router_chunk),
        (FleetRouter, "step", "fleet.router.step", None),
        (FleetRouter, "drain", "fleet.router.step", None),
        (InferenceServer, "step", "serve.server.step", None),
        (InferenceServer, "drain", "serve.server.step", None),
        (StreamSession, "push", "serve.session.push", _session_windows),
        (StreamSession, "complete", "serve.session.complete", None),
        (MicroBatcher, "submit", "serve.batcher.assemble", None),
        (MicroBatcher, "poll", "serve.batcher.assemble", None),
        (MicroBatcher, "drain", "serve.batcher.assemble", None),
        (TimeSeriesStandardScaler, "transform", "ml.preprocessing.scale", None),
        (CovarianceFeatures, "transform", "ml.preprocessing.cov", None),
        (RandomForestClassifier, "predict", "ml.ensemble.predict",
         _rows("ml.ensemble.predict_rows")),
        (RandomForestClassifier, "fit", "ml.ensemble.fit", None),
        (GradientBoostingClassifier, "fit", "ml.boosting.fit", None),
        (GradientBoostingClassifier, "predict", "ml.boosting.predict", None),
        (CNNLSTMClassifier, "predict", "nn.predict",
         _rows("nn.predict_windows")),
        (Trainer, "fit", "nn.training.fit", _training_samples),
        (FleetDriftMonitor, "on_ingress", "monitor.drift.on_ingress",
         _drift_rows),
        (ShadowEvaluator, "on_batch", "monitor.shadow.on_batch", None),
    ]


# ----------------------------------------------------------------------
# release and archive (shared by every workload)
def simulate_release(sizes: Sizes) -> list:
    """The simulated release, jobs in completion order."""
    sim = ClusterSimulator(SimulationConfig(seed=RELEASE_SEED,
                                            trials_scale=sizes.trials_scale))
    jobs, _log = sim.generate()
    return sorted(jobs, key=lambda j: (j.record.end_time_s, j.record.job_id))


def release_digest(jobs) -> int:
    """CRC of every series of the release (set-up repeat check)."""
    crc = 0
    for job in jobs:
        for gs in job.gpu_series:
            crc = zlib.crc32(np.ascontiguousarray(gs.data).tobytes(), crc)
    return crc


def _dir_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


@dataclass
class Archive:
    """A release written to a fresh store, with its write-side figures."""

    store: TelemetryStore
    root: Path
    rows: int
    jobs: int
    committed: int          # trials the group commits made durable
    trials: int             # trials appended
    bytes_written: int

    def close(self) -> None:
        self.store.close()
        shutil.rmtree(self.root, ignore_errors=True)


def archive_release(jobs, workdir: Path, tr) -> Archive:
    """Append and group-commit each job's trials as it completes; seal.

    ``bytes_written`` counts the WAL bytes the commits wrote (read
    before the seal truncates the logs) plus the sealed store on disk.
    """
    root = Path(tempfile.mkdtemp(prefix="store-", dir=workdir))
    store = TelemetryStore(root)
    trials = committed = rows = 0
    for job in jobs:
        with tr.span("store.append_commit"):
            for gs in job.gpu_series:
                store.append(job.record.job_id, gs.data,
                             label=job.record.class_label,
                             model_name=job.record.architecture,
                             gpu_index=gs.gpu_index)
                rows += gs.data.shape[0]
            committed += store.commit()
        trials += len(job.gpu_series)
    wal_bytes = _dir_bytes(root)
    with tr.span("store.flush"):
        store.flush()
    written = wal_bytes + _dir_bytes(root)
    tr.count("store.bytes_written", written)
    return Archive(store=store, root=root, rows=rows, jobs=len(jobs),
                   committed=committed, trials=trials, bytes_written=written)


def read_windows(archive: Archive, seed: int, tr):
    """Read the store back; cut the ``60-random-1`` dataset and held-out windows.

    Returns ``(ds, (X, y))``: the fixed challenge dataset the models train
    on (its test split validates the CNN-LSTM), and
    ``HELD_OUT_PER_TRIAL`` windows per test trial at offsets drawn from
    ``seed``, which every model is scored on.
    """
    with tr.span("store.read"):
        labelled = archive.store.labelled_dataset(min_samples=WINDOW)
    with tr.span("data.windows"):
        train_idx, test_idx = train_test_split_by_group(
            labelled.labels(), labelled.job_ids(), 0.2, RELEASE_SEED)
        ds = build_challenge_dataset(
            labelled, DATASET, train_idx=train_idx, test_idx=test_idx,
            rng=np.random.default_rng(RELEASE_SEED))
        trials = np.repeat(test_idx, HELD_OUT_PER_TRIAL)
        offsets = window_offsets(labelled.lengths()[trials], WINDOW,
                                 WindowMode.RANDOM, np.random.default_rng(seed))
        X = np.stack([extract_window(labelled.trials[i].series, int(off), WINDOW)
                      for i, off in zip(trials, offsets)])
        return ds, (X, labelled.labels()[trials])


class ScaledNet:
    """A CNN-LSTM behind the per-sensor scaler it was trained with."""

    def __init__(self, scaler, net):
        self.scaler = scaler
        self.net = net

    def predict(self, X):
        """Class labels for raw ``(n, window, sensors)`` windows."""
        return self.net.predict(self.scaler.transform(X))


def fit_cnn_lstm(ds, sizes: Sizes, epochs: int):
    """Train the CNN-LSTM for ``epochs`` epochs; returns a ScaledNet."""
    scaler = TimeSeriesStandardScaler().fit(ds.X_train)
    X_train = scaler.transform(ds.X_train).astype(np.float32)
    X_test = scaler.transform(ds.X_test).astype(np.float32)
    net = CNNLSTMClassifier(n_sensors=ds.n_sensors, seq_len=WINDOW,
                            n_classes=N_CLASSES, hidden_size=sizes.nn_hidden,
                            seed=0)
    trainer = Trainer(net, Adam(net.parameters(), lr=2e-3), NLLLoss(),
                      batch_size=32, max_epochs=epochs,
                      patience=epochs, shuffle_rng=0)
    trainer.fit(X_train, ds.y_train, X_test, ds.y_test)
    return ScaledNet(scaler, net)


def accuracy(model, held_out) -> float:
    """Accuracy on ``(X, y)`` held-out windows."""
    X, y = held_out
    return float(np.mean(np.asarray(model.predict(X)) == y))


# ----------------------------------------------------------------------
# output checks
def check_emissions(emissions, lengths: dict, *, window: int = WINDOW,
                    hop: int = HOP) -> list[str]:
    """Problems with an emission stream; empty when it is exactly right.

    Every job of ``n`` rows must emit exactly ``1 + (n - window) // hop``
    windows (none when ``n < window``) at sample indices ``window,
    window + hop, ...`` — strictly increasing by ``hop``, each once.
    """
    seen = defaultdict(list)
    for emission in emissions:
        seen[emission.job_id].append(int(emission.prediction.sample_index))
    problems = []
    for job in sorted(set(seen) - set(lengths), key=str):
        problems.append(f"job {job!r} emitted but was never submitted")
    for job, n in lengths.items():
        got = seen.get(job, [])
        n_expected = 1 + (n - window) // hop if n >= window else 0
        expected = [window + hop * k for k in range(n_expected)]
        if got != expected:
            problems.append(
                f"job {job!r} ({n} rows): expected {n_expected} windows at "
                f"{window}+{hop}k, got {len(got)} "
                f"(first mismatch at {_first_mismatch(got, expected)})")
    return problems


def _first_mismatch(got, expected) -> int:
    for i, (a, b) in enumerate(zip(got, expected)):
        if a != b:
            return i
    return min(len(got), len(expected))


class LatencyProxy:
    """Router front that stamps window latency in wall time.

    A window's latency runs from the submit of the chunk that closes it
    (the first chunk whose cumulative row count reaches the window's
    ``sample_index``) to the return of the ``step``/``drain`` that emits
    it.  Everything else passes straight through to the router.
    """

    def __init__(self, router):
        self.router = router
        self.clock = router.clock
        self.refused = 0
        self.latencies_s: list[float] = []
        self._ends = defaultdict(list)      # job -> cumulative rows per chunk
        self._stamps = defaultdict(list)    # job -> submit wall time per chunk

    def submit(self, job_id, samples, **kwargs):
        tic = time.perf_counter()
        result = self.router.submit(job_id, samples, **kwargs)
        if result:
            ends = self._ends[job_id]
            ends.append((ends[-1] if ends else 0) + len(samples))
            self._stamps[job_id].append(tic)
        else:
            self.refused += 1
        return result

    def _stamp(self, emissions):
        now = time.perf_counter()
        for emission in emissions:
            job = emission.job_id
            chunk = bisect_left(self._ends[job], emission.prediction.sample_index)
            if chunk < len(self._stamps[job]):     # else check_emissions fails it
                self.latencies_s.append(now - self._stamps[job][chunk])
        return emissions

    def step(self):
        return self._stamp(self.router.step())

    def drain(self):
        return self._stamp(self.router.drain())

    def end_session(self, job_id):
        return self.router.end_session(job_id)


# ----------------------------------------------------------------------
# workloads
@dataclass
class PassResult:
    """One timed pass: its figures, its operation tally, its fingerprint."""

    wall_s: float
    rows: int
    latencies_s: list
    accuracy: float
    attempted: int
    failed: int
    problems: list
    fingerprint: tuple
    values: dict            # per-layer figures the program itself reports
    #: Calibration kernel times taken inside the pass (not counted in
    #: ``wall_s``), just before and after the phase its latencies time.
    #: Empty when the latencies are spread over the whole pass.
    kernel_s: tuple = ()


class ServeWorkload:
    """Stored telemetry replayed through the fleet into an RF+Cov champion.

    The batcher flushes every step (deadline 0 on the simulated clock).
    The serve loop polls the deadline once per step, before the clock
    advances, so at the 0.25 s default a batch that has not filled waits
    a whole step: window latencies split into a one-step and a two-step
    mode, and their percentiles jumped between the modes from run to run.
    """

    def __init__(self, monitored: bool):
        self.monitored = monitored

    def n_jobs(self, sizes: Sizes) -> int:
        return sizes.monitored_jobs if self.monitored else sizes.serve_jobs

    def setup(self, seed: int, sizes: Sizes, workdir: Path, tr):
        """Simulate, archive, read back, fit the models; returns state."""
        jobs = simulate_release(sizes)
        archive = archive_release(jobs, workdir, tr)
        ds, held_out = read_windows(archive, seed, tr)
        champion = make_rf_cov(n_estimators=sizes.rf_trees, random_state=0)
        champion.fit(ds.X_train, ds.y_train)
        challenger = (fit_cnn_lstm(ds, sizes, sizes.nn_epochs)
                      if self.monitored else None)
        with tr.span("store.read"):
            replay = [(series, info.label)
                      for _key, info, series in archive.store.iter_trials()
                      if series.shape[0] >= JOB_ROWS]
        values = {"ml.ensemble.accuracy": accuracy(champion, held_out)}
        if challenger is not None:
            values["nn.accuracy"] = accuracy(challenger, held_out)
        fingerprint = (release_digest(jobs), sorted(values.items()))
        return {"archive": archive, "champion": champion,
                "challenger": challenger, "replay": replay,
                "values": values, "fingerprint": fingerprint}

    def teardown(self, state) -> None:
        state["archive"].close()

    def run_pass(self, state, seed: int, sizes: Sizes, workdir: Path,
                 tr) -> PassResult:
        clock = SimulatedClock()
        series = [s for s, _ in state["replay"]]
        labels = [label for _, label in state["replay"]]
        gen = FleetLoadGenerator(series, labels, n_jobs=self.n_jobs(sizes),
                                 max_samples_per_job=JOB_ROWS, seed=seed,
                                 clock=clock, keep_dtype=True)
        config = ServeConfig(window=WINDOW, hop=HOP, vote_window=5,
                             max_batch=64, flush_deadline_s=0.0)
        workers = [FleetWorker(f"w{i}", state["champion"], config, clock=clock)
                   for i in range(2)]
        drift = shadow = None
        if self.monitored:
            drift = FleetDriftMonitor(config=DriftConfig(
                warmup=WINDOW, ph_delta=0.25, ph_threshold=75.0))
            shadow = ShadowEvaluator(state["challenger"])
            for worker in workers:
                worker.server.add_tap(drift)
                worker.server.add_tap(shadow)
        router = FleetRouter(workers, clock=clock)
        proxy = LatencyProxy(router)
        report = gen.run(proxy)

        lengths = {job: gen.job_stream(job).shape[0]
                   for job in range(gen.n_jobs)}
        problems = check_emissions(report.emissions, lengths)
        fleet = router.fleet_metrics()
        failed_chunks = (proxy.refused
                         + int(fleet.counter("ingress.shed").value))
        orphaned = int(fleet.counter("predictions.orphaned").value)
        expected = sum(1 + (n - WINDOW) // HOP
                       for n in lengths.values() if n >= WINDOW)
        missing = max(0, expected - report.n_predictions)
        submitted = int(fleet.counter("ingress.chunks").value) + proxy.refused
        batchers = [w.server.batcher for w in workers]
        values = {
            "serve.batcher.predict_calls":
                sum(b.n_predict_calls for b in batchers),
            "serve.batcher.windows": sum(b.n_windows for b in batchers),
        }
        job_accuracy = report.smoothed_accuracy()
        emitted = [(e.job_id, e.prediction.sample_index, e.prediction.label,
                    e.prediction.smoothed_label) for e in report.emissions]
        fingerprint = [job_accuracy, report.n_predictions,
                       zlib.crc32(repr(emitted).encode())]
        if self.monitored:
            values["monitor.drift.events"] = drift.n_events
            values["monitor.shadow.windows"] = shadow.n_windows
            fingerprint += [drift.n_events, shadow.n_windows, shadow.agreement]
        return PassResult(
            wall_s=report.wall_seconds,
            rows=sum(lengths.values()),
            latencies_s=proxy.latencies_s,
            accuracy=job_accuracy,
            attempted=submitted + expected,
            failed=failed_chunks + orphaned + missing,
            problems=problems,
            fingerprint=tuple(fingerprint),
            values=values,
        )


@contextlib.contextmanager
def call_latencies(targets):
    """Record the wall time of every call of each ``(owner, attr)`` method.

    Yields the list the durations are appended to.  Costs two clock reads
    per call, so untraced passes can carry it.
    """
    durations: list[float] = []

    def timed(original):
        def call(*args, **kwargs):
            tic = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                durations.append(time.perf_counter() - tic)
        return call

    with patched([(owner, attr, timed) for owner, attr in targets]):
        yield durations


#: The train workload's latency unit: one boosting tree (one class, one
#: round).  Forest trees were in the pool too, but forest trees 5-10x
#: slower than the boosting trees put the tail inside the forest's short
#: fit phase, and it spread 33-47% from run to run.
TREE_FITS = ((BoostingTree, "fit"),)


class TrainWorkload:
    """Archive a release, read it back, fit and score three models."""

    def setup(self, seed: int, sizes: Sizes, workdir: Path, tr):
        jobs = simulate_release(sizes)
        return {"jobs": jobs, "values": {},
                "fingerprint": (release_digest(jobs),)}

    def teardown(self, state) -> None:
        pass

    def run_pass(self, state, seed: int, sizes: Sizes, workdir: Path,
                 tr) -> PassResult:
        tic = time.perf_counter()
        archive = archive_release(state["jobs"], workdir, tr)
        ds, held_out = read_windows(archive, seed, tr)
        rf = make_rf_cov(n_estimators=sizes.train_rf_trees, random_state=0)
        rf.fit(ds.X_train, ds.y_train)
        # The boosting fit is a third of the pass: calibrate next to it.
        kernel_s = (calibrate(),)
        with call_latencies(TREE_FITS) as tree_fit_s:
            xgb = make_xgb_cov(n_estimators=sizes.xgb_rounds, random_state=0)
            xgb.fit(ds.X_train, ds.y_train)
        kernel_s += (calibrate(),)
        net = fit_cnn_lstm(ds, sizes, sizes.train_nn_epochs)
        accuracies = {"ml.ensemble.accuracy": accuracy(rf, held_out),
                      "ml.boosting.accuracy": accuracy(xgb, held_out),
                      "nn.accuracy": accuracy(net, held_out)}
        wall = time.perf_counter() - tic - sum(kernel_s)

        problems = []
        if archive.committed != archive.trials:
            problems.append(f"{archive.trials - archive.committed} of "
                            f"{archive.trials} trials never committed")
        failed_fits = sum(1 for a in accuracies.values() if not a == a)
        archive.close()
        return PassResult(
            wall_s=wall,
            rows=archive.rows,
            latencies_s=tree_fit_s,
            accuracy=float(np.mean(list(accuracies.values()))),
            attempted=archive.jobs + len(accuracies),
            failed=(archive.trials - archive.committed) + failed_fits,
            problems=problems,
            fingerprint=tuple(sorted(accuracies.items())),
            values=accuracies,
            kernel_s=kernel_s,
        )


WORKLOADS = {
    "serve-rf": ServeWorkload(monitored=False),
    "serve-monitored": ServeWorkload(monitored=True),
    "train": TrainWorkload(),
}
