"""Sacrificial child processes for the SIGKILL crash tests.

Each worker installs a ``mode="kill"`` fault, runs one durable write
path until the fault SIGKILLs it (no unwinding, no atexit), and raises
if it ever finishes.  Workers are module-level so the spawn context can
unpickle them; :func:`run_to_sigkill` runs one and reports whether it
really died by SIGKILL.
"""

from __future__ import annotations

import multiprocessing
import signal
from dataclasses import dataclass

import numpy as np

from repro.resilience.faults import FaultInjector, FaultSpec, install


def run_to_sigkill(worker, payload: dict, *, timeout_s: float = 300.0) -> bool:
    """Run ``worker(payload)`` in a child; True iff it died by SIGKILL."""
    ctx = multiprocessing.get_context("spawn")
    proc = ctx.Process(target=worker, args=(payload,))
    proc.start()
    proc.join(timeout_s)
    if proc.is_alive():  # pragma: no cover - hang safety net
        proc.kill()
        proc.join()
        return False
    return proc.exitcode == -signal.SIGKILL


# ----------------------------------------------------------------------
# training and registry

@dataclass
class StubModel:
    """Tiny picklable stand-in for a fitted pipeline in registry tests."""

    version: int
    blob: bytes = b""


def build_trainer(payload: dict):
    """Reconstruct the test trainer exactly (same seeds every process)."""
    from repro.models import LSTMClassifier
    from repro.nn.loss import NLLLoss
    from repro.nn.optim.adam import Adam
    from repro.nn.optim.schedulers import CyclicCosineLR
    from repro.nn.training import Trainer

    model = LSTMClassifier(
        n_sensors=int(payload["n_sensors"]),
        seq_len=int(payload["seq_len"]),
        n_classes=int(payload["n_classes"]),
        hidden_size=int(payload["hidden_size"]),
        seed=int(payload["seed"]),
    )
    optimizer = Adam(model.parameters(), lr=float(payload["lr"]))
    scheduler = CyclicCosineLR(optimizer, cycle_len=int(payload["cycle_len"]))
    return Trainer(
        model,
        optimizer,
        NLLLoss(),
        scheduler=scheduler,
        batch_size=int(payload["batch_size"]),
        max_epochs=int(payload["max_epochs"]),
        patience=int(payload["patience"]),
        shuffle_rng=int(payload["seed"]),
    )


def crash_training_worker(payload: dict) -> None:
    """Train (or resume) with a SIGKILL scheduled mid-epoch."""
    install(FaultInjector([
        FaultSpec("trainer.mid_epoch", at_hit=int(payload["kill_hit"]), mode="kill")
    ]))
    trainer = build_trainer(payload)
    ckpt = payload["checkpoint_path"]
    data = (payload["X_train"], payload["y_train"],
            payload["X_val"], payload["y_val"])
    if payload["resume"]:
        trainer.resume(ckpt, *data)
    else:
        trainer.fit(*data, checkpoint_path=ckpt)
    raise SystemExit("worker was supposed to die before finishing")


def crash_registry_worker(payload: dict) -> None:
    """Run one registry write with a SIGKILL scheduled inside it."""
    from repro.serve.registry import ModelRegistry

    install(FaultInjector([FaultSpec(payload["point"], mode="kill")]))
    registry = ModelRegistry(payload["root"])
    if payload["op"] == "register":
        registry.register(
            payload["name"], payload["model"], version=int(payload["version"])
        )
    else:
        registry.set_active(payload["name"], int(payload["version"]))
    raise SystemExit("worker was supposed to die before finishing")


# ----------------------------------------------------------------------
# telemetry store

def committed_trials() -> list[tuple[int, np.ndarray]]:
    """The two trials the store worker durably commits before dying."""
    rng = np.random.default_rng(7)
    return [
        (0, rng.normal(size=(600, 7)).astype(np.float32)),
        (1, rng.normal(size=(480, 7)).astype(np.float32)),
    ]


def victim_trial() -> tuple[int, np.ndarray]:
    """The trial whose durability op the injected fault interrupts."""
    rng = np.random.default_rng(11)
    return 2, rng.normal(size=(540, 7)).astype(np.float32)


def crash_store_worker(payload: dict) -> None:
    """Commit two trials, then die at a ``store.*`` fault point.

    ``store.wal.append`` fires during the third trial's commit;
    ``store.segment.finalize`` / ``store.manifest.swap`` fire during the
    flush that tries to seal all three.
    """
    from repro.store import TelemetryStore

    install(FaultInjector([
        FaultSpec(payload["point"], at_hit=payload["at_hit"], mode="kill")
    ]))
    store = TelemetryStore(payload["root"], n_shards=payload["n_shards"])
    for job_id, series in committed_trials():
        store.append(job_id, series, label=job_id, model_name=f"m{job_id}")
    store.commit()
    job_id, series = victim_trial()
    store.append(job_id, series, label=job_id, model_name=f"m{job_id}")
    if payload["point"] == "store.wal.append":
        store.commit()
    else:
        store.flush()
    raise SystemExit("worker was supposed to die before finishing")
