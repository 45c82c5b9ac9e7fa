"""Training checkpoints: everything needed to resume bit-identically.

The paper's RNN protocol (Section V-A) trains for up to 100 epochs with
early stopping — long enough that one preemption on a shared cluster
loses the whole run.  A :class:`TrainingCheckpoint` captures the *complete*
training-loop state at an epoch boundary:

* model parameters,
* optimizer state (momentum / Adam moments / step count) and LR,
* scheduler position,
* the mini-batch **shuffle RNG state** and the state of every RNG a module
  draws from at forward time (dropout masks) — without these, a resumed
  run diverges on the first shuffled batch,
* the epoch counter, best-so-far weights/accuracy, the early-stopping
  staleness counter, and the :class:`~repro.nn.training.trainer.TrainingHistory`
  so far.

Restoring all of it makes ``fit`` → kill → ``resume`` produce a history
**bit-identical** to an uninterrupted run (wall-clock ``seconds`` aside) —
the invariant ``tests/test_resilience_crash.py`` asserts under injected
and real SIGKILLs.

File format (``repro-checkpoint-v1``): a checked envelope
(:func:`repro.utils.persist.write_checked`) — a pickled header carrying a
CRC32 over the pickled checkpoint, replaced atomically; see README
"Surviving failures" for the field list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.nn.module import Module
from repro.utils.persist import read_checked, write_checked

__all__ = [
    "TrainingCheckpoint",
    "save_checkpoint",
    "load_checkpoint",
    "collect_forward_rng_states",
    "restore_forward_rng_states",
]

_MAGIC = "repro-checkpoint-v1"


def collect_forward_rng_states(model: Module) -> dict[str, dict]:
    """Bit-generator states of every module RNG used at forward time.

    Walks ``model.named_modules()`` and records ``module.rng`` state for
    modules that hold a :class:`numpy.random.Generator` (e.g. ``Dropout``,
    whose masks are drawn per forward pass).  Layers that used their RNG
    only at init time are captured too — harmless, and future layers with
    stochastic forwards are covered automatically.
    """
    states: dict[str, dict] = {}
    for name, module in model.named_modules():
        rng = getattr(module, "rng", None)
        if isinstance(rng, np.random.Generator):
            states[name] = rng.bit_generator.state
    return states


def restore_forward_rng_states(model: Module, states: dict[str, dict]) -> None:
    """Restore states captured by :func:`collect_forward_rng_states`.

    Raises ``KeyError`` when the model's RNG-bearing module set does not
    match the checkpoint's (a different architecture or layer count).
    """
    own = {
        name
        for name, module in model.named_modules()
        if isinstance(getattr(module, "rng", None), np.random.Generator)
    }
    if own != set(states):
        raise KeyError(
            f"RNG module mismatch: model has {sorted(own)}, "
            f"checkpoint has {sorted(states)}"
        )
    for name, module in model.named_modules():
        if name in states:
            module.rng.bit_generator.state = states[name]


@dataclass
class TrainingCheckpoint:
    """Complete training-loop state at the end of ``epoch``.

    ``history`` covers epochs ``1..epoch``; ``best_state`` /
    ``best_val_accuracy`` / ``stale`` are the early-stopping bookkeeping
    at that point; ``rng_states`` holds the NumPy bit-generator state of
    the batch-shuffle stream under ``"shuffle"`` and the per-module
    forward-time states (see :func:`collect_forward_rng_states`) under
    ``"forward"``.
    """

    epoch: int
    model_state: dict[str, np.ndarray]
    optimizer_state: dict[str, Any]
    scheduler_state: dict[str, Any] | None
    rng_states: dict[str, dict]
    history: Any  # TrainingHistory (kept loose to avoid an import cycle)
    best_val_accuracy: float
    best_state: dict[str, np.ndarray] | None
    stale: int
    repro_version: str = ""
    metadata: dict[str, Any] = field(default_factory=dict)


def save_checkpoint(checkpoint: TrainingCheckpoint, path: str | Path) -> Path:
    """Write ``checkpoint`` to ``path`` atomically with a CRC32 checksum.

    A kill at any instant leaves either the previous checkpoint or the new
    one — never a truncated file — so the resume path always has a valid
    checkpoint no older than one save interval.
    """
    import repro

    checkpoint.repro_version = checkpoint.repro_version or repro.__version__
    return write_checked(path, _MAGIC, checkpoint,
                         fields={"repro_version": checkpoint.repro_version})


def load_checkpoint(path: str | Path) -> TrainingCheckpoint:
    """Load and checksum-verify a checkpoint written by :func:`save_checkpoint`.

    Raises ``FileNotFoundError`` for missing files and ``ValueError``
    naming the path for non-checkpoint or corrupt files.
    """
    header, checkpoint = read_checked(path, _MAGIC, "checkpoint",
                                      fields=("repro_version",))
    if not isinstance(checkpoint, TrainingCheckpoint):
        raise ValueError(f"{path} does not contain a TrainingCheckpoint")
    if header["repro_version"] != checkpoint.repro_version:
        raise ValueError(
            f"{path} header and body disagree: the checkpoint is corrupt"
        )
    return checkpoint
