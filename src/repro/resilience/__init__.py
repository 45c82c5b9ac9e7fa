"""Crash-safety toolkit: fault injection and retries.

At fleet scale the dominant operational cost is not steady-state compute
but preemptions, node failures and the corrupt state they leave behind
(Kokolis et al., "Revisiting Reliability in Large-Scale ML Research
Clusters").  This package holds the machinery for *proving* the repo
survives them:

* :mod:`repro.resilience.faults` — named fault points + deterministic
  injector (SIGKILL or raise, on the N-th hit) wired into the durable
  write path and the training loop.
* :mod:`repro.resilience.retry` — bounded exponential backoff for
  transient load failures.

The crash-safe file primitives themselves — atomic replace, the
CRC32-checked envelope and the framed append log — live in one module,
:mod:`repro.utils.persist`; checkpoint/resume is in
:mod:`repro.nn.training.checkpoint`.  The tier-1
crash tests kill training mid-epoch and registry writers mid-save at
these fault points and assert bit-identical resume and an intact
registry.
"""

from repro.resilience.faults import (
    FAULT_POINTS,
    FaultInjector,
    FaultSpec,
    InjectedFault,
    fault_point,
    inject,
    install,
    uninstall,
)
from repro.resilience.retry import RetryPolicy, load_model_with_retry, retry_call

__all__ = [
    "FAULT_POINTS",
    "FaultInjector",
    "FaultSpec",
    "InjectedFault",
    "fault_point",
    "inject",
    "install",
    "uninstall",
    "RetryPolicy",
    "retry_call",
    "load_model_with_retry",
]
