"""Benchmark entry point: one workload, checked, with every metric printed.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload serve-rf --seed 1 --seconds 20 --trace 0

The workload runs in a fresh child process (``worker.py``), so
``peak_rss_mb`` is that process's own high-water RSS.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (every ``end_to_end`` metric of
``BENCHMARK.json`` with ``--trace 0``, every ``per_layer`` metric with
``--trace 1``); the line before it records provenance.  Exits non-zero,
without a result, when the program's sources are missing or the workload
fails, and with status 1 after the result when a check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 170


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha(root: Path) -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest(src: Path) -> str:
    """SHA-256 over the program's Python sources (a checkout may lack git)."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(root: Path) -> dict:
    import numpy

    return {
        "git_sha": _git_sha(root),
        "src_sha256": _source_digest(root / "src"),
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="seconds-long sizes, for the benchmark's tests")
    args = parser.parse_args(argv)

    root = Path.cwd()
    spec = root / "BENCHMARK.json"
    if not (root / "src" / "repro" / "__init__.py").is_file() or not spec.is_file():
        print(f"e2ebench: {root} is not a checkout of the program "
              "(need src/repro and BENCHMARK.json)", file=sys.stderr)
        return 2
    env = dict(os.environ)
    # One caller, one thread: BLAS thread pools spin against other tenants
    # of a small shared machine and make pass times swing several-fold.
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    # String hashing is salted per process; the salt changed dict and set
    # layouts and moved serve-monitored peak RSS over 281-303 MB between
    # runs of one seed (302.3-302.7 MB with a fixed salt).
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spec", str(spec)] + (["--tiny"] if args.tiny else [])
    try:
        child = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                               timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"e2ebench: workload exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 3
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    lines = child.stdout.splitlines()
    if child.returncode != 0 or not lines:
        sys.stdout.write(child.stdout)
        print(f"e2ebench: workload exited with status {child.returncode}",
              file=sys.stderr)
        return child.returncode or 1
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    if not args.trace:
        result["metrics"]["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
        units = [m["name"] for m in json.loads(spec.read_text())["end_to_end"]]
        result["metrics"] = {name: result["metrics"][name] for name in units}
    print("provenance: " + json.dumps(provenance(root), sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
