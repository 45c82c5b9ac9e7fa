"""Run one workload in this process and print its result (child of run.py).

Untraced (``--trace 0``): set up ``setup_repeats`` times, then repeat
timed passes until ``--seconds`` have elapsed.  A fixed calibration
kernel runs before and after every set-up and pass, and each is timed at
the kernel's reference speed (see :mod:`calibration`): ``setup_s`` is the
median set-up, throughput the median pass, and latency percentiles are
taken over each latency sample's median across the passes.

Traced (``--trace 1``): set up once under layer spans, then alternate
untraced and traced passes (at least two of each) and report per-layer
self times as medians over the traced passes.  Layers that the timed
pass never enters (the store and the fits on the serve workloads) report
their set-up cost instead.

Every pass is checked; any failed check makes ``correct`` false.
"""

from __future__ import annotations

import argparse
import gc
import json
import shutil
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

import workloads as wl
from calibration import calibrate, reference_scale
from spans import LayerTracer

MIN_TRACED_PASSES = 2
MAX_UNATTRIBUTED_SHARE = 0.10


def _median(values) -> float:
    return float(statistics.median(values))


def _percentile_ms(latencies_s, q: float) -> float:
    return float(np.percentile(latencies_s, q)) * 1e3


def _pass_line(i: int, p) -> str:
    return (f"pass {i}: {p.wall_s:.3f} s, {p.rows / p.wall_s:,.0f} rows/s, "
            f"latency p50 {_percentile_ms(p.latencies_s, 50):.2f} ms "
            f"p90 {_percentile_ms(p.latencies_s, 90):.2f} ms over "
            f"{len(p.latencies_s)} samples, accuracy {p.accuracy:.4f}")


def _check_passes(passes, problems: list) -> None:
    for i, p in enumerate(passes):
        problems.extend(f"pass {i}: {msg}" for msg in p.problems)
        if p.fingerprint != passes[0].fingerprint:
            problems.append(
                f"pass {i} outputs differ from pass 0 for the same seed: "
                f"{p.fingerprint} != {passes[0].fingerprint}")


def _scales(passes, kernel_s) -> tuple[list, list]:
    """Reference-speed scales of each pass's wall time and its latencies.

    ``kernel_s[i]`` and ``kernel_s[i + 1]`` are the kernel runs around
    pass ``i``.  Kernel runs inside a pass sharpen its wall-time scale and
    alone set its latency scale: they sit next to the phase it times.
    """
    walls, latencies = [], []
    for p, before, after in zip(passes, kernel_s, kernel_s[1:]):
        walls.append(reference_scale((before, *p.kernel_s, after)))
        latencies.append(reference_scale(p.kernel_s or (before, after)))
    return walls, latencies


def _typical_latencies(passes, scales, problems: list):
    """Each latency sample's median over the passes, at reference speed.

    Every pass of a seed times the same windows (or tree fits) in the
    same order, so sample ``i`` of each pass measures the same work.  A
    slow spell that hits one pass's sample does not move its median.
    """
    if len({len(p.latencies_s) for p in passes}) != 1:
        problems.append("passes of one seed timed different numbers of "
                        "latency samples")
        return np.multiply(passes[0].latencies_s, scales[0])
    return np.median(np.array([p.latencies_s for p in passes])
                     * np.array(scales)[:, None], axis=0)


def run_untraced(workload, args, sizes, workdir):
    problems: list[str] = []
    times, state, first = [], None, None
    calibrate()                 # warm-up: first calls pay one-off costs
    kernel_s = [calibrate()]
    for _ in range(sizes.setup_repeats):
        if state is not None:
            workload.teardown(state)
            state = None
        gc.collect()
        tic = time.perf_counter()
        state = workload.setup(args.seed, sizes, workdir, wl.NO_SPANS)
        times.append(time.perf_counter() - tic)
        kernel_s.append(calibrate())
        if first is None:
            first = state["fingerprint"]
        elif state["fingerprint"] != first:
            problems.append("set-up repeats built different inputs or models")
    setup_scales = [reference_scale(pair)
                    for pair in zip(kernel_s, kernel_s[1:])]
    passes, kernel_s = [], kernel_s[-1:]
    deadline = time.perf_counter() + args.seconds
    try:
        while not passes or time.perf_counter() < deadline:
            gc.collect()
            passes.append(workload.run_pass(state, args.seed, sizes, workdir,
                                            wl.NO_SPANS))
            kernel_s.append(calibrate())
    finally:
        workload.teardown(state)
    scales, latency_scales = _scales(passes, kernel_s)
    _check_passes(passes, problems)
    for i, (p, scale) in enumerate(zip(passes, scales)):
        print(_pass_line(i, p) + f"; scale {scale:.3f}")
    print("set-up times: " + ", ".join(
        f"{t:.3f} s (scale {scale:.3f})"
        for t, scale in zip(times, setup_scales)))
    latencies = _typical_latencies(passes, latency_scales, problems)
    print(f"at reference speed: median of {len(passes)} passes; latency "
          f"percentiles over {len(latencies)} samples, each the median of "
          f"its {len(passes)} repeats")
    metrics = {
        "setup_s": _median(t * scale for t, scale in zip(times, setup_scales)),
        "samples_per_s": _median(p.rows / (p.wall_s * scale)
                                 for p, scale in zip(passes, scales)),
        "latency_p50_ms": _percentile_ms(latencies, 50),
        "latency_p90_ms": _percentile_ms(latencies, 90),
        "accuracy": passes[0].accuracy,
    }
    return passes, metrics, problems


def _layer_value(name, traced_tables, setup_table):
    """Median over traced passes, else the set-up figure, else 0."""
    if any(name in table for table in traced_tables):
        return _median(table.get(name, 0) for table in traced_tables)
    return setup_table.get(name, 0)


def run_traced(workload, args, sizes, workdir, layer_names):
    problems: list[str] = []
    tr = LayerTracer()
    with tr.installed(wl.layer_spans()):
        state = workload.setup(args.seed, sizes, workdir, tr)
    setup_self, setup_counts, _ = tr.snapshot()
    setup_counts.update(state["values"])
    untraced, traced, tables = [], [], []
    deadline = time.perf_counter() + args.seconds
    try:
        while (len(traced) < MIN_TRACED_PASSES
               or time.perf_counter() < deadline):
            gc.collect()
            untraced.append(workload.run_pass(state, args.seed, sizes,
                                              workdir, wl.NO_SPANS))
            gc.collect()
            tr.reset()
            with tr.installed(wl.layer_spans()):
                p = workload.run_pass(state, args.seed, sizes, workdir, tr)
            self_s, counts, covered = tr.snapshot()
            counts.update(p.values)
            traced.append(p)
            tables.append((self_s, counts, p.wall_s - covered))
    finally:
        workload.teardown(state)
    _check_passes(untraced + traced, problems)
    for i, (_, counts, _) in enumerate(tables):
        if counts != tables[0][1]:
            problems.append(f"traced pass {i} counts differ from traced "
                            f"pass 0: {counts} != {tables[0][1]}")
    walls = [p.wall_s for p in traced]
    unattributed = _median(u for _, _, u in tables)
    share = _median(u / w for (_, _, u), w in zip(tables, walls))
    if share > MAX_UNATTRIBUTED_SHARE:
        problems.append(f"named layers cover only {1 - share:.1%} of traced "
                        f"wall time (need {1 - MAX_UNATTRIBUTED_SHARE:.0%})")

    self_tables = [self_s for self_s, _, _ in tables]
    count_tables = [counts for _, counts, _ in tables]
    metrics = {}
    for name in layer_names:
        if name.startswith("bench."):
            continue
        if name.endswith("_s"):
            metrics[name] = _layer_value(name[:-2], self_tables, setup_self)
        else:               # counts repeat exactly across traced passes
            metrics[name] = _layer_value(name, count_tables[:1], setup_counts)
    calls = metrics["serve.batcher.predict_calls"]
    windows = _layer_value("serve.batcher.windows", count_tables[:1],
                           setup_counts)
    metrics["serve.batcher.batch_size_mean"] = windows / calls if calls else 0
    metrics["bench.unattributed_s"] = unattributed
    metrics["bench.trace_overhead"] = (_median(walls)
                                       / _median(p.wall_s for p in untraced))

    median_wall = _median(walls)
    print(f"traced passes: {len(traced)}, median wall {median_wall:.3f} s; "
          f"untraced passes: {len(untraced)}")
    print(f"{'layer metric':34s} {'value':>14s} {'share of wall':>14s}")
    for name in layer_names:
        value = metrics[name]
        share_text = (f"{value / median_wall:14.1%}"
                      if name.endswith("_s") and any(
                          name[:-2] in t for t in self_tables) else " " * 14)
        if name == "bench.unattributed_s":
            share_text = f"{share:14.1%}"
        print(f"{name:34s} {value:14.6g} {share_text}")
    return untraced + traced, metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--spec", required=True,
                        help="path of BENCHMARK.json (metric names and units)")
    args = parser.parse_args(argv)
    spec = json.loads(Path(args.spec).read_text())
    sizes = wl.TINY if args.tiny else wl.FULL
    workload = wl.WORKLOADS[args.workload]
    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[group]}

    work_root = Path.cwd() / ".e2ebench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=work_root))
    try:
        if args.trace:
            passes, metrics, problems = run_traced(workload, args, sizes,
                                                   workdir, list(units))
        else:
            passes, metrics, problems = run_untraced(workload, args, sizes,
                                                     workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass                # another run is still using it
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    if not args.trace:
        metrics["ok_share"] = (attempted - failed) / attempted
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    missing = set(units) - set(metrics) - {"peak_rss_mb"}
    if missing:
        raise RuntimeError(f"metrics not computed: {sorted(missing)}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
