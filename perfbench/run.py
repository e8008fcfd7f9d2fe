#!/usr/bin/env python3
"""Outside-in benchmark of `pie run`.

    python3 perfbench/run.py --workload linear-p10 --seed 1 --seconds 22 --trace 0

Runs one named workload (see `workloads.py`) as a closed loop of replicates
in this process.  A replicate makes the three calls `pie run` makes:
`load_config`, `run_experiment`, then `emit_report` into a fresh directory,
with a master seed derived from ``--seed`` and the replicate index.  The
loop runs for ``--seconds`` and at least the workload's minimum replicate
count.  Every report is checked (`checks.py`).

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, with the
set-up interpreters spread evenly over the loop; ``--trace 1``
alternates untraced and traced replicates and prints the per-layer metrics
(medians over traced replicates) and writes the spans under
``.perfbench_out/``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; a
metric with nothing to measure (no replicate passed) is ``null`` and
``correct`` is false.

The package is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from checks import check_report
from tracing import Tracer, layer_metrics
from workloads import WORKLOADS, replicate_seed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACE_OUT = ROOT / ".perfbench_out"
SETUP_SPAWNS = 8
# what every `pie` CLI call pays before it does any work
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import pie; "
              "pie.load_config(sys.argv[2])")


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_pie():
    if not (SRC / "pie" / "__init__.py").is_file():
        fail(f"no package source at {SRC / 'pie'}")
    sys.path.insert(0, str(SRC))
    import pie
    if Path(pie.__file__).resolve().parent != SRC / "pie":
        fail(f"imported pie from {pie.__file__}, not from {SRC}")
    return pie


def declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {key: {m["name"]: m["unit"] for m in spec[key]}
            for key in ("end_to_end", "per_layer")}


# -- environment ---------------------------------------------------------------

def openblas_info() -> dict:
    """OpenBLAS version and effective thread count of the loaded numpy."""
    libs = set()
    with open("/proc/self/maps", encoding="utf-8") as fh:
        for line in fh:
            if "openblas" in line.lower():
                libs.add(line.split()[-1])
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                try:
                    threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                    config = getattr(lib, f"{prefix}_get_config{suffix}")
                except AttributeError:
                    continue
                threads.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                return {"config": config().decode(), "threads": threads()}
    return {"config": "not found", "threads": None}


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "not a git checkout"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_path = ROOT / ".git" / ref[5:]
        return ref_path.read_text().strip() if ref_path.is_file() else ref
    return ref


def last_level_cache_bytes() -> int | None:
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    sizes = []
    for index in sorted(base.glob("index*")):
        try:
            level = int((index / "level").read_text())
            text = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1024, "M": 1024 ** 2}.get(text[-1], 1)
        sizes.append((level, int(text.rstrip("KM")) * scale))
    return max(sizes)[1] if sizes else None


def environment(pie, workload) -> dict:
    import numpy
    import scipy

    n = workload.config["n"]
    p = workload.config["data"].get("p", 0)
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pie": pie.__version__,
        "openblas": openblas_info(),
        "git_sha": git_sha(),
        "largest_array_bytes": n * max(p, 1) * 8,
        "last_level_cache_bytes": last_level_cache_bytes(),
    }


# -- the measured loop -------------------------------------------------------

def time_setup(config_path: Path) -> float:
    """Wall time of one fresh interpreter importing pie and loading the config."""
    command = [sys.executable, "-c", SETUP_CODE, str(SRC), str(config_path)]
    t0 = time.perf_counter()
    done = subprocess.run(command, capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    if done.returncode != 0:
        fail(f"set-up interpreter failed:\n{done.stderr}")
    return elapsed


def write_inputs(pie, workload, seed: int, work: Path) -> Path:
    """Untimed: the workload's CSV (if any) and its YAML config."""
    import yaml

    config = json.loads(json.dumps(workload.config))
    if workload.reads_csv:
        csv_path = work / "data.csv"
        data = pie.simulate_linear(config["n"], config["data"]["p"], seed)
        pie.write_observations(data, csv_path)
        config["data"]["path"] = str(csv_path)
    config_path = work / "config.yaml"
    config_path.write_text(yaml.safe_dump(config), encoding="utf-8")
    return config_path


@dataclass
class Replicate:
    """Outcome of one replicate: wall time, metric cells and any failure."""

    index: int
    traced: bool
    seconds: float = math.nan
    cells: list = field(default_factory=list)
    problems: list = field(default_factory=list)

    @property
    def timed(self) -> bool:
        return self.index > 0  # replicate 0 warms caches and is not timed

    @property
    def ok(self) -> bool:
        return not self.problems


def run_replicate(pie, workload, config_path: Path, master_seed: int, out: Path,
                  replicate: Replicate) -> Replicate:
    try:
        t0 = time.perf_counter()
        cfg = pie.load_config(config_path, {"seeds": [master_seed], "output_dir": str(out)})
        report = pie.run_experiment(cfg, workers=workload.workers)
        paths = pie.emit_report(report, cfg.output_dir)
        replicate.seconds = time.perf_counter() - t0
        replicate.problems, replicate.cells = check_report(paths, workload.exact)
    except Exception:  # noqa: BLE001 - a failed replicate is counted, not fatal
        replicate.problems = [traceback.format_exc()]
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return replicate


def run_loop(pie, workload, config_path: Path, seed: int, seconds: float, work: Path,
             tracer=None, spawns: int = 0) -> tuple[list[Replicate], list[float]]:
    """Closed loop: replicate 0 untimed, then until ``seconds`` have passed and at
    least ``workload.min_replicates`` were timed.  With a tracer, every second
    timed replicate is traced.  ``spawns`` set-up interpreters are timed between
    replicates, one every ``seconds / spawns``, so they sample the same stretch
    of host time as the replicates.  Returns the replicates and set-up times."""
    replicates: list[Replicate] = []
    setup_times: list[float] = []
    loop_start = None
    index = 0
    while True:
        if (loop_start is not None and len(setup_times) < spawns and
                time.perf_counter() - loop_start >= len(setup_times) * seconds / spawns):
            setup_times.append(time_setup(config_path))
        traced = tracer is not None and index > 0 and index % 2 == 0
        replicate = Replicate(index, traced)
        if traced:
            tracer.replicate = index
            tracer.install()
        try:
            run_replicate(pie, workload, config_path, replicate_seed(seed, index),
                          work / f"replicate-{index}", replicate)
        finally:
            if traced:
                tracer.uninstall()
        replicates.append(replicate)
        if loop_start is None:
            loop_start = time.perf_counter()
        elif (time.perf_counter() - loop_start >= seconds
              and index >= workload.min_replicates
              and len(setup_times) == spawns):
            return replicates, setup_times
        index += 1


def median(values):
    """Median, or None when there is nothing to take it of."""
    values = list(values)
    return statistics.median(values) if values else None


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic with 10 values above it."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(workload, replicates: list[Replicate], setup_times: list[float]
               ) -> tuple[dict, str]:
    times = [r.seconds for r in replicates if r.timed and r.ok]
    # the quality metrics cover a fixed set of replicates, so they are a pure
    # function of the workload seed
    quality = [c for r in replicates if r.index < workload.min_replicates for c in r.cells]
    metrics = dict.fromkeys(("run_s_p50", "run_s_tail", "obs_per_s", "accuracy_min",
                             "w2_rel_mean"))
    metrics.update({
        "setup_s": median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": sum(r.ok for r in replicates) / len(replicates),
    })
    note = "no timed replicate passed"
    if times:
        metrics["run_s_tail"], tail_pct = tail(times)
        metrics["run_s_p50"] = statistics.median(times)
        metrics["obs_per_s"] = workload.config["n"] * len(times) / sum(times)
        note = f"run_s_tail is p{tail_pct:.1f} of {len(times)} timed replicates"
    if quality:
        metrics["accuracy_min"] = min(c["accuracy"] for c in quality)
        metrics["w2_rel_mean"] = statistics.fmean(c["w2"] / math.sqrt(c["variance"])
                                                  for c in quality)
    note += (f"; setup_s is the median of {len(setup_times)} interpreters; accuracy_min "
             f"and w2_rel_mean cover replicates 0..{workload.min_replicates - 1}")
    return metrics, note


def per_layer(workload, replicates: list[Replicate], tracer) -> tuple[dict, str]:
    by_replicate: dict[int, list] = {}
    for span in tracer.spans:
        by_replicate.setdefault(span.replicate, []).append(span)
    rows = {r.index: layer_metrics(by_replicate.get(r.index, []), workload.workers)
            for r in replicates if r.traced}
    traced = [r for r in replicates if r.traced and r.ok]
    untraced = [r for r in replicates if r.timed and not r.traced and r.ok]
    metrics = {name: median(rows[r.index][name] for r in traced)
               for name in next(iter(rows.values()))}
    # errors are summed over every traced replicate, failed ones included
    for name in metrics:
        if name.endswith(".errors"):
            metrics[name] = sum(row[name] for row in rows.values())
    traced_p50 = median(r.seconds for r in traced)
    untraced_p50 = median(r.seconds for r in untraced)
    if traced_p50 is None or untraced_p50 is None:
        metrics["trace.overhead_s"] = None
        return metrics, "no traced or no untraced timed replicate passed"
    metrics["trace.overhead_s"] = traced_p50 - untraced_p50
    note = (f"medians over {len(traced)} traced replicates; untraced run_s_p50 "
            f"{untraced_p50:.4f} s over {len(untraced)}; residual = runner.run_s - "
            f"runner.self_s - sum of layer self times = {metrics['runner.residual_s']:.6f} s")
    return metrics, note


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pie = import_pie()
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    declared = declared_metrics()["per_layer" if args.trace else "end_to_end"]

    work = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        config_path = write_inputs(pie, workload, args.seed, work)
        print("env:", json.dumps(environment(pie, workload), sort_keys=True))
        tracer = Tracer(pie) if args.trace else None
        if not args.trace:
            time_setup(config_path)  # untimed: the first spawn may write bytecode caches
        replicates, setup_times = run_loop(pie, workload, config_path, args.seed,
                                           args.seconds, work, tracer,
                                           0 if args.trace else SETUP_SPAWNS)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    failed = [r for r in replicates if not r.ok]
    for r in failed[:3]:
        print(f"perfbench: replicate {r.index} failed:\n" + "\n".join(r.problems),
              file=sys.stderr)
    if args.trace:
        metrics, note = per_layer(workload, replicates, tracer)
        TRACE_OUT.mkdir(exist_ok=True)
        trace_path = TRACE_OUT / f"trace-{workload.name}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({
            "columns": ["id", "name", "start", "end", "parent", "replicate", "thread",
                        "error", "info"],
            "spans": [s.as_row() for s in tracer.spans],
        }) + "\n", encoding="utf-8")
        note += f"; spans in {trace_path.relative_to(ROOT)}"
    else:
        metrics, note = end_to_end(workload, replicates, setup_times)
    if set(metrics) != set(declared):
        fail(f"metrics {sorted(set(metrics) ^ set(declared))} disagree with BENCHMARK.json")

    for name in declared:
        value = "missing" if metrics[name] is None else f"{metrics[name]:.6g}"
        print(f"{name:32s} {value:>16s} {declared[name]}")
    print(note)
    print(json.dumps({
        "correct": not failed and None not in metrics.values(),
        "attempted": len(replicates),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
