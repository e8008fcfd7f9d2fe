#!/usr/bin/env python3
"""Run the benchmark in alternating parent/change pairs and record the result.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload poisson-bign --seed 41 --pairs 10 --out BENCH_x.json

Each checkout runs its own ``perfbench/run.py --trace 0`` as a separate
process, with the parent first in odd-numbered pairs and the change first
in even-numbered ones, all with the same ``--seed``.  Metric names and
directions, and the default ``--seconds``, come from the change checkout's
``BENCHMARK.json``.  The record holds, per metric, both sides' values in
pair order, each side's quartiles (q1, median, q3), the relative change of
the medians and the number of pairs the change won.  With ``--out``, the
workload's record is written into that JSON file, keeping any other
workloads and keys already in it.  For each metric the tool also prints
whether the change won at least 9 of 10 pairs and whether the medians are
apart, in the change's favour, by more than the parent's quartile spread.

It also prints, and records as ``regression`` next to the metric's
``bound`` from ``BENCHMARK.json``, one of three results: ``within bound``
(the change's median is worse than the parent's by at most bound x |parent
median|), ``WORSE`` (by more), or ``unresolved`` (the parent's quartile
spread exceeds bound x |parent median|, and not every change run beats
every parent run).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path


def benchmark_spec(checkout: Path) -> dict:
    return json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py --trace 0`` run; its last line of output as a dict."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"bench_pairs: {checkout}: exit {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: list) -> list:
    if len(values) < 2:
        return [values[0]] * 3 if values else [None] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [round(q1, 6), round(q2, 6), round(q3, 6)]


def summarize(better: str, parent: list, change: list) -> dict:
    parent, change = ([None if v is None else round(v, 6) for v in side]
                      for side in (parent, change))
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(p is not None and c is not None and sign * (p - c) > 0
               for p, c in zip(parent, change))
    p_q = quartiles([v for v in parent if v is not None])
    c_q = quartiles([v for v in change if v is not None])
    rel = None
    if p_q[1] and c_q[1] is not None:
        rel = round((c_q[1] - p_q[1]) / p_q[1], 4)
    return {"better": better, "parent": parent, "change": change,
            "parent_q1_median_q3": p_q, "change_q1_median_q3": c_q,
            "median_rel_change": rel, "change_wins": wins}


def verdict(stats: dict, pairs: int) -> str:
    p_q, c_q = stats["parent_q1_median_q3"], stats["change_q1_median_q3"]
    if None in p_q or None in c_q:
        return "no values"
    sign = 1.0 if stats["better"] == "lower" else -1.0
    gain = sign * (p_q[1] - c_q[1])
    spread = p_q[2] - p_q[0]
    wins_ok = stats["change_wins"] >= 0.9 * pairs
    return (f"wins {stats['change_wins']}/{pairs} ({'>=' if wins_ok else '<'} 9/10), "
            f"median gain {gain:+.6g} {'>' if gain > spread else '<='} "
            f"parent spread {spread:.6g}")


def regression(stats: dict, bound: float) -> str:
    """``within bound``, ``WORSE`` or ``unresolved`` for one metric's summary."""
    p_q, c_q = stats["parent_q1_median_q3"], stats["change_q1_median_q3"]
    if None in p_q or None in c_q:
        return "no values"
    sign = 1.0 if stats["better"] == "lower" else -1.0
    allowed = bound * abs(p_q[1])
    beats_all = all(sign * (p - c) > 0 for p in stats["parent"] if p is not None
                    for c in stats["change"] if c is not None)
    if p_q[2] - p_q[0] > allowed and not beats_all:
        return "unresolved"
    return "WORSE" if sign * (c_q[1] - p_q[1]) > allowed else "within bound"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds per run [default: run_seconds of BENCHMARK.json]")
    parser.add_argument("--out", type=Path, default=None,
                        help="JSON record to write the workload's pairs into")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = benchmark_spec(checkouts["change"])
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    results = {"parent": [], "change": []}
    for pair in range(1, args.pairs + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for side in order:
            results[side].append(run_once(checkouts[side], args.workload, args.seed,
                                          seconds))
            print(f"pair {pair}/{args.pairs} {side} done", file=sys.stderr)

    metrics = {}
    for m in spec["end_to_end"]:
        values = {side: [r["metrics"][m["name"]]["value"] for r in runs]
                  for side, runs in results.items()}
        stats = summarize(m["better"], values["parent"], values["change"])
        metrics[m["name"]] = {**stats, "bound": m["bound"],
                              "regression": regression(stats, m["bound"])}
    record = {
        "command": f"python3 perfbench/run.py --workload {args.workload} "
                   f"--seed {args.seed} --seconds {seconds:g} --trace 0",
        "pairs": args.pairs,
        "runs": {side: [{key: r[key] for key in ("attempted", "failed", "correct")}
                        for r in runs] for side, runs in results.items()},
        "metrics": metrics,
    }
    for name, stats in metrics.items():
        p_q, c_q = stats["parent_q1_median_q3"], stats["change_q1_median_q3"]
        print(f"{name:14s} median {p_q[1]} -> {c_q[1]}  {verdict(stats, args.pairs)}; "
              f"{stats['regression']} (bound {stats['bound']:g})")

    if args.out is not None:
        doc = {}
        if args.out.exists():
            doc = json.loads(args.out.read_text(encoding="utf-8"))
        doc.setdefault("pairing", "parent and change alternate; the parent runs first "
                       "in odd-numbered pairs")
        doc.setdefault("host", {"nproc": os.cpu_count(),
                                "python": platform.python_version(),
                                "numpy": metadata.version("numpy")})
        doc.setdefault("workloads", {})[args.workload] = record
        args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
