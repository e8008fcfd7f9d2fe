#!/usr/bin/env python3
"""Print the SHA-256 of every report file the benchmark workloads produce.

    python3 tools/report_digest.py --seeds 1 2 --workers 1 2 > digest.txt

Runs each configuration of ``perfbench/workloads.py`` once per master seed
and worker count, with the three calls `pie run` makes (`load_config`,
`run_experiment`, `emit_report`), using the package in ``src/`` of this
checkout.  Everything is written in a temporary directory under fixed
relative paths, so the config echo in ``config.yaml`` is the same in every
checkout and compares too.  The output is one ``sha256  relative/path``
line per report file, ``timings.json`` excepted, plus one for each CSV
input written for a workload that reads one.  Comparing two checkouts'
reports is then one ``diff`` of their outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import pie  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def write_runs(seeds: list, workers: list) -> list:
    """Write every workload's inputs and reports under the current directory
    and return the paths of the CSV inputs and of the report files."""
    paths = []
    for workload in WORKLOADS.values():
        for seed in seeds:
            base = Path(workload.name) / f"seed-{seed}"
            base.mkdir(parents=True)
            config = dict(workload.config, seeds=[seed])
            if workload.reads_csv:
                data = pie.simulate_linear(config["n"], config["data"]["p"], seed)
                pie.write_observations(data, base / "data.csv")
                config["data"] = dict(config["data"], path=str(base / "data.csv"))
                paths.append(base / "data.csv")
            config_path = base / "config.yaml"
            config_path.write_text(yaml.safe_dump(config), encoding="utf-8")
            for count in workers:
                cfg = pie.load_config(config_path,
                                      {"output_dir": str(base / f"workers-{count}")})
                paths += pie.emit_report(pie.run_experiment(cfg, workers=count),
                                         cfg.output_dir)
    return paths


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--workers", type=int, nargs="+", default=[1])
    args = parser.parse_args(argv)
    start = Path.cwd()
    with tempfile.TemporaryDirectory(prefix="report-digest-") as work:
        os.chdir(work)
        try:
            for path in write_runs(args.seeds, args.workers):
                if path.name != "timings.json":
                    digest = hashlib.sha256(path.read_bytes()).hexdigest()
                    print(f"{digest}  {path.as_posix()}")
        finally:
            os.chdir(start)
    return 0


if __name__ == "__main__":
    sys.exit(main())
