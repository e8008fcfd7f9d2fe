#!/usr/bin/env python3
"""Print the SHA-256 of every report file a fixed set of `pie run` configurations produce.

    python3 tools/report_digest.py --seeds 1 2 --workers 1 2 > tests/report_digest.txt

Runs each configuration of ``perfbench/workloads.py``, and the nine of
``EXTRA_CONFIGS`` below that cover what those leave out, once per master
seed and worker count, with the three calls `pie run` makes
(`load_config`, `run_experiment`, `emit_report`), using the package in
``src/`` of this checkout.  Everything is written in a temporary directory
under fixed relative paths, so the config echo in ``config.yaml`` is the
same in every checkout and compares too.  The output is one
``sha256  relative/path`` line per report file, ``timings.json``
excepted, plus one for each CSV input written for a configuration that
reads one: 222 lines for the arguments above, the first 186 of them from
the configurations before the two with general functionals.  Comparing two
checkouts' reports is then one ``diff`` of their outputs.

Three ``#`` lines come first and name the Python, numpy and BLAS builds:
``config.yaml`` echoes the first two, and the normal-linear draws' bits
depend on the third, so digests compare only where these lines match.
``tests/test_report_digest.py`` regenerates the checked-in
``tests/report_digest.txt`` with the arguments above and compares.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import platform
import sys
import tempfile
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import pie  # noqa: E402
from workloads import LINEAR_MODEL, WORKLOADS  # noqa: E402

GENERAL = {"model": dict(LINEAR_MODEL), "data": {"source": "simulate", "p": 3},
           "n": 2000, "K": 4, "sampler": "exact",
           "functionals": [{"a": [0.3, -1.7, 2.2, 0.01], "b": 0.37},
                           {"a": [-0.05, 0.0, 1.1, -2.5], "b": -4.25}],
           "alpha_levels": [0.0123, 0.1, 0.333]}
BERNOULLI = {"model": {"family": "bernoulli-beta", "a": 1.0, "b": 1.0},
             "data": {"source": "simulate", "true_theta": 0.3}}

# the modes, families, samplers and alpha levels the workloads leave out
EXTRA_CONFIGS = {
    "bernoulli-consensus": dict(BERNOULLI, n=6000, K=12, sampler="exact",
                                mode="consensus"),
    "exponential-full-oracle": {
        "model": {"family": "exponential-gamma", "a": 1.0, "b": 1.0},
        "data": {"source": "simulate", "true_theta": 2.0},
        "n": 2000, "K": 4, "sampler": "exact", "mode": "full-oracle",
        "alpha_levels": [0.05, 0.2]},
    "bernoulli-mh": dict(BERNOULLI, n=3000, K=3, sampler="metropolis", mode="pie",
                         chain={"T_total": 4000}),
    "linear-mh": {"model": dict(LINEAR_MODEL), "data": {"source": "simulate", "p": 2},
                  "n": 600, "K": 3, "sampler": "metropolis", "mode": "pie",
                  "chain": {"T_total": 4000}},
    # with the two above and poisson-mh, a Metropolis chain on every family
    "exponential-mh": {
        "model": {"family": "exponential-gamma", "a": 1.0, "b": 1.0},
        "data": {"source": "simulate", "true_theta": 2.0},
        "n": 3000, "K": 3, "sampler": "metropolis", "mode": "pie",
        "chain": {"T_total": 4000}},
    "linear-p10-mh": {"model": dict(LINEAR_MODEL), "data": {"source": "simulate", "p": 10},
                      "n": 1000, "K": 2, "sampler": "metropolis", "mode": "pie",
                      "chain": {"T_total": 4000}},
    # table values near 9e-07, which repr writes in exponent form
    "exponential-small-rate": {
        "model": {"family": "exponential-gamma", "a": 1.0, "b": 1.0},
        "data": {"source": "simulate", "true_theta": 1.0e-6},
        "n": 2000, "K": 4, "sampler": "exact", "mode": "pie"},
    # functionals that are not coordinates, and alpha levels off the quantile grid
    "linear-general-pie": dict(GENERAL, mode="pie"),
    "linear-general-consensus": dict(GENERAL, mode="consensus"),
}


def write_runs(seeds: list, workers: list) -> list:
    """Write every configuration's inputs and reports under the current
    directory and return the paths of the CSV inputs and of the report files."""
    paths = []
    configs = {**{w.name: w.config for w in WORKLOADS.values()}, **EXTRA_CONFIGS}
    for name, workload_config in configs.items():
        for seed in seeds:
            base = Path(name) / f"seed-{seed}"
            base.mkdir(parents=True)
            config = dict(workload_config, seeds=[seed])
            if config["data"]["source"] == "csv":
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


def environment() -> list:
    """The ``#`` lines naming the builds a digest depends on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    build = " ".join(str(blas.get(key, "")) for key in ("name", "version"))
    return [f"# python {platform.python_version()}", f"# numpy {np.__version__}",
            f"# blas {build} ({blas.get('openblas configuration', 'no configuration')})"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--workers", type=int, nargs="+", default=[1])
    args = parser.parse_args(argv)
    print("\n".join(environment()))
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
