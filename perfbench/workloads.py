"""The benchmark's named workloads.

Each workload is a `pie run` configuration plus the worker count the CLI
would be given.  Only the master seed changes between replicates; it is
derived from the workload seed passed on the command line.  Why each one
was chosen is recorded in BENCHMARK.json, and how each was sized in
provenance.json.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    workers: int
    # replicates that must run whatever the time budget; also the replicates
    # the deterministic quality metrics (accuracy_min, w2_rel_mean) cover
    min_replicates: int = 11

    @property
    def exact(self) -> bool:
        """Exact samplers are held to acceptance criterion 8's accuracy floor."""
        return self.config["sampler"] == "exact"

    @property
    def reads_csv(self) -> bool:
        """The CSV input is written once, untimed, before the loop."""
        return self.config["data"]["source"] == "csv"


LINEAR_MODEL = {"family": "normal-linear-nig", "a": 6.0, "b": 2.0, "omega": 100.0}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="poisson-bign",
            config={
                "model": {"family": "poisson-gamma", "a": 1.0, "b": 1.0},
                "data": {"source": "simulate", "true_theta": 3.0},
                "n": 500_000, "K": 10, "sampler": "exact", "mode": "pie",
            },
            workers=1,
        ),
        Workload(
            name="poisson-mh",
            config={
                "model": {"family": "poisson-gamma", "a": 1.0, "b": 1.0},
                "data": {"source": "simulate", "true_theta": 3.0},
                "n": 100_000, "K": 4, "sampler": "metropolis", "mode": "pie",
                "chain": {"T_total": 6_000},
            },
            workers=2,
            # one functional per replicate: 72 cells keep w2_rel_mean steady across seeds
            min_replicates=72,
        ),
        Workload(
            name="linear-p10",
            config={
                "model": dict(LINEAR_MODEL),
                "data": {"source": "simulate", "p": 10},
                "n": 50_000, "K": 5, "sampler": "exact", "mode": "pie",
            },
            workers=1,
        ),
        Workload(
            name="linear-csv-multidim",
            config={
                "model": dict(LINEAR_MODEL),
                "data": {"source": "csv", "p": 10},
                "n": 15_000, "K": 3, "sampler": "exact", "mode": "multidim",
            },
            workers=1,
        ),
    )
}


def replicate_seed(workload_seed: int, index: int) -> int:
    """Master seed of replicate ``index``, a pure function of the workload seed."""
    state = np.random.SeedSequence([workload_seed, index]).generate_state(1)
    return int(state[0]) & 0x7FFFFFFF
