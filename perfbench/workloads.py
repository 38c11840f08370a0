"""Benchmark workloads: the ``ralp run`` config each one writes from a seed, and
the correctness check on the artifacts of each run.

Every workload goes through ``ralp.cli.run_experiment``, the path ``ralp run``
takes.  One benchmark run executes several such runs ("sub-runs"); the config
of sub-run ``i`` of benchmark seed ``n`` depends only on ``(n, i)``.  The toy
and pic workloads use config seed ``s0 + 1000 n + i``, where ``s0`` is the
seed of the matching ROADMAP profile.

The sizes are those of the ROADMAP profiles scaled down, so that a
benchmark run holds enough sub-runs for a steady median:

- ``toy-fglp-chain``: 3 chained FGLP solves on the dense 101,101-row grid.
  HiGHS dominates and the dense row copies set the peak memory.  Not in
  ``BENCHMARK.json`` while ``ralp run`` crashes on some of its sub-runs
  (see ``run.py``).
- ``pic-saddle``: 2 FALP iterations with the saddle lower bound.  The MH
  chains, rollouts and row build all spend their time in ``features``; the
  LP is small.  The only workload that runs ``lower_bound``.
- ``gjr-cutgen``: cut generation to convergence on a 2-item instance, then a
  K=4 lookahead simulation.  Separation dominates, through many
  single-point ``constraint_slack`` and ``features`` calls.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Optimal expected discounted cost of the toy MDP from its initial
# distribution (README, acceptance criterion 2).
TOY_OPTIMAL_COST = 0.25 / 0.91


def _toy_config(bench_seed: int, index: int) -> dict:
    return {
        "problem": "toy",
        "model": "fglp",
        "seed": 11 + 1000 * bench_seed + index,
        "loop": {
            "batch": 2,
            "tolerance": 1e-9,  # met only once LB reaches PC: the chain runs its basis budget
            "max_bases": 6,
            "grid": {"states": 1001, "actions": 101},
            "sigma_range": [0.2, 1.0],
        },
        "sim": {"horizon": 66, "replications": 50, "action_grid": 101},
        "solver": {"var_bound": 1e6},
    }


def _pic_config(bench_seed: int, index: int) -> dict:
    return {
        "problem": "pic:1",
        "model": "falp",
        "seed": 1 + 1000 * bench_seed + index,
        "demand_saa_size": 500,
        "loop": {
            "batch": 10,
            "tolerance": 1e-6,  # met only when the saddle bound reaches PC (a few seeds stop early)
            "max_bases": 20,
            "num_constraints": 5000,
            "sigma_range": [100.0, 1000.0],
            "lb_method": "saddle",
        },
        "sim": {"horizon": 183, "replications": 8, "action_grid": 11},
        "lower_bound": {"chains": 8, "chain_length": 600, "burn_in": 300},
    }


def _gjr_config(bench_seed: int, index: int) -> dict:
    # The solver seed stays at 42 (configs/gjr2.json); the seed picks the
    # instance instead, through the draws gjr_instance would make itself.
    # Run times spread about half as much across instances as across solver
    # seeds, which keeps the median of a benchmark run steady.
    rng = random.Random(f"gjr-{bench_seed}-{index}")
    spec = {
        "items": 2,
        "scheme": "constant",
        "z": 100,
        "usage_rates": [1.0, 1.0],
        "u": [rng.uniform(0.0, 1.0) for _ in range(2)],
        "item_fixed_costs": [rng.uniform(0.0, 60.0) for _ in range(2)],
    }
    return {
        "problem": "gjr:" + json.dumps(spec),
        "model": "falp",
        "seed": 42,
        "gjr": {"num_bases": 5, "init_pairs": 200, "max_cuts": 500, "stages": 500, "k": 4, "grid_per_dim": 25},
    }


def _read_trace(run_dir: Path) -> list[dict]:
    with (run_dir / "trace.csv").open(newline="") as f:
        return list(csv.DictReader(f))


def _bounds(run_dir: Path) -> dict:
    return json.loads((run_dir / "bounds.json").read_text())


def check_toy(run_dir: Path, exit_code: int) -> list[str]:
    """Incumbent LB <= optimal cost <= incumbent PC + 3 stderr."""
    if exit_code not in (0, 2):
        return [f"exit code {exit_code}"]
    b = _bounds(run_dir)
    rows = {int(r["num_bases"]): r for r in _read_trace(run_dir)}
    last = rows[max(rows)]
    stderr = float(rows[int(last["incumbent_pc_bases"])]["pc_stderr"])
    errors = []
    if not b["lb"] <= TOY_OPTIMAL_COST:
        errors.append(f"incumbent lb {b['lb']!r} above the optimal cost {TOY_OPTIMAL_COST!r}")
    if not TOY_OPTIMAL_COST <= b["pc"] + 3.0 * stderr:
        errors.append(f"incumbent pc {b['pc']!r} + 3 * {stderr!r} below the optimal cost")
    return errors


def check_pic(run_dir: Path, exit_code: int) -> list[str]:
    """lb_saddle <= pc + 3 (pc_stderr + lb_saddle_stderr) at every iterate."""
    if exit_code not in (0, 2):
        return [f"exit code {exit_code}"]
    errors = []
    for r in _read_trace(run_dir):
        lb, pc = float(r["lb_saddle"]), float(r["pc"])
        slack = 3.0 * (float(r["pc_stderr"]) + float(r["lb_saddle_stderr"]))
        if not lb <= pc + slack:
            errors.append(f"iteration {r['iteration']}: lb_saddle {lb!r} > pc {pc!r} + {slack!r}")
    return errors


def check_gjr(run_dir: Path, exit_code: int) -> list[str]:
    """Converged cut generation with lb <= pc + 1e-3."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    b = _bounds(run_dir)
    if not b["lb"] <= b["pc"] + 1e-3:
        return [f"lb {b['lb']!r} > pc {b['pc']!r} + 1e-3"]
    return []


@dataclass(frozen=True)
class Workload:
    name: str
    make_config: Callable[[int, int], dict]
    check: Callable[[Path, int], list[str]]

    def config(self, bench_seed: int, index: int, output_dir: str) -> dict:
        """The ``ralp run`` config of sub-run ``index`` of benchmark seed ``bench_seed``."""
        return dict(self.make_config(bench_seed, index), output_dir=output_dir)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("toy-fglp-chain", _toy_config, check_toy),
        Workload("pic-saddle", _pic_config, check_pic),
        Workload("gjr-cutgen", _gjr_config, check_gjr),
    )
}
