"""Iterative basis generation: sample a batch, solve the LP, evaluate bounds.

Iteration k solves the chosen model (standard or self-guided) on the first
k * ``batch`` entries of the run's basis set, simulates the greedy policy
cost, computes a lower bound, updates the incumbent bound-holders only on
improvement, and stops once the optimality gap 1 - LB/PC drops to the
tolerance or the basis set is used up.

The constraint-sample plan and the basis set are inputs, fixed for the run,
so iterates differ only through the length of their basis prefix.  Rollout
seeds are likewise fixed per run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ralp import alp, lower_bound as lb_mod, policy as policy_mod
from ralp.alp import (
    ConstraintSamplePlan,
    SolverBackend,
    VfaWeights,
    build_falp,
    build_fglp,
    lb_expectation,
    nu_sample_set,
    prepare_plan,
    vfa_weights,
)
from ralp.bases import BasisSet
from ralp.lower_bound import SaddleConfig
from ralp.mdp import DiscountedMdp, split_rng
from ralp.policy import SimConfig

MODEL_FALP = "falp"
MODEL_FGLP = "fglp"

_NU_STREAM = 22
_NU_SAMPLE_SIZE = 10_000  # states in the sample set of the objective and the expectation bound


@dataclass(frozen=True)
class LoopConfig:
    batch: int
    tolerance: float
    model_kind: str
    seed: int
    sim: SimConfig
    plan: ConstraintSamplePlan  # the Bellman rows of every iteration
    bases: BasisSet  # iteration k solves on the first k * batch entries
    saddle: Optional[SaddleConfig] = None  # the saddle bound's settings; None runs the expectation bound

    def __post_init__(self):
        if self.batch < 1:
            raise ValueError("batch must be >= 1")
        if len(self.bases) == 0 or len(self.bases) % self.batch:
            raise ValueError(f"need a positive multiple of batch {self.batch} bases, got {len(self.bases)}")
        if not 0.0 < self.tolerance <= 1.0:
            raise ValueError("tolerance must be in (0, 1]")
        if self.model_kind not in (MODEL_FALP, MODEL_FGLP):
            raise ValueError(f"unknown model kind {self.model_kind!r}")


@dataclass(frozen=True)
class IterationRecord:
    num_bases: int
    lb: float  # the bound driving incumbent updates
    pc: float
    pc_stderr: float
    tau_star: float
    lb_expectation: float
    lb_saddle: Optional[float]
    lb_saddle_stderr: Optional[float]
    saddle_acceptance: Optional[tuple[float, ...]]
    incumbent_lb_bases: int  # basis count of the incumbent holders
    incumbent_pc_bases: int
    incumbent_lb: float
    incumbent_pc: float
    wallclock: float
    # seconds spent in this iteration's LP build, LP solve, rollouts and lower bound
    phase_s: dict[str, float] = field(default_factory=dict)
    # LP size, backend rounds and rows in the last round, simplex iterations,
    # worst row violation
    lp: dict[str, float] = field(default_factory=dict)


@dataclass
class RunResult:
    records: list[IterationRecord]
    bases: BasisSet
    pc_weights: VfaWeights
    converged: bool
    iterate_weights: list[VfaWeights]


def run(mdp: DiscountedMdp, config: LoopConfig, backend: SolverBackend) -> RunResult:
    """Execute the loop; returns the full per-iteration trace.

    A failed LP raises ``SolverError`` carrying the records of the finished
    iterations.
    """
    if config.saddle is not None and mdp.saddle_constants is None:
        raise ValueError("saddle lower bound constants are only defined for the inventory MDP")
    # one sample set for the objective and the expectation bound keeps the bound equal to the objective
    nu_samples = nu_sample_set(mdp.initial_dist, _NU_SAMPLE_SIZE, split_rng(config.seed, _NU_STREAM))

    prepared = prepare_plan(mdp, config.plan)

    records: list[IterationRecord] = []
    iterate_weights: list[VfaWeights] = []
    prev_weights: Optional[VfaWeights] = None
    incumbent_lb = -np.inf
    incumbent_pc = np.inf
    incumbent_lb_bases = 0
    incumbent_pc_bases = 0
    pc_weights = VfaWeights.zero(0)
    num_bases = 0
    converged = False
    started = time.monotonic()

    while True:
        num_bases += config.batch
        bases = config.bases.prefix(num_bases)
        t_build = time.monotonic()
        if config.model_kind == MODEL_FGLP:
            model = build_fglp(prepared, bases, nu_samples, prev_weights)
        else:
            model = build_falp(prepared, bases, nu_samples)
        t_solve = time.monotonic()
        sol = backend.solve(model)
        try:
            weights = vfa_weights(sol)
        except alp.SolverError as err:
            raise alp.SolverError(err.status, f"iteration with {num_bases} bases", records) from err

        t_rollout = time.monotonic()
        act = policy_mod.greedy_policy(mdp, bases, weights, config.sim.action_grid)
        pc_est = policy_mod.simulate_policy_cost(mdp, act, config.sim)
        t_lower_bound = time.monotonic()
        lb_exp = lb_expectation(bases, weights, nu_samples)
        lb_saddle = None
        lb_saddle_stderr = None
        saddle_acceptance = None
        if config.saddle is not None:
            consts = mdp.saddle_constants(weights)
            est = lb_mod.estimate_lower_bound(mdp, bases, weights, config.saddle, consts, lb_exp)
            lb_saddle = est.bound
            lb_saddle_stderr = est.stderr
            saddle_acceptance = est.acceptance_rates
            lb_val = lb_saddle
        else:
            lb_val = lb_exp
        t_end = time.monotonic()
        phase_s = {
            "build": t_solve - t_build,
            "solve": t_rollout - t_solve,
            "rollout": t_lower_bound - t_rollout,
            "lower_bound": t_end - t_lower_bound,
        }

        if lb_val >= incumbent_lb:
            incumbent_lb = lb_val
            incumbent_lb_bases = num_bases
        if pc_est.mean <= incumbent_pc:
            incumbent_pc = pc_est.mean
            incumbent_pc_bases = num_bases
            pc_weights = weights
        tau_star = 1.0 - incumbent_lb / incumbent_pc

        records.append(
            IterationRecord(
                num_bases=num_bases,
                lb=lb_val,
                pc=pc_est.mean,
                pc_stderr=pc_est.stderr,
                tau_star=tau_star,
                lb_expectation=lb_exp,
                lb_saddle=lb_saddle,
                lb_saddle_stderr=lb_saddle_stderr,
                saddle_acceptance=saddle_acceptance,
                incumbent_lb_bases=incumbent_lb_bases,
                incumbent_pc_bases=incumbent_pc_bases,
                incumbent_lb=incumbent_lb,
                incumbent_pc=incumbent_pc,
                wallclock=time.monotonic() - started,
                phase_s=phase_s,
                lp={
                    "rows": model.num_rows,
                    "cols": model.num_vars,
                    "rows_solved": sol.rows_solved,
                    "rounds": sol.rounds,
                    "iterations": sol.iterations,
                    "max_violation": sol.max_violation,
                },
            )
        )
        iterate_weights.append(weights)
        prev_weights = weights
        if tau_star <= config.tolerance:
            converged = True
            break
        if num_bases == len(config.bases):
            break

    return RunResult(
        records=records,
        bases=bases,
        pc_weights=pc_weights,
        converged=converged,
        iterate_weights=iterate_weights,
    )


@dataclass(frozen=True)
class FluctuationStats:
    fluctuation_pct: float  # share of iterations whose raw policy cost worsened
    fluctuation_magnitude: float  # mean worsening over those iterations, cost units


def fluctuation_stats(trace: list[IterationRecord]) -> FluctuationStats:
    """Policy-cost fluctuation over a trace, computed from raw per-iteration costs."""
    if len(trace) < 2:
        raise ValueError("need at least two iterations to measure fluctuation")
    pcs = np.array([r.pc for r in trace])
    jumps = np.diff(pcs)
    worse = jumps > 0.0
    pct = 100.0 * worse.sum() / len(jumps)
    magnitude = float(jumps[worse].mean()) if worse.any() else 0.0
    return FluctuationStats(fluctuation_pct=float(pct), fluctuation_magnitude=magnitude)
