"""Greedy-policy extraction, Monte-Carlo policy cost, and visit frequencies.

The greedy policy minimizes the one-step lookahead cost over a uniform action
grid; its expectations reuse the instance's fixed noise sample set so that LP
construction and policy evaluation see identical dynamics.  Rollouts run on
per-replication PRNG streams and are merged by replication index, so results
are reproducible regardless of batching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ralp.alp import VfaWeights
from ralp.bases import BasisSet, features  # noqa: F401  (perfbench/layers.py wraps policy.features)
from ralp.mdp import DiscountedMdp, batch_expected_costs, noise_from_uniforms, split_rng

_ROLLOUT_STREAM = 101


@dataclass(frozen=True)
class SimConfig:
    horizon: int
    replications: int
    action_grid: int
    rollout_seed: int

    def __post_init__(self):
        if self.horizon < 0:
            raise ValueError("horizon must be >= 0")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.action_grid < 2:
            raise ValueError("action grid needs at least 2 points")


@dataclass(frozen=True)
class PolicyCostEstimate:
    mean: float
    stderr: float
    replications: int
    # gamma^horizon / (1 - gamma): multiply by a stage-cost bound to bound the
    # truncation error of the finite rollout.
    tail_weight: float


def default_horizon(gamma: float) -> int:
    """Smallest H with gamma^H <= 1e-3."""
    return int(math.ceil(math.log(1e-3) / math.log(gamma)))


def action_grid_points(mdp: DiscountedMdp, grid: int) -> np.ndarray:
    """Uniform grid over the action box, cartesian across dimensions, (G, d_a)."""
    axes = [np.linspace(mdp.action_lo[i], mdp.action_hi[i], grid) for i in range(mdp.dim_action)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def greedy_policy(
    mdp: DiscountedMdp, bases: BasisSet, w: VfaWeights, grid: int
) -> Callable[[np.ndarray], np.ndarray]:
    """The VFA-greedy policy over ``grid`` points per action dimension.

    It maps a batch of states (m, d_s) to actions (m, d_a); ties go to the
    first (lexicographically smallest) grid point.  Build once per rollout:
    the problem's ``greedy_lookahead`` prepares E[V(s') | s, a] over the grid
    for the whole basis set here.
    """
    if mdp.greedy_lookahead is None:
        raise ValueError("greedy policies need the problem's greedy_lookahead")
    grid_pts = action_grid_points(mdp, grid)
    cont = mdp.greedy_lookahead(mdp.noise, bases, w, grid_pts)
    g = len(grid_pts)

    def act(states: np.ndarray) -> np.ndarray:
        m = len(states)
        s_rep = np.repeat(states, g, axis=0)
        a_rep = np.tile(grid_pts, (m, 1))
        costs = batch_expected_costs(mdp, s_rep, a_rep).reshape(m, g)
        return grid_pts[np.argmin(costs + mdp.gamma * cont(states), axis=1)]

    return act


def _rollout_draws(mdp: DiscountedMdp, sim: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    """Start states (reps, d_s) and realized noise (horizon, reps) of every rollout.

    Replication r draws its start and then one uniform per stage from its own
    stream; the draws do not depend on the states visited, so the noise
    quantile runs once on the whole array.
    """
    rngs = [split_rng(sim.rollout_seed, _ROLLOUT_STREAM, r) for r in range(sim.replications)]
    states = np.stack([mdp.initial_dist.sample(rng) for rng in rngs])
    u = np.stack([rng.random(sim.horizon) for rng in rngs], axis=1)
    return states, noise_from_uniforms(mdp, u)


def simulate_policy_cost(
    mdp: DiscountedMdp, act: Callable[[np.ndarray], np.ndarray], sim: SimConfig
) -> PolicyCostEstimate:
    """Mean discounted rollout cost of the policy ``act`` from chi-sampled starts.

    ``act`` maps a batch of states to actions.  Stage costs are the
    instance's (SAA-)expected immediate costs; randomness enters through
    realized transitions only.
    """
    reps = sim.replications
    states, noise = _rollout_draws(mdp, sim)
    totals = np.zeros(reps)
    for t in range(sim.horizon):
        actions = np.atleast_2d(act(states))
        totals += mdp.gamma**t * batch_expected_costs(mdp, states, actions)
        states = mdp.transition(states, actions, noise[t])
    mean = float(totals.mean())
    stderr = float(totals.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
    return PolicyCostEstimate(
        mean=mean,
        stderr=stderr,
        replications=reps,
        tail_weight=mdp.gamma**sim.horizon / (1.0 - mdp.gamma),
    )


@dataclass(frozen=True)
class VisitHistogram:
    """Discounted state-occupancy over 1-D state bins.

    ``mass`` is the per-rollout average of (initial-state mass) plus
    gamma^(t+1)-weighted visit mass; it sums to 1/(1-gamma) up to horizon
    truncation.  ``chi_mass`` / ``visit_mass`` split out the two layers.
    """

    edges: np.ndarray
    mass: np.ndarray
    chi_mass: np.ndarray
    visit_mass: np.ndarray

    @property
    def normalized(self) -> np.ndarray:
        return self.mass / self.mass.sum()


def estimate_visit_frequency(
    mdp: DiscountedMdp, act: Callable[[np.ndarray], np.ndarray], bins: int, sim: SimConfig
) -> VisitHistogram:
    """Simulation estimate of the discounted state-visit frequency of the policy ``act`` (1-D states)."""
    if bins < 1:
        raise ValueError("bins must be >= 1")
    if mdp.dim_state != 1:
        raise ValueError("visit-frequency histograms are implemented for 1-D state spaces")
    edges = np.linspace(mdp.state_lo[0], mdp.state_hi[0], bins + 1)
    reps = sim.replications
    states, noise = _rollout_draws(mdp, sim)

    def _bin(vals):  # right edge closes the last bin
        return np.clip(np.searchsorted(edges, vals, side="right") - 1, 0, bins - 1)

    chi_mass = np.bincount(_bin(states[:, 0]), minlength=bins).astype(float)
    visit_mass = np.zeros(bins)
    for t in range(sim.horizon):
        actions = np.atleast_2d(act(states))
        states = mdp.transition(states, actions, noise[t])
        visit_mass += mdp.gamma ** (t + 1) * np.bincount(_bin(states[:, 0]), minlength=bins)
    chi_mass /= reps
    visit_mass /= reps
    return VisitHistogram(
        edges=edges, mass=chi_mass + visit_mass, chi_mass=chi_mass, visit_mass=visit_mass
    )
