"""One-dimensional benchmark MDP with a known value function.

State and action spaces are [0,1]; the next state equals the current state
with probability 0.1 and the chosen action with probability 0.9; the stage
cost |s - 0.5| is action-independent and the discount factor is 0.9.  The
optimal policy plays 0.5 everywhere, so the value function is available in
closed form and the instance serves as ground truth throughout the tests.
"""

from __future__ import annotations

import numpy as np

from ralp.alp import VfaWeights, padded_rows, vfa_values
from ralp.bases import BasisSet
from ralp.mdp import DiscountedMdp, NoiseModel, uniform_box

GAMMA = 0.9
STAY_PROB = 0.1
TARGET = 0.5


def _toy_cost(s, a, noise):
    return np.abs(s[..., 0] - TARGET) + 0.0 * noise


def _toy_transition(s, a, noise):
    # noise = 0 keeps the state, noise = 1 jumps to the action
    return np.where((noise == 0.0)[..., None], s, a)


def _toy_greedy_lookahead(noise: NoiseModel, bases: BasisSet, w: VfaWeights, grid: np.ndarray):
    """Prepare E[V(s') | s, a] over the action grid from two tables; see ``DiscountedMdp``.

    A successor is the state (noise 0) or the action, so V is taken on the grid
    once here and on the states once per call.  Laid out and weighted as every
    successor's enumeration, each V from a full BLAS block (``padded_rows``),
    the result equals that enumeration bit for bit.
    """
    g = len(grid)
    v_grid = vfa_values(bases, w, padded_rows(grid))[:g]
    stay = noise.values == 0.0

    def cont(states: np.ndarray) -> np.ndarray:
        m = len(states)
        v_states = vfa_values(bases, w, padded_rows(states))[:m]
        vals = np.where(stay, v_states[:, None, None], v_grid[None, :, None])  # (m, g, k)
        return (vals.reshape(m * g, len(stay)) @ noise.weights).reshape(m, g)

    return cont


def build_toy() -> DiscountedMdp:
    """The two-point-noise MDP on [0,1]^2 with uniform initial distribution."""
    return DiscountedMdp(
        state_lo=np.array([0.0]),
        state_hi=np.array([1.0]),
        action_lo=np.array([0.0]),
        action_hi=np.array([1.0]),
        gamma=GAMMA,
        cost=_toy_cost,
        transition=_toy_transition,
        noise=NoiseModel(values=np.array([0.0, 1.0]), probs=np.array([STAY_PROB, 1.0 - STAY_PROB])),
        initial_dist=uniform_box([0.0], [1.0]),
        greedy_lookahead=_toy_greedy_lookahead,
        exact_value=optimal_value,
    )


def optimal_value(states: np.ndarray) -> np.ndarray:
    """Optimal cost-to-go |s - 0.5| / (1 - 0.1 * gamma), (...) for states (..., 1)."""
    s = np.asarray(states, dtype=float)[..., 0]
    if np.any((s < -1e-12) | (s > 1.0 + 1e-12)):
        raise ValueError(f"state outside [0,1] in {s}")
    return np.abs(s - TARGET) / (1.0 - STAY_PROB * GAMMA)

