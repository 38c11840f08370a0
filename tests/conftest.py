from typing import NamedTuple

import numpy as np
import pytest

from ralp import toy
from ralp.gjr import FEAS_TOL, GjrParams, _fraction_grid
from ralp.alp import (
    LpModel,
    ScipyBackend,
    SolverBackend,
    VfaWeights,
    grid_plan,
    nu_sample_set,
    prepare_plan,
    vfa_values,
    vfa_weights,
)
from ralp.bases import BasisSet
from ralp.mdp import DiscountedMdp, InfeasiblePairError, batch_expected_costs, batch_next_states, split_rng

TOY_STATES = np.linspace(0.0, 1.0, 1001)[:, None]
TOY_ACTIONS = np.linspace(0.0, 1.0, 101)[:, None]


def solve(model: LpModel, backend: SolverBackend) -> tuple[VfaWeights, float]:
    """Solve a VFA model; non-optimal statuses raise SolverError."""
    sol = backend.solve(model)
    return vfa_weights(sol), float(sol.objective)


def expected_next_values(mdp: DiscountedMdp, states: np.ndarray, actions: np.ndarray, value_fn) -> np.ndarray:
    """E[f(s') | s, a] per (state, action) row by enumerating the noise atoms, (m,).

    ``value_fn`` maps a (n, d_s) batch of states to (n,) values.
    """
    nxt = batch_next_states(mdp, states, actions)
    m, k, ds = nxt.shape
    return np.asarray(value_fn(nxt.reshape(m * k, ds))).reshape(m, k) @ mdp.noise.weights


def enumerated_lookahead(
    mdp: DiscountedMdp, bases: BasisSet, w: VfaWeights, states: np.ndarray, grid_pts: np.ndarray
) -> np.ndarray:
    """E[V(s') | s, a] for every state row and grid action with every successor enumerated, (m, g).

    The reference that each problem's ``greedy_lookahead`` is checked against.
    """
    m, g = len(states), len(grid_pts)
    s_rep = np.repeat(states, g, axis=0)
    a_rep = np.tile(grid_pts, (m, 1))
    return expected_next_values(mdp, s_rep, a_rep, lambda x: vfa_values(bases, w, x)).reshape(m, g)


def greedy_enumerated(
    mdp: DiscountedMdp, bases: BasisSet, w: VfaWeights, states: np.ndarray, grid_pts: np.ndarray
) -> np.ndarray:
    """Greedy actions with every grid action's successors enumerated."""
    m, g = len(states), len(grid_pts)
    cont = enumerated_lookahead(mdp, bases, w, states, grid_pts)
    costs = batch_expected_costs(mdp, np.repeat(states, g, axis=0), np.tile(grid_pts, (m, 1))).reshape(m, g)
    return grid_pts[np.argmin(costs + mdp.gamma * cont, axis=1)]


def reference_feasible(p: GjrParams, states, actions) -> np.ndarray:
    """``gjr.feasible`` with numpy reductions over the item axis, the reference the column form must equal."""
    states = np.asarray(states, dtype=float)
    actions = np.asarray(actions, dtype=float)
    post = states + actions
    ok = np.all((actions >= -FEAS_TOL) & (post <= p.s_bar + FEAS_TOL) & (post > FEAS_TOL), axis=-1)
    return ok & (actions.sum(axis=-1) <= p.a_bar + FEAS_TOL) & np.any(actions > FEAS_TOL, axis=-1)


def reference_gjr_step(p: GjrParams, states, actions) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``gjr.gjr_step`` with numpy reductions and broadcasts over the item axis."""
    states = np.asarray(states, dtype=float)
    actions = np.asarray(actions, dtype=float)
    successor = states + actions  # post-replenishment levels, consumed in place
    time = np.min(successor / p.usage_rates, axis=-1)
    successor -= time[..., None] * p.usage_rates
    cost = p.fixed_cost + (actions > FEAS_TOL) @ p.item_fixed_costs
    return time, successor, cost


def reference_k_step_greedy(p, bases, sol, s, k, search) -> np.ndarray:
    """``gjr.k_step_greedy`` on the reference kernels, gathering candidate and first-step action rows."""
    if k < 1:
        raise ValueError("k must be >= 1")
    s = np.asarray(s, dtype=float)
    eta = sol.eta(p.usage_rates)
    fractions = _fraction_grid(p.num_items, search.action_grid)
    states = s[None, :]
    costs = np.zeros(1)
    firsts = None
    for step in range(k):
        caps = np.maximum(np.minimum(p.s_bar - states, p.a_bar), 0.0)
        # plan and grid point of every feasible action; an action is a fraction of its plan's caps
        plan, point = np.nonzero(reference_feasible(p, states[:, None, :], fractions * caps[:, None, :]))
        if len(plan) == 0:
            raise InfeasiblePairError(f"no feasible lookahead action at {states}")
        actions = fractions[point] * caps[plan]
        firsts = actions if firsts is None else firsts[plan]
        times, states, stage = reference_gjr_step(p, states[plan], actions)
        costs = costs[plan] + (stage - eta * times)
        np.maximum(states, 0.0, out=states)
        if step < k - 1 and len(costs) > search.beam_width:
            keep = np.argpartition(costs, search.beam_width)[: search.beam_width]
            keep = keep[np.argsort(costs[keep], kind="stable")]
            costs, states, firsts = costs[keep], states[keep], firsts[keep]
    total = costs + sol.bias(bases, states)
    # a copy: a view would keep every candidate alive for as long as the caller holds the action
    return firsts[int(np.argmin(total))].copy()


class ToyBinShares(NamedTuple):
    total: float  # share of the whole discounted occupancy in the action's bin
    visits: float  # the same share among visits only (chi layer excluded)
    other: float  # expected share of the whole occupancy in any other bin


def toy_constant_action_shares(bins: int, horizon: int) -> ToyBinShares:
    """Closed-form bin shares of the toy MDP's discounted state occupancy.

    Under a constant action ``a`` (interior to its bin) and uniform chi,
    ``estimate_visit_frequency`` measures chi (weight 1) plus the visit at
    step k = 1..H with weight gamma^k.  With bin width w = 1/bins, stay
    probability p and S = sum gamma^k, Sp = sum (gamma p)^k over k = 1..H:

    - the chi layer holds 1 unit of mass, w of it in any one bin;
    - the visit at step k sits at ``a`` with probability 1 - p^k (some jump
      has happened); otherwise it is still at s0, which lies in a given bin
      with probability w.

    Hence the action's bin holds w + S - (1 - w) Sp of the total 1 + S, and
    S - (1 - w) Sp of the visit mass S; every other bin holds
    w (1 + Sp).  At gamma = 0.9, p = 0.1, 100 bins and H = 200 the shares
    are 0.891209 (total), 0.989121 (visits only) and 0.001099 (other bin).
    """
    k = np.arange(1, horizon + 1)
    s = float(np.sum(toy.GAMMA**k))
    sp = float(np.sum((toy.GAMMA * toy.STAY_PROB) ** k))
    w = 1.0 / bins
    return ToyBinShares(
        total=(w + s - (1.0 - w) * sp) / (1.0 + s),
        visits=1.0 - (1.0 - w) * sp / s,
        other=w * (1.0 + sp) / (1.0 + s),
    )


def toy_constant_policy_cost(a_star: float) -> float:
    """Exact uniform-start cost of always playing ``a_star`` on the toy MDP.

    From the two-point transition recursion: the cost-to-go at the action's
    fixed point is |a*-0.5|/(1-gamma); averaging the one-step recursion over
    the uniform start gives (1/4 + 0.9 gamma |a*-0.5|/(1-gamma)) / (1-0.1 gamma).
    """
    if not 0.0 <= a_star <= 1.0:
        raise ValueError(f"action {a_star} outside [0,1]")
    dev = abs(a_star - toy.TARGET)
    return (0.25 + (1.0 - toy.STAY_PROB) * toy.GAMMA * dev / (1.0 - toy.GAMMA)) / (1.0 - toy.STAY_PROB * toy.GAMMA)


@pytest.fixture(scope="session")
def toy_mdp():
    return toy.build_toy()


@pytest.fixture(scope="session")
def toy_grid_prepared(toy_mdp):
    # 1001 x 101 dense grid, prepared once for the whole session
    return prepare_plan(toy_mdp, grid_plan(TOY_STATES, TOY_ACTIONS))


@pytest.fixture(scope="session")
def toy_nu_samples(toy_mdp):
    return nu_sample_set(toy_mdp.initial_dist, 10_000, split_rng(0, 22))


@pytest.fixture(scope="session")
def backend():
    return ScipyBackend()
