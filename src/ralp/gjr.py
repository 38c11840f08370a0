"""Generalized joint replenishment: an average-cost semi-MDP solved by cut generation.

Items are consumed at deterministic rates under a shared replenishment
capacity; the state holds inventory levels with at least one item stocked
out, and the time to the next decision is the first future stockout.  The
bias function is approximated by a linear term plus random stump bases,
anchored at u(0) = 0 in the empty state, the resulting linear program is
solved by constraint generation, and policies come from a K-step lookahead
searched over enumerated replenishment supports and action grids.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, asdict
from itertools import combinations
from typing import Callable, Optional

import numpy as np

from ralp.alp import LiveLp, LpModel, SolverError
from ralp.bases import BasisSet, DEFAULT_STUMP_EPS, features
from ralp.mdp import InfeasiblePairError, split_rng

_PAIR_STREAM = 31

FEAS_TOL = 1e-9
REFINE_SWEEPS = 3  # coordinate-descent sweeps from each branch's best grid point


def _per_item(name: str, values, j: int) -> np.ndarray:
    """``values`` as a new float array of shape ``(j,)``, one entry per item; another shape is an error naming ``name``."""
    arr = np.array(values, dtype=float)
    if arr.shape != (j,):
        raise ValueError(f"{name}: expected one entry per item, shape ({j},), got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class GjrParams:
    usage_rates: np.ndarray  # per-item consumption per unit time
    s_bar: np.ndarray  # per-item inventory caps
    a_bar: float  # shared replenishment capacity
    fixed_cost: float  # charged at every replenishment epoch
    item_fixed_costs: np.ndarray  # extra fixed cost per replenished item

    def __post_init__(self):
        j = np.size(self.usage_rates)
        for f in ("usage_rates", "s_bar", "item_fixed_costs"):
            arr = _per_item(f, getattr(self, f), j)
            arr.setflags(write=False)
            object.__setattr__(self, f, arr)
        if self.num_items < 2:
            raise ValueError("need at least two items")
        if np.any(self.usage_rates <= 0) or np.any(self.s_bar <= 0):
            raise ValueError("usage rates and inventory caps must be positive")
        if self.a_bar > self.s_bar.sum() + FEAS_TOL:
            raise ValueError("capacity exceeds total storage")

    @property
    def num_items(self) -> int:
        return len(self.usage_rates)

    def to_json(self) -> str:
        doc = {k: (v.tolist() if isinstance(v, np.ndarray) else v) for k, v in asdict(self).items()}
        return json.dumps(doc, indent=1)


_SCHEMES = ("random", "constant", "discrete")
_Z_CHOICES = (50, 60, 67, 75, 80, 100)


def gjr_instance(
    num_items: int,
    scheme: str,
    z_pct: int,
    rng: np.random.Generator,
    usage_rates=None,
    u=None,
    alpha=None,
    item_fixed_costs=None,
) -> GjrParams:
    """Generate an instance; keyword overrides pin individual random draws.

    Storage caps follow the named scheme from two per-item uniforms u_j in
    [0,1] and alpha_j in {2,4,8}: "random" uses 10*rate_j*u_j + rate_j,
    "constant" gives every item sum_k rate_k (u_k + 1/J), "discrete" scales
    that sum by alpha_j.  Capacity is the sum of the z% smallest caps.
    """
    if scheme not in _SCHEMES:
        raise ValueError(f"scheme must be one of {_SCHEMES}, got {scheme!r}")
    if z_pct not in _Z_CHOICES:
        raise ValueError(f"z must be one of {_Z_CHOICES}, got {z_pct}")
    j = num_items
    if usage_rates is None:
        rates = np.maximum(rng.uniform(0.0, 10.0, j), 1e-3)  # rates must stay positive
    else:
        rates = _per_item("usage_rates", usage_rates, j)
    u = _per_item("u", u, j) if u is not None else rng.uniform(0.0, 1.0, j)
    alpha = _per_item("alpha", alpha, j) if alpha is not None else rng.choice([2.0, 4.0, 8.0], j)
    base = float(np.sum(rates * (u + 1.0 / j)))
    if scheme == "random":
        s_bar = 10.0 * rates * u + rates
    elif scheme == "constant":
        s_bar = np.full(j, base)
    else:
        s_bar = alpha * base
    count = int(round(z_pct * j / 100.0))
    a_bar = float(np.sort(s_bar)[:count].sum())
    c2 = (
        np.asarray(item_fixed_costs, dtype=float)
        if item_fixed_costs is not None
        else rng.uniform(0.0, 60.0, j)
    )
    return GjrParams(
        usage_rates=rates,
        s_bar=s_bar,
        a_bar=a_bar,
        fixed_cost=100.0,
        item_fixed_costs=c2,
    )


def feasible(p: GjrParams, states, actions) -> np.ndarray:
    """Feasibility of (s, a) pairs, broadcast over the leading axes of ``(..., J)`` arrays.

    An action is non-negative, keeps every item under its cap and the total
    under the shared capacity, replenishes something, and leaves every item
    stocked (otherwise the transition time is zero).

    The item axis is walked column by column: the all/any run as chains of
    ``&``/``|`` and the action total is summed left to right over the J
    columns, which equals numpy's ``sum(axis=-1)`` for J <= 7 (pinned against
    the axis-reduction form by ``tests/test_gjr.py``).  A reduction over a
    short trailing axis costs numpy far more than the arithmetic.
    """
    states = np.asarray(states, dtype=float)
    actions = np.asarray(actions, dtype=float)
    for j in range(p.num_items):
        a = actions[..., j]
        post = states[..., j] + a
        col_ok = (a >= -FEAS_TOL) & (post <= p.s_bar[j] + FEAS_TOL) & (post > FEAS_TOL)
        if j == 0:
            ok, total, replenished = col_ok, a, a > FEAS_TOL
        else:
            ok, total, replenished = ok & col_ok, total + a, replenished | (a > FEAS_TOL)
    return ok & (total <= p.a_bar + FEAS_TOL) & replenished


def gjr_step(p: GjrParams, states, actions) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Transition of (s, a) pairs over ``(..., J)``: (time, successor, cost).

    The time is the first stockout min_j (s_j + a_j) / rate_j and the cost is
    the fixed cost plus the fixed costs of the replenished items.  The
    successor (s + a) - time * rates is not clamped: at the argmin it can hold
    float dust below zero.  Pairs are not checked; filter with ``feasible``.

    As in ``feasible``, the min is a chain of ``np.minimum`` over the J
    columns.  The item fixed costs stay one matrix-vector product, whose
    result depends on the batch it runs in.
    """
    states = np.asarray(states, dtype=float)
    actions = np.asarray(actions, dtype=float)
    r = p.usage_rates
    successor = states + actions  # post-replenishment levels, consumed in place
    time = successor[..., 0] / r[0]
    for j in range(1, p.num_items):
        time = np.minimum(time, successor[..., j] / r[j])
    for j in range(p.num_items):
        successor[..., j] -= time * r[j]
    cost = p.fixed_cost + (actions > FEAS_TOL) @ p.item_fixed_costs
    return time, successor, cost


@dataclass(frozen=True)
class BiasApprox:
    """Solution of the average-cost model: eta(rates) = eta_hat + beta1 . rates.

    The bias is defined up to a constant; it is fixed by u(0) = 0 at the
    empty state, where the simulation starts.
    """

    eta_hat: float
    beta1: np.ndarray
    beta2: np.ndarray

    def __post_init__(self):
        for f in ("beta1", "beta2"):
            arr = np.array(getattr(self, f), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, f, arr)

    def eta(self, usage_rates: np.ndarray) -> float:
        return float(self.eta_hat + self.beta1 @ usage_rates)

    def bias(self, bases: BasisSet, states: np.ndarray) -> np.ndarray:
        """u(s) = -beta1 . s - beta2 . (phi(s) - phi(0))."""
        states = np.atleast_2d(np.asarray(states, dtype=float))
        return -(states @ self.beta1) - _anchored_features(bases, states) @ self.beta2


def _anchored_features(bases: BasisSet, states: np.ndarray) -> np.ndarray:
    """phi(s) - phi(0): zero at the empty state, and zero everywhere for a stump constant on the state box."""
    return features(bases, states) - features(bases, np.zeros(bases.dim_state))


def build_avg_alp(
    p: GjrParams,
    bases: BasisSet,
    states: np.ndarray,
    actions: np.ndarray,
    prev: Optional[BiasApprox] = None,
    guide_states: Optional[np.ndarray] = None,
) -> LpModel:
    """LP over (eta_hat, beta1, beta2), 1 + J + N columns, maximizing eta_hat + beta1 . rates.

    Standard rows bound eta_hat*T + beta1 . a + beta2 . (phi(s') - phi(s)) by
    c(s, a), one row per pair of the ``(n, J)`` arrays ``states`` and
    ``actions``.  With a previous solution, each guide state s contributes
    the row beta1 . s + beta2 . (phi(s) - phi(0)) <= -u_prev(s), which forces
    the new bias to dominate the old one there.  Both biases are anchored at
    u(0) = 0, so no free constant can satisfy a guide row at no cost.
    """
    if len(states) == 0:
        raise ValueError("need at least one constraint pair")
    j = p.num_items
    n_b = len(bases)
    num_vars = 1 + j + n_b
    times, rhs, dphi = _step_terms(p, bases, states, actions)
    rows = np.zeros((len(states), num_vars))
    rows[:, 0] = times
    rows[:, 1 : 1 + j] = actions
    rows[:, 1 + j :] = dphi

    if prev is not None and guide_states is not None and len(guide_states) > 0:
        guide_states = np.atleast_2d(np.asarray(guide_states, dtype=float))
        if len(prev.beta2) > n_b:
            raise ValueError("previous solution uses more bases than the current set")
        prev_bias = prev.bias(bases.prefix(len(prev.beta2)), guide_states)
        g_rows = np.zeros((len(guide_states), num_vars))
        g_rows[:, 1 : 1 + j] = guide_states
        g_rows[:, 1 + j :] = _anchored_features(bases, guide_states)
        rows = np.vstack([rows, g_rows])
        rhs = np.concatenate([rhs, -prev_bias])

    objective = np.zeros(num_vars)
    objective[0] = 1.0
    objective[1 : 1 + j] = p.usage_rates
    return LpModel(objective=objective, rows=rows, rhs=rhs)


def _step_terms(
    p: GjrParams, bases: BasisSet, states: np.ndarray, actions: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solution-free terms of the rows of (s, a) pairs: time T, cost c and phi(s') - phi(s)."""
    times, nxt, costs = gjr_step(p, states, actions)
    return times, costs, features(bases, nxt) - features(bases, states)


def _unpack(p: GjrParams, x: np.ndarray) -> BiasApprox:
    j = p.num_items
    return BiasApprox(eta_hat=float(x[0]), beta1=x[1 : 1 + j], beta2=x[1 + j :])


@dataclass(frozen=True)
class SearchPlan:
    """Grid-and-refine search used by the separation and lookahead problems."""

    grid_per_dim: int = 50
    beam_width: int = 128
    action_grid: int = 21  # lookahead grid points per action dimension

    def __post_init__(self):
        if self.grid_per_dim < 2 or self.action_grid < 2:
            raise ValueError("grids need at least two points")


@dataclass(frozen=True)
class SeparationResult:
    state: np.ndarray
    action: np.ndarray
    slack: float
    status: str  # "violated" | "feasible"


def sep_tol(p: GjrParams) -> float:
    return 1e-6 * (1.0 + abs(p.fixed_cost))


def constraint_slack(
    p: GjrParams,
    bases: BasisSet,
    sol: BiasApprox,
    states: np.ndarray,
    actions: np.ndarray,
) -> np.ndarray:
    """c(s,a) - eta_hat T - beta1 . a - beta2 . (phi(s') - phi(s)) per row."""
    states = np.atleast_2d(states)
    actions = np.atleast_2d(actions)
    times, costs, dphi = _step_terms(p, bases, states, actions)
    return _slack(sol, times, costs, actions, dphi)


def _slack(sol: BiasApprox, times, costs, actions, dphi) -> np.ndarray:
    return costs - sol.eta_hat * times - actions @ sol.beta1 - dphi @ sol.beta2


def _branch_candidates(p: GjrParams, face: int, support: tuple[int, ...], g: int) -> tuple[np.ndarray, np.ndarray]:
    """Grid points for one (stocked-out item, replenishment support) branch."""
    j = p.num_items
    state_axes = []
    for k in range(j):
        state_axes.append(np.array([0.0]) if k == face else np.linspace(0.0, p.s_bar[k], g))
    action_axes = []
    for k in range(j):
        if k in support:
            action_axes.append(np.linspace(0.0, min(p.s_bar[k], p.a_bar), g))
        else:
            action_axes.append(np.array([0.0]))
    mesh = np.meshgrid(*state_axes, *action_axes, indexing="ij")
    flat = [m.ravel() for m in mesh]
    states = np.stack(flat[:j], axis=1)
    actions = np.stack(flat[j:], axis=1)
    return states, actions


@dataclass(frozen=True)
class GridBranch:
    """Feasible grid points of one separation branch and their solution-free slack terms."""

    face: int  # the stocked-out item
    states: np.ndarray  # (n, J)
    actions: np.ndarray  # (n, J)
    times: np.ndarray  # (n,) transition times
    costs: np.ndarray  # (n,) stage costs
    dphi: np.ndarray  # (n, K) phi(s') - phi(s)

    def __post_init__(self):
        # one grid serves every cut, and separate may return one of its rows
        for f in ("states", "actions", "times", "costs", "dphi"):
            getattr(self, f).setflags(write=False)


def separation_grid(p: GjrParams, bases: BasisSet, search: SearchPlan = SearchPlan()) -> list[GridBranch]:
    """The branches of ``separate`` that have a feasible grid point, in search order.

    Branches pair a stocked-out item (state face) with a replenishment
    support that contains it.  Nothing here depends on the LP solution, whose
    slack is linear in these terms, so one grid serves a whole cut loop.
    """
    j = p.num_items
    supports = [c for r in range(1, j + 1) for c in combinations(range(j), r)]
    grid = []
    for face in range(j):
        for support in supports:
            if face not in support:
                continue  # the stocked-out item must be replenished for time to advance
            states, actions = _branch_candidates(p, face, support, search.grid_per_dim)
            mask = feasible(p, states, actions)
            if not mask.any():
                continue
            states, actions = states[mask], actions[mask]
            grid.append(GridBranch(face, states, actions, *_step_terms(p, bases, states, actions)))
    return grid


def _line_minimum(
    p: GjrParams, bases: BasisSet, sol: BiasApprox, s: np.ndarray, a: np.ndarray, k: int, on_state: bool
) -> Optional[tuple[np.ndarray, np.ndarray, float]]:
    """Exact minimum of the slack along coordinate ``k`` of the state (or of the action).

    With x the moving coordinate, item k's post-replenishment level is
    x + c0 and the transition time min(m, (x + c0) / r_k), with m the time
    to the first stockout among the other items.  Stumps are clipped ramps and the
    cost is constant while a_k > 0, so the slack is piecewise linear in x.
    Its minimum over the feasible interval sits at an end or at a kink (the
    stockout switch, a successor stump crossing omega +- eps, or on a state
    line a stump of s_k itself).  Returns the best candidate as
    (state, action, slack), or None when none is feasible.
    """
    r = p.usage_rates
    post = s + a
    m = float(min(post[i] / r[i] for i in range(p.num_items) if i != k))
    if on_state:
        # with a_k = 0 the end x = 0 is dropped as infeasible and not chased:
        # its limit is item k stocked out and not replenished, a zero-time
        # pair that no branch enumerates
        c0, lo, hi = a[k], 0.0, p.s_bar[k] - a[k]
    else:  # a_k -> 0 leaves the branch's support: the nearest point inside it
        c0, lo, hi = s[k], 2.0 * FEAS_TOL, min(p.s_bar[k] - s[k], p.a_bar - (a.sum() - a[k]))
    kinks = np.concatenate([bases.omega - DEFAULT_STUMP_EPS, bases.omega + DEFAULT_STUMP_EPS])
    item = np.concatenate([bases.q, bases.q]) - 1
    own = item == k
    other = ~own
    other_item = item[other]
    x_stock = m * r[k] - c0  # item k stocks out first below this point
    xs = [
        [lo, hi, x_stock],
        (post[other_item] - kinks[other]) * r[k] / r[other_item] - c0,  # successor kinks below x_stock
        kinks[own] - c0 + m * r[k],  # successor kinks above x_stock
    ]
    if on_state:
        xs.append(kinks[own])  # kinks of phi(s)

    def points(x):
        states = np.empty((len(x), p.num_items))
        actions = np.empty((len(x), p.num_items))
        states[:] = s
        actions[:] = a
        (states if on_state else actions)[:, k] = x
        return states, actions

    x = np.concatenate(xs)
    x = np.sort(x[(x >= lo) & (x <= hi)])
    distinct = np.empty(len(x), dtype=bool)  # the sorted distinct candidates, as np.unique
    distinct[:1] = True
    np.not_equal(x[1:], x[:-1], out=distinct[1:])
    x = x[distinct]
    x = x[feasible(p, *points(x))]
    if len(x) == 0:
        return None
    states, actions = points(x)
    slack = constraint_slack(p, bases, sol, states, actions)
    i = int(np.argmin(slack))
    return states[i], actions[i], float(slack[i])


def _refine_point(p, bases, sol, s, a, best, face) -> tuple[np.ndarray, np.ndarray, float]:
    """Coordinate descent on the slack from a grid point with slack ``best``, staying in the branch.

    Each coordinate line is minimized exactly by ``_line_minimum``; a move is
    taken only when it lowers the slack by more than 1e-12.
    """
    for _ in range(REFINE_SWEEPS):
        improved = False
        for k in range(p.num_items):
            for on_state in (True, False) if k != face else (False,):
                found = _line_minimum(p, bases, sol, s, a, k, on_state)
                if found is not None and found[2] < best - 1e-12:
                    s, a, best = found
                    improved = True
        if not improved:
            break
    return s, a, best


def separate(
    p: GjrParams,
    bases: BasisSet,
    sol: BiasApprox,
    search: SearchPlan = SearchPlan(),
    grid: Optional[list[GridBranch]] = None,
) -> SeparationResult:
    """Most violated constraint found by support enumeration, a grid and exact line search.

    Each branch of ``grid`` (built by ``separation_grid`` when not given)
    has its best grid point refined by coordinate descent whose lines are
    minimized at their breakpoints, which are stump kinks, so the bases must
    be stumps.  An exact mixed-integer search can be plugged in behind the
    same result type for larger item counts.
    """
    if bases.kind != "stump":
        raise ValueError(f"separation needs stump bases, got {bases.kind!r}")
    if grid is None:
        grid = separation_grid(p, bases, search)
    best: Optional[tuple[np.ndarray, np.ndarray, float]] = None
    for b in grid:
        slacks = _slack(sol, b.times, b.costs, b.actions, b.dphi)
        idx = int(np.argmin(slacks))
        s_r, a_r, v_r = _refine_point(p, bases, sol, b.states[idx], b.actions[idx], float(slacks[idx]), b.face)
        if best is None or v_r < best[2]:
            best = (s_r, a_r, v_r)
    if best is None:
        raise ValueError("no branch has a feasible grid point")
    state, action, slack = best
    status = "violated" if slack < -sep_tol(p) else "feasible"
    return SeparationResult(state=state, action=action, slack=slack, status=status)


def sample_gjr_pairs(p: GjrParams, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """``(n, J)`` states and actions of uniform feasible pairs: random stockout
    face, state in the box, scaled action."""
    j = p.num_items
    states = np.empty((n, j))
    actions = np.empty((n, j))
    count = 0
    while count < n:
        s = rng.uniform(0.0, p.s_bar)
        s[rng.integers(j)] = 0.0
        a = rng.uniform(0.0, p.s_bar - s)
        total = a.sum()
        if total > p.a_bar:
            a *= rng.uniform(0.0, 1.0) * p.a_bar / total
        if feasible(p, s, a):
            states[count], actions[count] = s, a
            count += 1
    return states, actions


def sample_gjr_states(p: GjrParams, n: int, rng: np.random.Generator) -> np.ndarray:
    states = np.empty((n, p.num_items))
    for i in range(n):
        s = rng.uniform(0.0, p.s_bar)
        s[rng.integers(p.num_items)] = 0.0
        states[i] = s
    return states


class ConstraintGenerationError(RuntimeError):
    """The cut budget ran out before separation found no violated pair; carries the trace."""

    def __init__(self, message: str, trace: list):
        super().__init__(message)
        self.trace = trace


@dataclass
class CutLoopResult:
    solution: BiasApprox
    eta_lambda: float  # lower bound on the optimal average cost
    trace: list[tuple[int, float, float]]  # (iteration, LP optimum, min slack)
    states: np.ndarray  # (n, J) states of the final constraint pairs
    actions: np.ndarray  # (n, J) actions of the final constraint pairs
    lp_s: float  # wall time building and solving the cut LPs
    separate_s: float  # wall time in separation, the grid build included
    lp_iterations: int  # simplex iterations over the cut LPs, unbounded re-solves included
    max_violation: float  # largest row violation max(rows.x - rhs) over the cut LPs
    separation_grid_points: int  # feasible points of the separation grid


def constraint_generation(
    p: GjrParams,
    bases: BasisSet,
    init_states: np.ndarray,
    init_actions: np.ndarray,
    prev: Optional[BiasApprox] = None,
    guide_states: Optional[np.ndarray] = None,
    search: SearchPlan = SearchPlan(),
    max_cuts: int = 500,
    seed: int = 0,
) -> CutLoopResult:
    """Solve, separate, append the violated pair, repeat until feasible.

    The loop solves one live LP in the model's own variables: each cut
    appends its pair's row, and with ``prev`` the row of the new guide
    state, and the next solve continues from the previous basis.
    Unbounded intermediate programs pick up extra sampled pairs until the
    optimum is finite.  Self-guiding rows (when ``prev`` is given) are only
    enforced at the guide states and at the states of the cuts; they are
    never separated since their violation does not threaten the lower
    bound.  Any other non-optimal LP status raises ``SolverError``; running
    out of ``max_cuts`` raises ``ConstraintGenerationError``.  Both carry
    the trace of the finished cuts.
    """
    if len(init_states) == 0:
        raise ValueError("need at least one initial constraint pair")
    states = np.asarray(init_states, dtype=float)
    actions = np.asarray(init_actions, dtype=float)
    rng = split_rng(seed, _PAIR_STREAM)
    trace: list[tuple[int, float, float]] = []
    start = time.perf_counter()
    grid = separation_grid(p, bases, search)
    separate_s = time.perf_counter() - start
    start = time.perf_counter()
    lp = LiveLp(build_avg_alp(p, bases, states, actions, prev, guide_states))
    lp_s = time.perf_counter() - start
    lp_iterations = 0
    max_violation = -np.inf
    for iteration in range(max_cuts):
        start = time.perf_counter()
        lp_sol = lp.solve()
        lp_iterations += lp_sol.iterations
        while lp_sol.status == "unbounded":
            more_states, more_actions = sample_gjr_pairs(p, 200, rng)
            states = np.vstack([states, more_states])
            actions = np.vstack([actions, more_actions])
            more = build_avg_alp(p, bases, more_states, more_actions)
            lp.add_rows(more.rows, more.rhs)
            lp_sol = lp.solve()
            lp_iterations += lp_sol.iterations
        if lp_sol.status != "optimal":
            raise SolverError(lp_sol.status, f"cut {iteration}", trace)
        max_violation = max(max_violation, lp_sol.max_violation)
        sol = _unpack(p, lp_sol.x)
        lp_s += time.perf_counter() - start
        start = time.perf_counter()
        sep = separate(p, bases, sol, search, grid)
        separate_s += time.perf_counter() - start
        trace.append((iteration, float(lp_sol.objective), float(sep.slack)))
        if sep.status == "feasible":
            return CutLoopResult(
                solution=sol, eta_lambda=sol.eta(p.usage_rates), trace=trace, states=states, actions=actions,
                lp_s=lp_s, separate_s=separate_s, lp_iterations=lp_iterations, max_violation=max_violation,
                separation_grid_points=sum(len(b.states) for b in grid),
            )
        start = time.perf_counter()
        state, action = sep.state[None, :], sep.action[None, :]
        states = np.vstack([states, state])
        actions = np.vstack([actions, action])
        cut = build_avg_alp(p, bases, state, action, prev, None if guide_states is None else state)
        lp.add_rows(cut.rows, cut.rhs)
        lp_s += time.perf_counter() - start
    raise ConstraintGenerationError(f"no convergence within {max_cuts} cuts", trace)


def _fraction_grid(j: int, points: int) -> np.ndarray:
    axes = [np.linspace(0.0, 1.0, points)] * j
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)  # (points^J, J)


def k_step_greedy(
    p: GjrParams,
    bases: BasisSet,
    sol: BiasApprox,
    s,
    k: int,
    search: SearchPlan = SearchPlan(),
) -> np.ndarray:
    """First action of the K-step lookahead minimizing sum(c - eta T) + u(s_K).

    The per-step action grid places ``search.action_grid`` points per item on
    [0, min(cap - s_j, a_bar)]; plans are kept in a beam of width
    ``search.beam_width`` (wide enough beams make the search exhaustive).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    s = np.asarray(s, dtype=float)
    j = p.num_items
    eta = sol.eta(p.usage_rates)
    fractions = _fraction_grid(j, search.action_grid)
    states = s[None, :]
    costs = np.zeros(1)
    first = None  # per plan, the row of first_actions it started with
    for step in range(k):
        # every plan's candidate actions, fractions of its caps, built item by item
        cand = np.empty((len(states), len(fractions), j))
        for i in range(j):
            cap = np.maximum(np.minimum(p.s_bar[i] - states[:, i], p.a_bar), 0.0)
            np.multiply.outer(cap, fractions[:, i], out=cand[:, :, i])
        # flat (plan, grid point) index of every feasible action; np.take gathers
        # rows of these narrow arrays several times faster than fancy indexing
        flat = np.flatnonzero(feasible(p, states[:, None, :], cand))
        if len(flat) == 0:
            raise InfeasiblePairError(f"no feasible lookahead action at {states}")
        plan = flat // len(fractions)
        if first is None:
            first_actions, first = cand[0], flat  # one plan at the first step
        else:
            first = first[plan]
        actions = np.take(cand.reshape(-1, j), flat, axis=0)
        times, states, stage = gjr_step(p, np.take(states, plan, axis=0), actions)
        costs = costs[plan] + (stage - eta * times)
        np.maximum(states, 0.0, out=states)
        if step < k - 1 and len(costs) > search.beam_width:
            keep = np.argpartition(costs, search.beam_width)[: search.beam_width]
            keep = keep[np.argsort(costs[keep], kind="stable")]
            costs, states, first = costs[keep], states[keep], first[keep]
    total = costs + sol.bias(bases, states)
    # a copy: a view would keep every candidate alive for as long as the caller holds the action
    return first_actions[first[int(np.argmin(total))]].copy()


def simulate_average_cost(p: GjrParams, act: Callable[[np.ndarray], np.ndarray], stages: int) -> float:
    """Long-run cost per unit time of the policy ``act`` from the empty state.

    ``act`` maps one state (J,) to its action (J,).  It must depend on the
    state alone: each visited state's whole step is memoized, so ``act`` is
    called once per distinct state.
    """
    if stages < 1:
        raise ValueError("stages must be >= 1")
    s = np.zeros(p.num_items)
    total_cost = 0.0
    total_time = 0.0
    # deterministic dynamics revisit states exactly, so whole steps are memoizable:
    # state bytes -> (stage cost, transition time, successor)
    steps: dict[bytes, tuple[float, float, np.ndarray]] = {}
    for _ in range(stages):
        key = s.tobytes()
        step = steps.get(key)
        if step is None:
            a = act(s)
            if not feasible(p, s, a):
                raise InfeasiblePairError(f"action {a} infeasible at state {s}")
            t, nxt, cost = gjr_step(p, s, a)
            # exact zero at the argmin, guard float dust
            step = steps[key] = (float(cost), float(t), np.maximum(nxt, 0.0))
        cost, t, s = step
        total_cost += cost
        total_time += t
    return total_cost / total_time
