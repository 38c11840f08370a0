"""Construction and solution of the sampled approximate linear programs.

The standard model maximizes the state-relevance-weighted VFA subject to one
Bellman inequality per sampled state-action pair:

    max  beta_0 + sum_i beta_i * E_nu[phi_i]
    s.t. (1-gamma) beta_0 + sum_i beta_i (phi_i(s) - gamma E[phi_i(s') | s,a])
             <= c(s,a)            for sampled (s, a).

The self-guided variant adds, per guide state, a row forcing the new VFA to
dominate the previous iteration's VFA.  Models are plain coefficient
containers handed to a pluggable LP backend; scipy's HiGHS wrapper is the
default backend.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
import types
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Protocol

import numpy as np

from ralp.bases import BasisSet, features
from ralp.mdp import DiscountedMdp, batch_expected_costs, expected_successor_phases

class SolverError(RuntimeError):
    """LP backend failure with a machine-readable status and the trace rows finished before it."""

    def __init__(self, status: str, detail: str = "", trace: list = ()):
        super().__init__(f"LP solve failed: {status}" + (f" ({detail})" if detail else ""))
        self.status = status
        self.trace = list(trace)


@dataclass(frozen=True)
class VfaWeights:
    """Intercept plus per-basis coefficients defining V(s) = beta0 + betas . phi(s)."""

    beta0: float
    betas: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "betas", np.asarray(self.betas, dtype=float))
        self.betas.setflags(write=False)

    def __len__(self) -> int:
        return len(self.betas)

    @staticmethod
    def zero(n: int) -> "VfaWeights":
        return VfaWeights(beta0=0.0, betas=np.zeros(n))


@dataclass(frozen=True)
class LpModel:
    """max objective . x  s.t.  rows . x <= rhs, x free."""

    objective: np.ndarray
    rows: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        obj = np.asarray(self.objective, dtype=float)
        rows = np.asarray(self.rows, dtype=float)
        rhs = np.asarray(self.rhs, dtype=float)
        if rows.ndim != 2 or rows.shape != (len(rhs), len(obj)):
            raise ValueError(f"inconsistent LP shapes: rows {rows.shape}, rhs {rhs.shape}, obj {obj.shape}")
        if not (np.isfinite(obj).all() and np.isfinite(rows).all() and np.isfinite(rhs).all()):
            raise ValueError("non-finite LP coefficient")
        for arr, name in ((obj, "objective"), (rows, "rows"), (rhs, "rhs")):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def num_vars(self) -> int:
        return len(self.objective)

    @property
    def num_rows(self) -> int:
        return len(self.rhs)


@dataclass(frozen=True)
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded" | "numeric"
    x: Optional[np.ndarray]
    objective: Optional[float]
    max_violation: Optional[float]  # feasibility report: max(rows.x - rhs)
    rounds: int = 0  # HiGHS solves made for this model
    rows_solved: int = 0  # model rows in the last call (box rows not counted)
    iterations: int = 0  # simplex iterations summed over the calls


class SolverBackend(Protocol):
    def solve(self, model: LpModel) -> LpSolution: ...


# HiGHS primal and dual feasibility tolerance, and the number of rows the
# preconditioner's QR samples.
HIGHS_TOL = 1e-9
PRECONDITION_ROWS = 4000
# Row generation: rows in the first subproblem, and the most violated rows
# added per round.
ROWGEN_START = 300
ROWGEN_ADD = 150


class ScipyBackend:
    """HiGHS through scipy's bundled bindings; variables are free."""

    def __init__(self, var_bound: Optional[float] = None):
        # Optional box |x_i| <= var_bound.  Nearly duplicated feature columns
        # admit optimal vertices with gigantic cancelling weights whose
        # function values cannot be evaluated to tight tolerances in double
        # precision; chained models (guide rows built from the previous
        # solution) need bounded representatives.  The box must be wide
        # enough never to bind at solutions of interest.
        self.var_bound = var_bound

    def solve(self, model: LpModel) -> LpSolution:
        """Solve ``model`` once, on a ``LiveLp`` of its own in preconditioned variables.

        Random cosine features can produce nearly collinear LP columns (tiny
        or nearly duplicated frequencies), on which the simplex breaks down.
        The model is therefore solved in variables x = M y, with M the
        inverse R-factor of a QR over rows sampled from the model, which
        makes the columns near-orthonormal without changing the program: the
        feasible region and optimum map exactly through the invertible M.  A
        model with fewer than two columns, or with fewer than twice as many
        rows as columns, is solved with M the identity, which changes no
        coefficient.  The box rows [M; -M] y <= var_bound are held from the
        first round; ``rows_solved`` does not count them, and
        ``max_violation`` is taken over the model's rows in x.
        """
        m = _preconditioner(model.rows)
        lp = LiveLp(LpModel(m.T @ model.objective, model.rows @ m, model.rhs))
        box = 0
        if self.var_bound is not None:
            # box rows compose with the preconditioner (plain variable bounds
            # would not survive the change of variables)
            box = 2 * model.num_vars
            lp.add_rows(np.vstack([m, -m]), np.full(box, self.var_bound))
        sol = lp.solve()
        rows_solved = sol.rows_solved - box
        if sol.status != "optimal":
            return replace(sol, rows_solved=rows_solved)
        x = m @ sol.x
        viol = float(np.max(model.rows @ x - model.rhs)) if model.num_rows else 0.0
        return replace(sol, x=x, max_violation=viol, rows_solved=rows_solved)


def _preconditioner(rows: np.ndarray) -> np.ndarray:
    """The inverse R factor of a QR over sampled ``rows``, or the identity for too few rows or columns."""
    n, v = rows.shape
    if n < 2 * v or v < 2:
        return np.eye(v)
    idx = np.linspace(0, n - 1, min(n, PRECONDITION_ROWS)).astype(int)
    r = np.linalg.qr(rows[idx], mode="r")
    diag = np.abs(np.diag(r))
    floor = 1e-10 * max(float(diag.max()), 1.0)
    r = r + np.diag(np.where(diag < floor, floor, 0.0))
    return np.linalg.solve(r, np.eye(v))


class LiveLp:
    """One live HiGHS model of an ``LpModel`` that takes more rows between solves.

    Tight feasibility tolerances keep chained models consistent: guide rows
    built from a previous solution stay satisfiable only if that solution
    honored its own rows to well below the guide slack.

    Sampled ALPs have thousands of rows but only about as many binding rows
    as variables, so each solve is row generation on the live model.  The
    model is loaded with ``ROWGEN_START`` evenly spaced rows, with the
    options ``linprog(method="highs")`` passes.  After each round, up to
    ``ROWGEN_ADD`` of the known rows outside it violated by more than
    ``HIGHS_TOL * (1 + |rhs|)`` are appended, the most violated first, and
    the dual simplex continues from the kept basis (added rows leave it dual
    feasible), until no known row is violated.  ``add_rows`` appends rows
    straight into the model, and the next solve continues from the basis of
    the last one.

    A model of at most ``ROWGEN_START`` rows is therefore one solve over all
    of its rows, with the same bits as ``linprog``.  A solve of more than
    one round returns the vertex of its final basis: the nonbasic rows,
    solved in row order, so that the weights depend on the final basis and
    not on the path the warm starts took.  When that basis is not a vertex
    (some column is nonbasic, as a zero column can be), and after a solve of
    one round (the first solve of a small model, or a warm solve after
    ``add_rows``), HiGHS's own primal values are returned.

    An infeasible subproblem proves the model infeasible.  A warm round that
    ends unbounded or numeric is solved again cold (rows added to a bounded
    LP cannot unbound it, so such a status is a numerical failure of the
    warm start).  An unbounded or numeric subproblem that still lacks rows
    is solved once more over all known rows by a cold ``linprog`` call,
    whose status is the one reported, and the live model is loaded again
    over all known rows.

    The live model uses ``scipy.optimize._highspy._core``, a private
    extension module that scipy has shipped since 1.15 and that ``linprog``
    wraps too.  It is loaded by file path, so solving does not import the
    ``scipy.optimize`` package; the all-rows fall-back imports it on its
    first call.
    """

    def __init__(self, model: LpModel):
        self.objective = model.objective
        self.rows, self.rhs = model.rows, model.rhs  # every known row: the model's, then added ones
        n = model.num_rows
        self.held = np.ones(n, dtype=bool)
        if n > ROWGEN_START:
            self.held[:] = False
            self.held[np.linspace(0, n - 1, ROWGEN_START).astype(int)] = True
        self.order = np.flatnonzero(self.held)  # known row of each HiGHS row, in insertion order
        self.highs = _highs_model(self.objective, self.rows[self.order], self.rhs[self.order])
        self.warm = False  # whether HiGHS holds a basis to start from

    def add_rows(self, rows: np.ndarray, rhs: np.ndarray) -> None:
        """Append rows to the known rows and load them into HiGHS."""
        _highs_add_rows(self.highs, rows, rhs)
        self.order = np.concatenate([self.order, len(self.rhs) + np.arange(len(rhs))])
        self.held = np.concatenate([self.held, np.ones(len(rhs), dtype=bool)])
        self.rows, self.rhs = np.vstack([self.rows, rows]), np.concatenate([self.rhs, rhs])

    def solve(self) -> LpSolution:
        a_ub, b_ub = self.rows, self.rhs
        add_tol = HIGHS_TOL * (1.0 + np.abs(b_ub))
        rounds = iterations = 0
        while True:
            status, y, fun, nit = _highs_run(self.highs, b_ub[self.order])
            rounds += 1
            iterations += nit
            warm, self.warm = self.warm, True
            if warm and status in ("unbounded", "numeric"):
                # added rows cannot unbound a bounded LP, so a warm start that
                # fails failed numerically: solve the subproblem again from a cleared basis
                self.highs.clearSolver()
                self.warm = False
                continue
            if status == "optimal":
                # known rows outside the subproblem that its solution violates, most violated first
                viol = a_ub @ y - b_ub
                cand = np.flatnonzero(~self.held & (viol > add_tol))
                if len(cand):
                    new = np.sort(cand[np.argsort(-viol[cand], kind="stable")[:ROWGEN_ADD]])
                    _highs_add_rows(self.highs, a_ub[new], b_ub[new])
                    self.held[new] = True
                    self.order = np.concatenate([self.order, new])
                    continue
                if rounds > 1:
                    y = _basis_vertex(self.highs, self.order, a_ub, b_ub, y)
                    fun = -float(self.objective @ y)
            elif status != "infeasible" and not self.held.all():
                # unbounded or numeric is reported for all known rows only
                res = linprog(
                    c=-self.objective,
                    A_ub=a_ub,
                    b_ub=b_ub,
                    bounds=[(None, None)] * len(self.objective),
                    method="highs",
                    options={
                        "primal_feasibility_tolerance": HIGHS_TOL,
                        "dual_feasibility_tolerance": HIGHS_TOL,
                    },
                )
                status, y, fun = _LINPROG_STATUS.get(res.status, "numeric"), res.x, res.fun
                rounds += 1
                iterations += res.nit
                self.held[:] = True
                self.order = np.arange(len(b_ub))
                self.highs = _highs_model(self.objective, a_ub, b_ub)
                self.warm = False
            break
        if status != "optimal":
            return LpSolution(status=status, x=None, objective=None, max_violation=None,
                              rounds=rounds, rows_solved=len(self.order), iterations=iterations)
        y = np.asarray(y)
        viol = float(np.max(a_ub @ y - b_ub)) if len(b_ub) else 0.0
        return LpSolution(status="optimal", x=y, objective=float(-fun), max_violation=viol,
                          rounds=rounds, rows_solved=len(self.order), iterations=iterations)


def load_extension(name: str):
    """A compiled module of an installed package, loaded from its file without its package's ``__init__``.

    ``name`` is the module's full dotted name, such as
    ``"scipy.optimize._highspy._core"``.  The module is registered under that
    name, so the package imported before or after this call uses the same
    module object.  While the module initializes, each parent package below
    the top level that is not yet imported stands in ``sys.modules`` as a
    bare module whose ``__path__`` is the package folder: a relative import
    of a sibling extension then loads that file alone instead of running the
    package's ``__init__``.  The stand-ins are removed afterwards, also when
    the load fails.  The top-level package is never stood in, so an absolute
    import in the module imports it for real: subpackages loaded under a
    top-level stand-in would be missing as attributes of the real package
    imported later (``scipy.stats`` reads ``scipy._lib``).
    """
    if name in sys.modules:
        return sys.modules[name]
    top, *packages, leaf = name.split(".")
    top_spec = importlib.util.find_spec(top)
    if top_spec is None:
        raise ImportError(f"{top} is not installed")
    root = Path(top_spec.submodule_search_locations[0])
    folder = root.joinpath(*packages)
    paths = [folder / f"{leaf}{suffix}" for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if p.is_file()), None)
    if path is None:
        raise ImportError(f"no extension module {leaf}.* in {folder}")
    stand_ins = []
    for depth in range(1, len(packages) + 1):
        package = ".".join([top, *packages[:depth]])
        if package not in sys.modules:
            stand_in = types.ModuleType(package)
            stand_in.__path__ = [str(root.joinpath(*packages[:depth]))]
            sys.modules[package] = stand_in
            stand_ins.append(package)
    try:
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    except BaseException:
        sys.modules.pop(name, None)
        raise
    finally:
        for package in stand_ins:
            sys.modules.pop(package, None)
    return module


# scipy's compiled HiGHS binding, without importing scipy.optimize
_highs = load_extension("scipy.optimize._highspy._core")


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first call: only the all-rows fall-back solves with it."""
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


# linprog's status codes, and the HiGHS model statuses it maps to them
_LINPROG_STATUS = {0: "optimal", 1: "numeric", 2: "infeasible", 3: "unbounded", 4: "numeric"}
_HIGHS_STATUS = {
    _highs.HighsModelStatus.kOptimal: "optimal",
    _highs.HighsModelStatus.kInfeasible: "infeasible",
    _highs.HighsModelStatus.kModelError: "infeasible",
    _highs.HighsModelStatus.kUnbounded: "unbounded",
}
# linprog turns an optimal status into "numeric" when a row's slack is below
# minus this (10 sqrt(tol) with its default tol 1e-9)
_LINPROG_SLACK_TOL = 10.0 * np.sqrt(1e-9)
_HIGHS_OPTIONS = {
    "presolve": "on",
    "simplex_strategy": 1,  # dual simplex
    "primal_feasibility_tolerance": HIGHS_TOL,
    "dual_feasibility_tolerance": HIGHS_TOL,
    "output_flag": False,
    "log_to_console": False,
}


def _highs_model(c: np.ndarray, a_ub: np.ndarray, b_ub: np.ndarray):
    """A HiGHS model of min -c.y s.t. a_ub y <= b_ub, y free, loaded as linprog loads it."""
    highs = _highs._Highs()
    for key, value in _HIGHS_OPTIONS.items():
        highs.setOptionValue(key, value)
    num_row, num_col = a_ub.shape
    lp = _highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = num_col
    lp.num_row_ = lp.a_matrix_.num_row_ = num_row
    lp.a_matrix_.format_ = _highs.MatrixFormat.kColwise
    lp.a_matrix_.start_, lp.a_matrix_.index_, lp.a_matrix_.value_ = _compressed(a_ub.T)
    lp.col_cost_ = -c
    lp.col_lower_, lp.col_upper_ = np.full(num_col, -np.inf), np.full(num_col, np.inf)
    lp.row_lower_, lp.row_upper_ = np.full(num_row, -np.inf), b_ub
    highs.passModel(lp)
    return highs


def _highs_add_rows(highs, a_ub: np.ndarray, b_ub: np.ndarray) -> None:
    start, index, value = _compressed(a_ub)
    highs.addRows(len(b_ub), np.full(len(b_ub), -np.inf), b_ub, len(value), start[:-1], index, value)


def _compressed(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonzeros of a dense block by rows: row starts (with the end), column indices and values.

    The arrays of ``csr_array(a)``; ``_compressed(a.T)`` gives those of ``csc_array(a)``.
    """
    nz = a != 0
    start = np.concatenate(([0], np.cumsum(nz.sum(axis=1)))).astype(np.int32)
    return start, np.nonzero(nz)[1].astype(np.int32), a[nz]


def _highs_run(highs, b_ub: np.ndarray) -> tuple[str, Optional[np.ndarray], Optional[float], int]:
    """Solve from the kept basis: status, primal values, objective and simplex iterations."""
    highs.run()
    info = highs.getInfo()
    nit = max(info.simplex_iteration_count, 0)  # -1 when HiGHS stopped before the simplex
    status = _HIGHS_STATUS.get(highs.getModelStatus(), "numeric")
    if status != "optimal":
        return status, None, None, nit
    sol = highs.getSolution()
    y, fun = np.array(sol.col_value), info.objective_function_value
    slack_ok = not np.any(np.array(sol.row_value) - b_ub > _LINPROG_SLACK_TOL)
    if not (np.isfinite(y).all() and np.isfinite(fun) and slack_ok):
        status = "numeric"
    return status, y, fun, nit


def _basis_vertex(highs, order: np.ndarray, a_ub: np.ndarray, rhs: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The vertex of the final basis: its nonbasic rows solved in model row order.

    Returns ``y`` (HiGHS's primal values) unless every column is basic and
    exactly one row per column is nonbasic.
    """
    basis = highs.getBasis()
    basic = _highs.HighsBasisStatus.kBasic
    tight = np.sort(order[np.array([s != basic for s in basis.row_status])])
    if len(tight) != len(y) or any(s != basic for s in basis.col_status):
        return y
    return np.linalg.solve(a_ub[tight], rhs[tight])


@dataclass(frozen=True)
class ConstraintSamplePlan:
    """Sampled state-action pairs for the Bellman rows, plus guide states.

    Guide states default to the distinct states appearing in the sampled
    pairs.  Duplicate pairs are kept as-is; repeated rows are harmless to an
    LP.
    """

    states: np.ndarray  # (n, d_s)
    actions: np.ndarray  # (n, d_a)
    guide_states: np.ndarray  # (m, d_s)

    def __post_init__(self):
        for name in ("states", "actions", "guide_states"):
            arr = np.atleast_2d(np.asarray(getattr(self, name), dtype=float))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if len(self.states) == 0:
            raise ValueError("constraint plan must contain at least one state-action pair")
        if len(self.states) != len(self.actions):
            raise ValueError("states and actions length mismatch")

    @property
    def num_pairs(self) -> int:
        return len(self.states)


def uniform_plan(mdp: DiscountedMdp, num_pairs: int, rng: np.random.Generator) -> ConstraintSamplePlan:
    """Uniform state-action pairs over the instance boxes."""
    if num_pairs < 1:
        raise ValueError("num_pairs must be >= 1")
    s_width = mdp.state_hi - mdp.state_lo
    a_width = mdp.action_hi - mdp.action_lo
    states = mdp.state_lo + s_width * rng.random((num_pairs, mdp.dim_state))
    actions = mdp.action_lo + a_width * rng.random((num_pairs, mdp.dim_action))
    return ConstraintSamplePlan(states=states, actions=actions, guide_states=_unique_rows(states))


def grid_plan(states: np.ndarray, actions: np.ndarray) -> ConstraintSamplePlan:
    """Full cartesian grid of the given states and actions."""
    states = np.atleast_2d(np.asarray(states, dtype=float).T).T
    actions = np.atleast_2d(np.asarray(actions, dtype=float).T).T
    ns, na = len(states), len(actions)
    s_rep = np.repeat(states, na, axis=0)
    a_rep = np.tile(actions, (ns, 1))
    return ConstraintSamplePlan(states=s_rep, actions=a_rep, guide_states=states)


def _unique_rows(arr: np.ndarray) -> np.ndarray:
    return np.unique(np.atleast_2d(arr), axis=0)


def nu_sample_set(dist, size: int, rng: np.random.Generator) -> np.ndarray:
    """Sample set for objective expectations; a degenerate distribution yields its atom."""
    if dist.atom is not None:
        return np.atleast_2d(np.asarray(dist.atom, dtype=float))
    return dist.sample_batch(size, rng)


class PreparedPlan:
    """A plan's Bellman rows for one MDP: expected costs and cached basis columns.

    A run solves a sequence of models over one plan, each with the previous
    basis set plus a new batch.  The expected costs ``rhs`` are computed
    once, and the ``phi(s)`` / ``E[phi(s')]`` columns of each basis entry
    are kept, so each rebuild computes only the new entries' columns.
    """

    def __init__(self, mdp: DiscountedMdp, plan: ConstraintSamplePlan):
        self.mdp = mdp
        self.plan = plan
        self.rhs = batch_expected_costs(mdp, plan.states, plan.actions)  # (n,)
        self._bases: Optional[BasisSet] = None  # the set whose columns are cached
        self._cols = np.empty((2, plan.num_pairs, 0))  # phi(s), E[phi(s')]

    def rows(self, bases: BasisSet) -> np.ndarray:
        """Bellman-row coefficients (1 - gamma, phi(s) - gamma E[phi(s')]), (n, N + 1).

        Reuses the cached columns on the prefix ``bases`` shares with the
        cached set; a set that does not agree with it starts the cache over.
        """
        held = 0 if self._bases is None else min(len(self._bases), len(bases))
        if held and self._bases[:held] != bases[:held]:
            held = 0
        if held < len(bases):
            tail = bases[held:]
            states, actions = self.plan.states, self.plan.actions
            exp_next = expected_successor_phases(self.mdp, tail)(states, actions).real
            tail_cols = np.stack([features(tail, states), exp_next])
            self._cols = np.concatenate([self._cols[:, :, :held], tail_cols], axis=2)
            self._bases = bases
        phi_s, exp_next = self._cols[:, :, : len(bases)]
        rows = np.empty((self.plan.num_pairs, len(bases) + 1))
        rows[:, 0] = 1.0 - self.mdp.gamma
        rows[:, 1:] = phi_s - self.mdp.gamma * exp_next
        return rows


def prepare_plan(mdp: DiscountedMdp, plan: ConstraintSamplePlan) -> PreparedPlan:
    """The plan's rows for ``mdp``, ready for ``build_falp`` / ``build_fglp``."""
    return PreparedPlan(mdp, plan)


def _objective(bases: BasisSet, nu_samples: np.ndarray) -> np.ndarray:
    obj = np.empty(len(bases) + 1)
    obj[0] = 1.0
    obj[1:] = features(bases, nu_samples).mean(axis=0)
    return obj


def build_falp(prepared: PreparedPlan, bases: BasisSet, nu_samples: np.ndarray) -> LpModel:
    """Standard model: Bellman rows only."""
    if len(bases) == 0:
        raise ValueError("basis set is empty")
    return LpModel(objective=_objective(bases, nu_samples), rows=prepared.rows(bases), rhs=prepared.rhs)


# Slack on self-guiding rows.  The previous solution satisfies its Bellman
# rows only to the backend tolerance, so exact-equality guide rows can render
# the chained model infeasible; a slack comfortably above the backend
# tolerance and comfortably below the 1e-6 monotone-chain tolerance restores
# guaranteed feasibility.
GUIDE_TOL = 1e-7


def build_fglp(
    prepared: PreparedPlan,
    bases: BasisSet,
    nu_samples: np.ndarray,
    prev: Optional[VfaWeights],
) -> LpModel:
    """Self-guided model: Bellman rows plus V(s) >= V_prev(s) at each guide state.

    ``prev`` must have been solved against a prefix of ``bases``.  With no
    previous solution the rows coincide with the standard model (the first
    iteration's guide constraints are vacuous).
    """
    falp = build_falp(prepared, bases, nu_samples)
    if prev is None:
        return falp
    if len(prev) > len(bases):
        raise ValueError(f"previous solution has {len(prev)} bases, current set only {len(bases)}")
    guide = prepared.plan.guide_states
    if len(guide) == 0:
        return falp
    prev_vals = vfa_values(bases.prefix(len(prev)), prev, guide)
    # V(s; beta) >= prev - GUIDE_TOL stored as -V(s; beta) <= -(prev - GUIDE_TOL)
    phi_g = features(bases, guide)
    guide_rows = -np.hstack([np.ones((len(guide), 1)), phi_g])
    return LpModel(
        objective=falp.objective,
        rows=np.vstack([falp.rows, guide_rows]),
        rhs=np.concatenate([falp.rhs, -(prev_vals - GUIDE_TOL)]),
    )


def vfa_weights(sol: LpSolution) -> VfaWeights:
    """The weights of an optimal VFA model solution; other statuses raise SolverError."""
    if sol.status != "optimal":
        raise SolverError(sol.status)
    return VfaWeights(beta0=float(sol.x[0]), betas=sol.x[1:])


def vfa_values(bases: BasisSet, w: VfaWeights, states: np.ndarray) -> np.ndarray:
    """V(s) = beta0 + betas . phi(s) for each row of ``states``."""
    if len(w) != len(bases):
        raise ValueError(f"weight length {len(w)} != basis count {len(bases)}")
    return w.beta0 + features(bases, states) @ w.betas


def padded_rows(rows: np.ndarray) -> np.ndarray:
    """``rows`` with its last row repeated up to a multiple of 4 rows.

    OpenBLAS forms matrix-vector products such as ``features @ betas`` in
    blocks of 4 rows and sends the rows of a short last block through another
    kernel, whose results can differ in the last bit.  Padding keeps every row
    in a full block, so a row's value does not depend on the batch it is part
    of.
    """
    pad = -len(rows) % 4
    return np.concatenate([rows, np.repeat(rows[-1:], pad, axis=0)]) if pad else rows


def lb_expectation(bases: BasisSet, w: VfaWeights, chi_samples: np.ndarray) -> float:
    """E_chi[V(s)] over a fixed sample set (exact for a degenerate chi atom)."""
    return float(vfa_values(bases, w, chi_samples).mean())
