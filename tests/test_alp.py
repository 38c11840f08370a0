import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.sparse import csc_array, csr_array

from ralp import alp, pic, toy
from ralp.alp import (
    ConstraintSamplePlan,
    GUIDE_TOL,
    HIGHS_TOL,
    ROWGEN_ADD,
    ROWGEN_START,
    LpModel,
    ScipyBackend,
    SolverError,
    VfaWeights,
    build_falp,
    build_fglp,
    grid_plan,
    lb_expectation,
    nu_sample_set,
    prepare_plan,
    uniform_plan,
    vfa_values,
)
from ralp.bases import fixed_fourier, sample_fourier
from ralp.mdp import split_rng
from tests.conftest import TOY_ACTIONS, TOY_STATES, solve


class TestModelBuild:
    def test_grid_row_count(self, toy_grid_prepared, toy_nu_samples):
        # 1001 states x 101 actions, one Bellman row each
        model = build_falp(toy_grid_prepared, fixed_fourier([2.0, -5.0]), toy_nu_samples)
        assert model.num_vars == 3
        assert model.num_rows == 1001 * 101 == 101101

    def test_empty_basis_rejected(self, toy_grid_prepared, toy_nu_samples):
        from ralp.bases import empty_stumps

        with pytest.raises(ValueError):
            build_falp(toy_grid_prepared, empty_stumps(1), toy_nu_samples)

    def test_empty_plan_rejected(self):
        with pytest.raises(ValueError):
            ConstraintSamplePlan(states=np.zeros((0, 1)), actions=np.zeros((0, 1)), guide_states=np.zeros((0, 1)))

    def test_hand_expanded_row(self, toy_mdp, toy_nu_samples):
        # at (s,a) = (0,0): (1-gamma, phi_i(0) - 0.9 * phi_i(0)) = (0.1, 0.1, 0.1), rhs 0.5
        plan = grid_plan(np.array([[0.0]]), np.array([[0.0]]))
        model = build_falp(prepare_plan(toy_mdp, plan), fixed_fourier([2.0, -5.0]), toy_nu_samples)
        assert np.allclose(model.rows[0], [0.1, 0.1, 0.1], atol=1e-12)
        assert model.rhs[0] == pytest.approx(0.5, abs=1e-15)

    def test_objective_coefficients(self, toy_mdp, toy_nu_samples):
        bases = fixed_fourier([2.0, -5.0])
        plan = grid_plan(np.array([[0.0]]), np.array([[0.0]]))
        model = build_falp(prepare_plan(toy_mdp, plan), bases, toy_nu_samples)
        assert model.objective[0] == 1.0
        from ralp.bases import features

        phi_means = features(bases, toy_nu_samples).mean(axis=0)
        assert np.allclose(model.objective[1:], phi_means)

    def test_grown_rows_match_fresh(self, toy_mdp, toy_nu_samples):
        plan = grid_plan(TOY_STATES, TOY_ACTIONS)
        shared = prepare_plan(toy_mdp, plan)
        for n in (1, 2, 3):
            bases = fixed_fourier([2.0, -5.0, 3.0][:n])
            fresh = build_falp(prepare_plan(toy_mdp, plan), bases, toy_nu_samples)
            grown = build_falp(shared, bases, toy_nu_samples)
            assert np.array_equal(fresh.rows, grown.rows)

    def test_rows_of_a_set_that_does_not_extend_the_cache(self, toy_mdp, toy_nu_samples):
        plan = grid_plan(TOY_STATES, TOY_ACTIONS)
        shared = prepare_plan(toy_mdp, plan)
        build_falp(shared, fixed_fourier([2.0, -5.0]), toy_nu_samples)
        other = fixed_fourier([3.0, -5.0, 4.0])
        fresh = build_falp(prepare_plan(toy_mdp, plan), other, toy_nu_samples)
        assert np.array_equal(build_falp(shared, other, toy_nu_samples).rows, fresh.rows)
        # a prefix of the cached set reuses its columns
        prefix = build_falp(shared, other.prefix(1), toy_nu_samples)
        assert np.array_equal(prefix.rows, fresh.rows[:, :2])


class TestSolve:
    def test_single_constraint(self, backend):
        model = LpModel(objective=[1.0], rows=[[1.0]], rhs=[1.0])
        w, val = solve(model, backend)
        assert val == pytest.approx(1.0, abs=1e-9)
        assert w.beta0 == pytest.approx(1.0, abs=1e-9)

    def test_unbounded_raises_typed(self, backend):
        model = LpModel(objective=[1.0, 0.0], rows=np.zeros((0, 2)), rhs=[])
        with pytest.raises(SolverError) as err:
            solve(model, backend)
        assert err.value.status == "unbounded"

    def test_infeasible_raises_typed(self, backend):
        model = LpModel(
            objective=[1.0],
            rows=[[1.0], [-1.0]],
            rhs=[0.0, -1.0],  # x <= 0 and x >= 1
        )
        with pytest.raises(SolverError) as err:
            solve(model, backend)
        assert err.value.status == "infeasible"

    def test_toy_lower_bound_matches_reference(self, toy_grid_prepared, toy_nu_samples, backend):
        model = build_falp(toy_grid_prepared, fixed_fourier([2.0, -5.0]), toy_nu_samples)
        _, val = solve(model, backend)
        assert 0.12 <= val <= 0.18  # reference value 0.15

    def test_standard_rows_satisfied(self, toy_grid_prepared, toy_nu_samples, backend):
        model = build_falp(toy_grid_prepared, fixed_fourier([2.0, -5.0]), toy_nu_samples)
        w, _ = solve(model, backend)
        x = np.concatenate([[w.beta0], w.betas])
        assert np.max(model.rows @ x - model.rhs) <= 1e-7


def _full_solve(backend: ScipyBackend, model: LpModel) -> tuple[np.ndarray, float]:
    """One HiGHS call over every preconditioned row: the backend before row generation."""
    rows, rhs = model.rows, model.rhs
    if backend.var_bound is not None:
        eye = np.eye(model.num_vars)
        rows = np.vstack([rows, eye, -eye])
        rhs = np.concatenate([rhs, np.full(2 * model.num_vars, backend.var_bound)])
    m = alp._preconditioner(model.rows)
    a_ub = rows @ m
    c = m.T @ model.objective
    res = linprog(
        c=-c,
        A_ub=a_ub,
        b_ub=rhs,
        bounds=[(None, None)] * model.num_vars,
        method="highs",
        options={"primal_feasibility_tolerance": HIGHS_TOL, "dual_feasibility_tolerance": HIGHS_TOL},
    )
    assert res.status == 0
    x = m @ np.asarray(res.x)
    return x, float(-res.fun)


def _cold_round_iterations(backend: ScipyBackend, model: LpModel) -> int:
    """Simplex iterations of row generation with a cold ``linprog`` call per round.

    The same start set and add rule as the backend, each round solved cold
    over its active rows; the summed ``nit`` is the reference a warm start
    must beat.
    """
    m = alp._preconditioner(model.rows)
    a_ub = model.rows @ m
    c = m.T @ model.objective
    rhs = model.rhs
    active = np.zeros(model.num_rows, dtype=bool)
    active[np.linspace(0, model.num_rows - 1, ROWGEN_START).astype(int)] = True
    add_tol = HIGHS_TOL * (1.0 + np.abs(rhs))
    total = 0
    while True:
        res = linprog(
            c=-c,
            A_ub=a_ub[active],
            b_ub=rhs[active],
            bounds=[(None, None)] * model.num_vars,
            method="highs",
            options={"primal_feasibility_tolerance": HIGHS_TOL, "dual_feasibility_tolerance": HIGHS_TOL},
        )
        assert res.status == 0
        total += res.nit
        viol = a_ub @ res.x - rhs
        cand = np.flatnonzero(~active & (viol > add_tol))
        if not len(cand):
            return total
        active[cand[np.argsort(-viol[cand], kind="stable")[:ROWGEN_ADD]]] = True


@pytest.fixture(scope="module")
def pic_model():
    # the pic-saddle benchmark's second LP: pic:1, 5000 rows, 20 bases, sigma in [100, 1000]
    mdp = pic.build_pic_mdp(pic.instance_from_table(1), demand_saa_size=500, demand_seed=0)
    plan = uniform_plan(mdp, 5000, split_rng(3, 21))
    nu = nu_sample_set(mdp.state_relevance, 1000, split_rng(3, 22))
    return build_falp(prepare_plan(mdp, plan), sample_fourier(20, mdp.dim_state, (100.0, 1000.0), seed=3), nu)


class TestRowGeneration:
    def _assert_matches_full_solve(self, backend, model):
        sol = backend.solve(model)
        assert sol.status == "optimal"
        _, ref = _full_solve(backend, model)
        assert abs(sol.objective - ref) <= 1e-9 * abs(ref)
        assert np.all(model.rows @ sol.x - model.rhs <= 1e-6 * (1.0 + np.abs(model.rhs)))
        assert 1 <= sol.rows_solved <= model.num_rows
        return sol

    def test_pic_model(self, pic_model, backend):
        sol = self._assert_matches_full_solve(backend, pic_model)
        # the loop ran: more than one round, over a fraction of the rows
        assert sol.rounds > 1
        assert sol.rows_solved < pic_model.num_rows

    def test_warm_rounds_take_fewer_iterations_than_cold_rounds(self, pic_model, backend):
        sol = backend.solve(pic_model)
        assert sol.rounds > 1
        assert 1 <= sol.iterations < _cold_round_iterations(backend, pic_model)

    def test_failed_warm_round_is_solved_again_cold(self, pic_model, backend, monkeypatch):
        # a warm round that ends numeric is re-run cold on the same rows, not
        # sent to the all-rows fallback
        rows = []
        highs_run = alp._highs_run

        def fail_second_run(highs, b_ub):
            rows.append(highs.getNumRow())
            status, y, fun, nit = highs_run(highs, b_ub)
            return ("numeric", None, None, nit) if len(rows) == 2 else (status, y, fun, nit)

        monkeypatch.setattr(alp, "_highs_run", fail_second_run)
        sol = self._assert_matches_full_solve(backend, pic_model)
        assert rows[1] == rows[2] > rows[0]
        assert sol.rows_solved < pic_model.num_rows

    def test_zero_column(self, toy_mdp, toy_nu_samples, backend):
        # an all-zero column stays nonbasic, so the final basis is not a vertex
        prepared = prepare_plan(toy_mdp, uniform_plan(toy_mdp, 2000, split_rng(7, 21)))
        falp = build_falp(prepared, sample_fourier(5, 1, (0.2, 1.0), seed=7), toy_nu_samples)
        model = LpModel(
            objective=np.insert(falp.objective, 3, 0.0),
            rows=np.insert(falp.rows, 3, 0.0, axis=1),
            rhs=falp.rhs,
        )
        sol = self._assert_matches_full_solve(backend, model)
        assert sol.rounds > 1

    def test_toy_grid(self, toy_grid_prepared, toy_nu_samples, backend):
        model = build_falp(toy_grid_prepared, sample_fourier(5, 1, (0.2, 1.0), seed=2), toy_nu_samples)
        assert model.num_rows == 101101
        self._assert_matches_full_solve(backend, model)

    def test_fglp_with_guide_rows(self, toy_mdp, toy_nu_samples, backend):
        prepared = prepare_plan(toy_mdp, uniform_plan(toy_mdp, 3000, split_rng(4, 21)))
        bases = sample_fourier(6, 1, (0.2, 1.0), seed=4)
        prev, _ = solve(build_falp(prepared, bases.prefix(3), toy_nu_samples), backend)
        model = build_fglp(prepared, bases, toy_nu_samples, prev)
        assert model.num_rows - prepared.plan.num_pairs == 3000  # guide rows follow the Bellman rows
        self._assert_matches_full_solve(backend, model)

    def test_binding_box(self, toy_mdp, toy_nu_samples):
        boxed = ScipyBackend(var_bound=0.05)
        prepared = prepare_plan(toy_mdp, uniform_plan(toy_mdp, 2000, split_rng(5, 21)))
        model = build_falp(prepared, sample_fourier(5, 1, (0.2, 1.0), seed=5), toy_nu_samples)
        sol = self._assert_matches_full_solve(boxed, model)
        assert np.max(np.abs(sol.x)) == pytest.approx(0.05, rel=1e-9)  # the box binds
        assert np.max(np.abs(sol.x)) <= 0.05 * (1.0 + 1e-6)

    def test_small_model_is_one_call_with_the_same_bits(self, toy_mdp, toy_nu_samples, backend):
        prepared = prepare_plan(toy_mdp, uniform_plan(toy_mdp, ROWGEN_START, split_rng(6, 21)))
        model = build_falp(prepared, sample_fourier(5, 1, (0.2, 1.0), seed=6), toy_nu_samples)
        sol = backend.solve(model)
        x, ref = _full_solve(backend, model)
        assert (sol.rounds, sol.rows_solved) == (1, ROWGEN_START)
        assert np.array_equal(sol.x, x) and sol.objective == ref

    def test_unbounded_start_falls_back_to_all_rows(self, backend):
        # the start rows bound x1 only; x2 <= 1 sits in rows outside the start set
        n = 1000
        start = np.linspace(0, n - 1, ROWGEN_START).astype(int)
        rows = np.tile([0.0, 1.0], (n, 1))
        rows[start] = [1.0, 0.0]
        model = LpModel(objective=[1.0, 1.0], rows=rows, rhs=np.ones(n))
        sol = backend.solve(model)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(2.0, abs=1e-9)
        assert sol.objective == pytest.approx(_full_solve(backend, model)[1], abs=1e-12)
        assert sol.rows_solved == n

    def test_infeasible_model(self, backend):
        # x1 <= 0 on the start rows; -x1 <= -1 (x1 >= 1) on the rows the first solution violates
        n = 400
        start = np.linspace(0, n - 1, ROWGEN_START).astype(int)
        rows = np.tile([-1.0, 0.0], (n, 1))
        rhs = np.full(n, -1.0)
        rows[start], rhs[start] = [1.0, 0.0], 0.0
        rows[:, 1] = np.linspace(-1.0, 1.0, n)  # keeps x2 bounded and the columns independent
        model = LpModel(objective=[1.0, 0.0], rows=rows, rhs=rhs)
        sol = backend.solve(model)
        assert sol.status == "infeasible" and sol.rounds > 1

    def test_deterministic(self, pic_model, backend):
        a, b = backend.solve(pic_model), backend.solve(pic_model)
        assert np.array_equal(a.x, b.x) and a.objective == b.objective
        assert (a.rounds, a.rows_solved) == (b.rounds, b.rows_solved)


class TestVfaValue:
    def test_zero_betas(self):
        bases = fixed_fourier([2.0])
        assert vfa_values(bases, VfaWeights(beta0=7.0, betas=[0.0]), np.array([[0.3]]))[0] == 7.0

    def test_single_flat_basis(self):
        bases = fixed_fourier([0.0])
        assert vfa_values(bases, VfaWeights(beta0=0.0, betas=[3.0]), np.array([[0.7]]))[0] == pytest.approx(3.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            vfa_values(fixed_fourier([2.0, 3.0]), VfaWeights(0.0, [1.0]), np.array([[0.5]]))

    def test_argmin_matches_reference_location(self, toy_grid_prepared, toy_nu_samples, backend):
        bases = fixed_fourier([2.0, -5.0])
        w, _ = solve(build_falp(toy_grid_prepared, bases, toy_nu_samples), backend)
        vals = vfa_values(bases, w, TOY_STATES)
        argmin = TOY_STATES[np.argmin(vals), 0]
        assert abs(argmin - 0.513) <= 0.01  # reference minimizer 0.513


class TestProperties:
    def test_pointwise_lower_bound(self, toy_grid_prepared, toy_nu_samples, backend):
        vstar = toy.optimal_value(TOY_STATES)
        for seed in range(3):
            bases = sample_fourier(5, 1, (0.2, 1.0), seed=seed)
            w, _ = solve(build_falp(toy_grid_prepared, bases, toy_nu_samples), backend)
            assert np.max(vfa_values(bases, w, TOY_STATES) - vstar) <= 1e-6

    def test_nested_monotonicity_in_nu_norm(self, toy_grid_prepared, toy_nu_samples, backend):
        # nu = chi: || V* - V ||_{1,nu} = E_nu[V*] - E_nu[V] shrinks as bases are added
        vstar = toy.optimal_value(TOY_STATES)
        base = sample_fourier(2, 1, (0.2, 1.0), seed=5)
        bigger = sample_fourier(5, 1, (0.2, 1.0), seed=5)
        err = {}
        for bs in (base, bigger):
            w, _ = solve(build_falp(toy_grid_prepared, bs, toy_nu_samples), backend)
            gap = np.abs(vstar - vfa_values(bs, w, TOY_STATES))
            err[len(bs)] = gap.mean()
        assert err[5] <= err[2] + 1e-6

    def test_fglp_without_prev_equals_falp(self, toy_grid_prepared, toy_nu_samples):
        bases = fixed_fourier([2.0, -5.0])
        falp = build_falp(toy_grid_prepared, bases, toy_nu_samples)
        fglp = build_fglp(toy_grid_prepared, bases, toy_nu_samples, prev=None)
        assert np.array_equal(falp.rows, fglp.rows)
        assert np.array_equal(falp.rhs, fglp.rhs)

    def test_fglp_zero_prev_guide_rows(self, toy_mdp, toy_nu_samples):
        plan = grid_plan(np.array([[0.2], [0.8]]), np.array([[0.5]]))
        bases = fixed_fourier([2.0])
        prev = VfaWeights.zero(1)
        model = build_fglp(prepare_plan(toy_mdp, plan), bases, toy_nu_samples, prev)
        # guide rows follow the Bellman rows
        guide = range(plan.num_pairs, model.num_rows)
        assert len(guide) == 2
        from ralp.bases import features

        phi = features(bases, plan.guide_states)
        for row_idx, g in enumerate(guide):
            assert np.allclose(model.rows[g], -np.concatenate([[1.0], phi[row_idx]]))
            # V(s) >= 0 up to the documented guide slack
            assert model.rhs[g] == pytest.approx(GUIDE_TOL, abs=1e-18)

    def test_fglp_prev_longer_than_bases_rejected(self, toy_grid_prepared, toy_nu_samples):
        prev = VfaWeights(beta0=0.0, betas=np.zeros(3))
        with pytest.raises(ValueError):
            build_fglp(toy_grid_prepared, fixed_fourier([2.0]), toy_nu_samples, prev)

    def test_lb_expectation_shared_samples(self, toy_nu_samples):
        bases = fixed_fourier([2.0])
        w = VfaWeights(beta0=1.0, betas=[0.5])
        direct = 1.0 + 0.5 * np.cos(2.0 * toy_nu_samples[:, 0]).mean()
        assert lb_expectation(bases, w, toy_nu_samples) == pytest.approx(direct, abs=1e-12)


class TestPlans:
    def test_uniform_plan_within_boxes(self, toy_mdp):
        plan = uniform_plan(toy_mdp, 500, split_rng(1, 21))
        assert plan.num_pairs == 500
        assert np.all(plan.states >= 0.0) and np.all(plan.states <= 1.0)
        assert np.all(plan.actions >= 0.0) and np.all(plan.actions <= 1.0)
        # guide states are the distinct sampled states
        assert len(plan.guide_states) == len(np.unique(plan.states, axis=0))

    def test_uniform_plan_deterministic(self, toy_mdp):
        a = uniform_plan(toy_mdp, 100, split_rng(3, 21))
        b = uniform_plan(toy_mdp, 100, split_rng(3, 21))
        assert np.array_equal(a.states, b.states) and np.array_equal(a.actions, b.actions)



class TestHighsBinding:
    @staticmethod
    def _block():
        # exact zeros (both signs), an all-zero column and an all-zero row
        rng = np.random.default_rng(11)
        a = rng.normal(size=(40, 7))
        a[rng.random(a.shape) < 0.3] = 0.0
        a[rng.random(a.shape) < 0.05] = -0.0
        a[:, 2] = 0.0
        a[5] = 0.0
        return a

    def test_model_matrix_is_the_csc_arrays(self):
        a = self._block()
        matrix = alp._highs_model(np.ones(a.shape[1]), a, np.ones(len(a))).getLp().a_matrix_
        ref = csc_array(a)
        assert matrix.format_ == alp._highs.MatrixFormat.kColwise
        assert np.array_equal(matrix.start_, ref.indptr)
        assert np.array_equal(matrix.index_, ref.indices)
        assert np.array_equal(matrix.value_, ref.data)

    def test_added_rows_are_the_csr_arrays(self):
        class Recorder:
            def addRows(self, *args):
                self.args = args

        a, b = self._block(), np.arange(40.0)
        highs = Recorder()
        alp._highs_add_rows(highs, a, b)
        num_row, lower, upper, nnz, start, index, value = highs.args
        ref = csr_array(a)
        assert (num_row, nnz) == (40, ref.nnz)
        assert np.array_equal(lower, np.full(40, -np.inf)) and upper is b
        assert np.array_equal(start, ref.indptr[:-1]) and start.dtype == np.int32
        assert np.array_equal(index, ref.indices) and index.dtype == np.int32
        assert np.array_equal(value, ref.data)


# the methods of scipy's private HiGHS binding that alp calls on a model
_HIGHS_METHODS = {"passModel", "addRows", "run", "clearSolver", "getBasis", "getSolution", "getInfo",
                  "getModelStatus", "setOptionValue"}


def test_private_highs_binding_has_what_alp_uses():
    # alp drives scipy's private _highspy._core directly; a scipy release that
    # drops or renames a method fails here instead of in the middle of a solve
    source = Path(alp.__file__).read_text()
    assert set(re.findall(r"\bhighs\.(\w+)\(", source)) == _HIGHS_METHODS
    assert [m for m in sorted(_HIGHS_METHODS) if not callable(getattr(alp._highs._Highs, m, None))] == []
    # the binding's types and enums that alp reads
    names = set(re.findall(r"\b_highs\.(\w+)", source))
    assert {"HighsLp", "MatrixFormat", "HighsModelStatus", "HighsBasisStatus", "_Highs"} <= names
    assert [n for n in sorted(names) if not hasattr(alp._highs, n)] == []


_SAME_BINDING = """
import sys
import numpy as np
{first}
{second}
from scipy.optimize import linprog
from ralp.alp import HIGHS_TOL, LpModel, ScipyBackend, _highs, _preconditioner
assert sys.modules["scipy.optimize._highspy._core"] is _highs
rng = np.random.default_rng(3)
model = LpModel(objective=rng.normal(size=6), rows=rng.normal(size=(300, 6)),
                rhs=1.0 + rng.random(300))
backend = ScipyBackend()
sol = backend.solve(model)
m = _preconditioner(model.rows)
res = linprog(c=-(m.T @ model.objective), A_ub=model.rows @ m, b_ub=model.rhs,
              bounds=[(None, None)] * 6, method="highs",
              options={{"primal_feasibility_tolerance": HIGHS_TOL, "dual_feasibility_tolerance": HIGHS_TOL}})
assert sol.status == "optimal" and res.status == 0
assert np.array_equal(sol.x, m @ res.x) and sol.objective == -res.fun
"""


_LOAD_FAILS = """
import importlib.util, sys
from pathlib import Path
from ralp.alp import load_extension
folder = Path(importlib.util.find_spec("scipy").submodule_search_locations[0]) / "special"
try:
    load_extension("scipy.special._no_such_module")
except ImportError as e:
    assert str(folder) in str(e), e
else:
    raise AssertionError("no ImportError for a missing file")
# a sibling that cannot be imported makes _ufuncs fail while it initializes
sys.modules["scipy.special._ufuncs_cxx"] = None
try:
    load_extension("scipy.special._ufuncs")
except ImportError:
    pass
else:
    raise AssertionError("no ImportError for a failed initialization")
assert "scipy.special" not in sys.modules and "scipy.special._ufuncs" not in sys.modules
del sys.modules["scipy.special._ufuncs_cxx"]
ufuncs = load_extension("scipy.special._ufuncs")
assert "scipy.special" not in sys.modules
import scipy.special
assert scipy.special.ndtr is ufuncs.ndtr
"""


def test_load_extension_failure_leaves_no_stand_in():
    # a missing file names the folder searched; a failed load leaves neither
    # the stand-in parent package nor the half-loaded module registered
    src = str(Path(alp.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-c", _LOAD_FAILS], env=env, check=True)


@pytest.mark.parametrize("first, second", [("import ralp.alp", "import scipy.optimize"),
                                           ("import scipy.optimize", "import ralp.alp")])
def test_scipy_optimize_shares_the_loaded_binding(first, second):
    # ralp loads the HiGHS extension by file path; importing scipy.optimize
    # before or after must give one module object and the same solutions
    src = str(Path(alp.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = _SAME_BINDING.format(first=first, second=second)
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
