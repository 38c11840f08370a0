import numpy as np
import pytest

from ralp import toy
from ralp.alp import (
    ConstraintSamplePlan,
    GUIDE_TOL,
    LpModel,
    ScipyBackend,
    SolverError,
    VfaWeights,
    build_falp,
    build_fglp,
    grid_plan,
    lb_expectation,
    lp_from_text,
    lp_to_text,
    nu_sample_set,
    prepare_plan,
    solve,
    uniform_plan,
    vfa_values,
)
from ralp.bases import fixed_fourier, sample_fourier
from ralp.mdp import split_rng
from tests.conftest import TOY_ACTIONS, TOY_STATES


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
        model = LpModel(objective=[1.0], rows=[[1.0]], rhs=[1.0], tags=("standard",))
        w, val = solve(model, backend)
        assert val == pytest.approx(1.0, abs=1e-9)
        assert w.beta0 == pytest.approx(1.0, abs=1e-9)

    def test_unbounded_raises_typed(self, backend):
        model = LpModel(objective=[1.0, 0.0], rows=np.zeros((0, 2)), rhs=[], tags=())
        with pytest.raises(SolverError) as err:
            solve(model, backend)
        assert err.value.status == "unbounded"

    def test_infeasible_raises_typed(self, backend):
        model = LpModel(
            objective=[1.0],
            rows=[[1.0], [-1.0]],
            rhs=[0.0, -1.0],  # x <= 0 and x >= 1
            tags=("standard", "standard"),
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
        bigger = base.extend(3)
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
        assert falp.tags == fglp.tags

    def test_fglp_zero_prev_guide_rows(self, toy_mdp, toy_nu_samples):
        plan = grid_plan(np.array([[0.2], [0.8]]), np.array([[0.5]]))
        bases = fixed_fourier([2.0])
        prev = VfaWeights.zero(1)
        model = build_fglp(prepare_plan(toy_mdp, plan), bases, toy_nu_samples, prev)
        guide = [i for i, t in enumerate(model.tags) if t == "self-guiding"]
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


class TestTextFormat:
    def test_round_trip_exact(self, toy_mdp, toy_nu_samples):
        plan = grid_plan(np.array([[0.0], [0.5]]), np.array([[0.25]]))
        model = build_fglp(prepare_plan(toy_mdp, plan), fixed_fourier([2.0]), toy_nu_samples, VfaWeights.zero(1))
        again = lp_from_text(lp_to_text(model))
        assert np.array_equal(model.objective, again.objective)
        assert np.array_equal(model.rows, again.rows)
        assert np.array_equal(model.rhs, again.rhs)
        assert model.tags == again.tags

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError):
            lp_from_text("nonsense 2\nvars 1\nmaximize 1.0\n")
