from dataclasses import replace

import numpy as np
import pytest

from scipy.optimize import linprog

from ralp import alp, gjr
from ralp.alp import LpModel, ScipyBackend
from ralp.bases import DEFAULT_STUMP_EPS, empty_stumps, features, sample_fourier, sample_stumps
from ralp.mdp import InfeasiblePairError, split_rng
from tests.conftest import reference_feasible, reference_gjr_step, reference_k_step_greedy


def _symmetric_params(**overrides):
    base = dict(
        usage_rates=np.array([1.0, 1.0]),
        s_bar=np.array([5.0, 5.0]),
        a_bar=5.0,
        fixed_cost=100.0,
        item_fixed_costs=np.array([0.0, 0.0]),
    )
    base.update(overrides)
    return gjr.GjrParams(**base)


@pytest.fixture(scope="module")
def desk_instance():
    # the J=2 constant-cap instance used throughout the validity checks
    return gjr.gjr_instance(2, "constant", 100, split_rng(42, 1), usage_rates=(1.0, 1.0))


@pytest.fixture(scope="module")
def desk_solution(desk_instance):
    sigma = float(split_rng(42, 41).uniform(1.0, desk_instance.s_bar.max()))
    bases = sample_stumps(10, 2, sigma, seed=42)
    init = gjr.sample_gjr_pairs(desk_instance, 150, split_rng(42, 2))
    result = gjr.constraint_generation(desk_instance, bases, *init, ScipyBackend(), seed=42)
    return bases, result


def _lookahead(p, bases, sol, k):
    """The K-step greedy policy of ``sol``, a function of one state."""
    return lambda s: gjr.k_step_greedy(p, bases, sol, s, k)


class TestInstanceGeneration:
    def test_constant_scheme_equal_caps(self):
        p = gjr.gjr_instance(2, "constant", 100, split_rng(5, 1))
        assert p.s_bar[0] == p.s_bar[1]

    def test_z_100_uses_total_storage(self):
        p = gjr.gjr_instance(4, "random", 100, split_rng(6, 1))
        assert p.a_bar == pytest.approx(p.s_bar.sum())

    def test_z_partial_sums_smallest(self):
        p = gjr.gjr_instance(8, "discrete", 75, split_rng(7, 1))
        assert p.a_bar == pytest.approx(np.sort(p.s_bar)[:6].sum())

    def test_discrete_scheme_hand_case(self):
        p = gjr.gjr_instance(
            2, "discrete", 100, split_rng(8, 1), alpha=(2.0, 4.0), u=(0.5, 0.5), usage_rates=(1.0, 1.0)
        )
        assert np.allclose(p.s_bar, [4.0, 8.0])

    def test_random_scheme_formula(self):
        p = gjr.gjr_instance(3, "random", 100, split_rng(9, 1), u=(0.1, 0.5, 0.9), usage_rates=(2.0, 4.0, 1.0))
        assert np.allclose(p.s_bar, [10 * 2 * 0.1 + 2, 10 * 4 * 0.5 + 4, 10 * 1 * 0.9 + 1])

    def test_shared_cost_settings(self):
        p = gjr.gjr_instance(4, "constant", 100, split_rng(10, 1))
        assert p.fixed_cost == 100.0
        assert np.all((p.item_fixed_costs >= 0.0) & (p.item_fixed_costs <= 60.0))

    def test_frozen_fields_copy_the_callers_arrays(self):
        # the fields are read-only; the arrays they were built from stay the caller's
        rates, caps, costs = np.array([2.0, 3.0]), np.array([5.0, 6.0]), np.array([1.0, 4.0])
        p = gjr.gjr_instance(2, "constant", 100, split_rng(5, 1), usage_rates=rates)
        q = gjr.GjrParams(usage_rates=rates, s_bar=caps, a_bar=5.0, fixed_cost=100.0, item_fixed_costs=costs)
        beta1, beta2 = np.array([1.0, 2.0]), np.array([0.5])
        sol = gjr.BiasApprox(eta_hat=0.0, beta1=beta1, beta2=beta2)
        for arr in (rates, caps, costs, beta1, beta2):
            assert arr.flags.writeable
            arr[0] = -7.0
        assert p.usage_rates[0] == q.usage_rates[0] == 2.0 and q.s_bar[0] == 5.0 and q.item_fixed_costs[0] == 1.0
        assert sol.beta1[0] == 1.0 and sol.beta2[0] == 0.5
        for arr in (p.usage_rates, q.s_bar, q.item_fixed_costs, sol.beta1, sol.beta2):
            assert not arr.flags.writeable

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError):
            gjr.gjr_instance(2, "exotic", 100, split_rng(0, 1))
        with pytest.raises(ValueError):
            gjr.gjr_instance(2, "constant", 55, split_rng(0, 1))


class TestDynamics:
    def test_step_example(self):
        p = _symmetric_params()
        t, nxt, _ = gjr.gjr_step(p, [0.0, 2.0], [3.0, 0.0])
        assert t == 2.0
        assert np.array_equal(nxt, [1.0, 0.0])

    def test_step_symmetric(self):
        p = _symmetric_params()
        t, nxt, _ = gjr.gjr_step(p, [0.0, 0.0], [1.0, 1.0])
        assert t == 1.0
        assert np.array_equal(nxt, [0.0, 0.0])

    def test_capacity_violation_rejected(self):
        p = _symmetric_params()
        assert not gjr.feasible(p, [0.0, 2.0], [4.0, 3.0])

    def test_next_state_touches_zero(self):
        p = gjr.gjr_instance(3, "random", 100, split_rng(11, 1))
        rng = split_rng(12, 1)
        _, nxt, _ = gjr.gjr_step(p, *gjr.sample_gjr_pairs(p, 100, rng))
        assert np.all(np.abs(nxt.min(axis=-1)) <= 1e-9)

    def test_cost_pure_fixed(self):
        p = _symmetric_params(item_fixed_costs=np.array([7.0, 9.0]))
        assert gjr.gjr_step(p, [0.0, 1.0], [2.0, 0.0])[2] == 107.0
        assert gjr.gjr_step(p, [0.0, 1.0], [2.0, 1.0])[2] == 116.0

    def test_cost_zero_action_rejected(self):
        p = _symmetric_params()
        assert not gjr.feasible(p, [0.0, 0.0], [0.0, 0.0])

    def test_broadcast_matches_row_by_row(self):
        p = gjr.GjrParams(
            usage_rates=np.array([2.0, 1.0, 0.5]),
            s_bar=np.array([4.0, 5.0, 3.0]),
            a_bar=6.0,
            fixed_cost=100.0,
            item_fixed_costs=np.array([7.0, 11.0, 13.0]),
        )
        rng = split_rng(19, 1)
        states = rng.uniform(0.0, 1.0, (3, 4, 3)) * p.s_bar
        states[..., 0] = 0.0
        actions = rng.uniform(-0.2, 1.0, (3, 4, 3)) * (p.s_bar - states)
        time, nxt, cost = gjr.gjr_step(p, states, actions)
        ok = gjr.feasible(p, states, actions)
        assert time.shape == cost.shape == ok.shape == (3, 4) and nxt.shape == (3, 4, 3)
        assert ok.any() and not ok.all()
        for i in range(3):
            for k in range(4):
                t1, n1, c1 = gjr.gjr_step(p, states[i, k], actions[i, k])
                assert t1 == time[i, k] and c1 == cost[i, k]
                assert np.array_equal(n1, nxt[i, k])
                assert gjr.feasible(p, states[i, k], actions[i, k]) == ok[i, k]
        # a negative component is rejected although s + a stays positive and
        # under the caps and the total fits the capacity
        s = np.array([0.0, 2.0, 2.0])
        assert gjr.feasible(p, s, [1.0, 0.5, 0.0])
        assert not gjr.feasible(p, s, [1.0, -0.5, 0.0])


def _kernel_instance(j):
    """A J-item instance with uneven rates, caps and item fixed costs."""
    rng = split_rng(30 + j, 1)
    s_bar = rng.uniform(2.0, 6.0, j)
    return gjr.GjrParams(
        usage_rates=rng.uniform(0.3, 4.0, j),
        s_bar=s_bar,
        a_bar=float(0.6 * s_bar.sum()),
        fixed_cost=100.0,
        item_fixed_costs=rng.uniform(0.0, 60.0, j),
    )


def _assert_kernels_match(p, states, actions):
    got, want = gjr.feasible(p, states, actions), reference_feasible(p, states, actions)
    assert np.shape(got) == np.shape(want) and np.array_equal(got, want)
    for got, want in zip(gjr.gjr_step(p, states, actions), reference_gjr_step(p, states, actions)):
        assert np.shape(got) == np.shape(want) and np.array_equal(got, want)


class TestKernelColumns:
    """The column-by-column kernels equal their axis-reduction references bit for bit."""

    @pytest.mark.parametrize("j", [2, 3, 4, 5])
    def test_random_pairs(self, j):
        p = _kernel_instance(j)
        rng = split_rng(40 + j, 1)
        n, g = 300, 7
        states = rng.uniform(0.0, 1.0, (n, j)) * p.s_bar
        states[np.arange(n), rng.integers(j, size=n)] = 0.0  # one stocked-out item per state
        actions = rng.uniform(-0.05, 0.7, (n, j)) * p.s_bar
        ok = gjr.feasible(p, states, actions)
        assert 0 < ok.sum() < n
        _assert_kernels_match(p, states, actions)
        _assert_kernels_match(p, states[0], actions[0])
        # one state against a grid of actions, as the lookahead calls feasible
        _assert_kernels_match(p, states[:, None, :], rng.uniform(-0.05, 0.7, (n, g, j)) * p.s_bar)

    @pytest.mark.parametrize("j", [2, 3, 4, 5])
    def test_boundary_pairs(self, j):
        p = gjr.GjrParams(
            usage_rates=np.linspace(0.5, 2.0, j),
            s_bar=np.full(j, 4.0),
            a_bar=3.0,
            fixed_cost=100.0,
            item_fixed_costs=np.arange(1.0, j + 1.0),
        )
        tol = gjr.FEAS_TOL
        # (levels, orders) of the first two items; the others hold 1 and order nothing
        cases = [
            ([0.0, 1.0], [1.0, 2.0], True),  # action sum exactly a_bar
            ([0.0, 1.0], [1.0, 2.0 + 2 * tol], False),  # sum above a_bar + tol
            ([0.0, 2.5], [1.0, 1.5], True),  # post level exactly s_bar
            ([0.0, 2.5], [1.0, 1.5 + 2 * tol], False),  # post level above s_bar + tol
            ([0.0, 1.0], [0.0, 0.0], False),  # zero action
            ([0.0, 1.0], [tol, 1.0], False),  # post == FEAS_TOL: item 0 stays stocked out
            ([0.0, 1.0], [2.0, -tol], True),  # an order of exactly -FEAS_TOL
            ([0.0, 1.0], [1.0, 0.0], True),
        ]
        states, actions = np.ones((len(cases), j)), np.zeros((len(cases), j))
        for row, (s, a, _) in enumerate(cases):
            states[row, :2], actions[row, :2] = s, a
        _assert_kernels_match(p, states, actions)
        assert gjr.feasible(p, states, actions).tolist() == [ok for _, _, ok in cases]

    def test_capacity_total_is_summed_left_to_right(self):
        # left to right these orders sum to a_bar + FEAS_TOL exactly; summed
        # pairwise, (a0 + a1) + (a2 + a3), they land one ulp above it
        p = replace(_kernel_instance(4), s_bar=np.full(4, 4.0), a_bar=3.0)
        a = np.array([0.19876119760602706, 0.2829173896786569, 0.355425840049718, 2.1628955736655984])
        assert (a[0] + a[1]) + (a[2] + a[3]) > p.a_bar + gjr.FEAS_TOL
        s = np.array([0.0, 1.0, 1.0, 1.0])
        assert gjr.feasible(p, s, a) and reference_feasible(p, s, a)

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_lookahead_desk_instance(self, desk_instance, desk_solution, k):
        bases, result = desk_solution
        search = gjr.SearchPlan()
        for s in gjr.sample_gjr_states(desk_instance, 4, split_rng(44, 1)):
            got = gjr.k_step_greedy(desk_instance, bases, result.solution, s, k, search)
            want = reference_k_step_greedy(desk_instance, bases, result.solution, s, k, search)
            assert np.array_equal(got, want)

    def test_lookahead_three_items(self):
        p = gjr.gjr_instance(3, "random", 67, split_rng(2, 1))
        bases = sample_stumps(6, 3, float(p.s_bar.max()), seed=45)
        rng = split_rng(45, 1)
        sol = gjr.BiasApprox(
            eta_hat=40.0, beta1=rng.normal(0.0, 10.0, 3), beta2=rng.normal(0.0, 30.0, 6)
        )
        search = gjr.SearchPlan(beam_width=64, action_grid=9)
        for s in gjr.sample_gjr_states(p, 3, rng):
            for k in (1, 3):
                got = gjr.k_step_greedy(p, bases, sol, s, k, search)
                assert np.array_equal(got, reference_k_step_greedy(p, bases, sol, s, k, search))


class TestAverageCostLp:
    def test_affine_model_shape(self, desk_instance):
        states, actions = gjr.sample_gjr_pairs(desk_instance, 25, split_rng(13, 1))
        assert states.shape == actions.shape == (25, 2)
        model = gjr.build_avg_alp(desk_instance, empty_stumps(2), states, actions)
        assert model.num_vars == 1 + 2  # eta_hat, beta1 per item
        assert model.num_rows == 25
        assert np.array_equal(model.rows[:, 1:], actions)

    def test_one_pair_lp_solves_to_cost_over_time(self):
        p = _symmetric_params()
        pair = (np.array([[0.0, 2.0]]), np.array([[3.0, 1.0]]))
        model = gjr.build_avg_alp(p, empty_stumps(2), *pair)
        pin = np.zeros((4, model.num_vars))
        pin[0, 1], pin[1, 1], pin[2, 2], pin[3, 2] = 1.0, -1.0, 1.0, -1.0
        pinned = LpModel(
            objective=model.objective,
            rows=np.vstack([model.rows, pin]),
            rhs=np.concatenate([model.rhs, np.zeros(4)]),
        )
        sol = ScipyBackend().solve(pinned)
        t, _, cost = gjr.gjr_step(p, *pair)
        assert sol.objective == pytest.approx(cost[0] / t[0], abs=1e-8)

    def test_guide_rows_counted(self, desk_instance, desk_solution):
        bases, result = desk_solution
        states, actions = gjr.sample_gjr_pairs(desk_instance, 30, split_rng(14, 1))
        guides = gjr.sample_gjr_states(desk_instance, 12, split_rng(15, 1))
        model = gjr.build_avg_alp(
            desk_instance, bases, states, actions, prev=result.solution, guide_states=guides
        )
        assert model.num_rows == 30 + 12
        assert model.num_vars == 1 + 2 + len(bases)
        # guide rows follow the Bellman rows: beta1 . s + beta2 . (phi(s) - phi(0)) <= -u_prev(s)
        assert np.all(model.rows[30:, 0] == 0.0)
        assert np.array_equal(model.rows[30:, 1:3], guides)
        assert np.array_equal(model.rows[30:, 3:], features(bases, guides) - features(bases, np.zeros(2)))
        assert np.array_equal(model.rhs[30:], -result.solution.bias(bases, guides))
        # the bias is anchored at u(0) = 0, and a stump whose band lies below
        # zero is constant on the state box, so its column is zero in every row
        assert np.array_equal(result.solution.bias(bases, np.zeros(2)), [0.0])
        constant = bases.omega + DEFAULT_STUMP_EPS < 0.0
        assert 0 < constant.sum() < len(bases)
        assert np.all(model.rows[:, 3:][:, constant] == 0.0)
        assert np.all(np.any(model.rows[30:, 3:][:, ~constant] != 0.0, axis=0))

    def test_empty_pairs_rejected(self, desk_instance):
        with pytest.raises(ValueError):
            gjr.build_avg_alp(desk_instance, empty_stumps(2), np.empty((0, 2)), np.empty((0, 2)))

    def test_guide_rows_hold_at_solved_point(self, desk_instance, desk_solution):
        bases, result = desk_solution
        states, actions = gjr.sample_gjr_pairs(desk_instance, 60, split_rng(17, 1))
        guides = gjr.sample_gjr_states(desk_instance, 40, split_rng(18, 1))
        guided = gjr.constraint_generation(
            desk_instance, bases, states, actions, ScipyBackend(),
            prev=result.solution, guide_states=guides, seed=3,
        )
        # both biases are anchored at u(0) = 0, so each guide row is this
        # difference itself, and nothing but the weights can satisfy it
        new_bias = guided.solution.bias(bases, guides)
        old_bias = result.solution.bias(bases, guides)
        assert np.min(new_bias - old_bias) >= -1e-7


class TestSeparation:
    def test_zero_solution_feasible(self, desk_instance):
        zero = gjr.BiasApprox(eta_hat=0.0, beta1=np.zeros(2), beta2=np.zeros(0))
        res = gjr.separate(desk_instance, empty_stumps(2), zero)
        assert res.status == "feasible"
        assert res.slack > 0.0  # every slack equals c(s,a) > 0

    def test_reported_slack_matches_direct_evaluation(self, desk_instance, desk_solution):
        bases, result = desk_solution
        res = gjr.separate(desk_instance, bases, result.solution)
        direct = gjr.constraint_slack(
            desk_instance, bases, result.solution, res.state[None, :], res.action[None, :]
        )[0]
        assert res.slack == pytest.approx(direct, abs=1e-9)

    def test_beats_bruteforce_grid_oracle_mid_loop(self, desk_instance):
        # un-converged solution: solve on the initial pairs only, then separate
        sigma = float(split_rng(42, 41).uniform(1.0, desk_instance.s_bar.max()))
        bases = sample_stumps(10, 2, sigma, seed=42)
        pairs = gjr.sample_gjr_pairs(desk_instance, 150, split_rng(42, 2))
        model = gjr.build_avg_alp(desk_instance, bases, *pairs)
        lp = ScipyBackend().solve(model)
        sol = gjr.BiasApprox(eta_hat=lp.x[0], beta1=lp.x[1:3], beta2=lp.x[3:])
        found = gjr.separate(desk_instance, bases, sol)
        oracle = _grid_oracle(desk_instance, bases, sol, 50)
        assert found.slack <= oracle + 1e-6

    def test_after_convergence_feasible(self, desk_instance, desk_solution):
        bases, result = desk_solution
        assert gjr.separate(desk_instance, bases, result.solution).status == "feasible"

    def test_non_stump_bases_rejected(self, desk_instance):
        # the line search breaks at stump kinks
        bases = sample_fourier(3, 2, (1.0, 2.0), seed=0)
        sol = gjr.BiasApprox(eta_hat=0.0, beta1=np.zeros(2), beta2=np.zeros(3))
        with pytest.raises(ValueError, match="stump"):
            gjr.separate(desk_instance, bases, sol)

    @pytest.mark.parametrize("stumps", [True, False], ids=["stumps", "affine"])
    def test_grid_slack_matches_constraint_slack(self, desk_instance, desk_solution, stumps):
        bases, result = desk_solution
        sol = result.solution
        if not stumps:
            bases = empty_stumps(2)
            sol = gjr.BiasApprox(eta_hat=sol.eta_hat, beta1=sol.beta1, beta2=np.zeros(0))
        grid = gjr.separation_grid(desk_instance, bases, gjr.SearchPlan(grid_per_dim=25))
        assert [b.face for b in grid] == [0, 0, 1, 1]
        for b in grid:
            assert gjr.feasible(desk_instance, b.states, b.actions).all()
            direct = gjr.constraint_slack(desk_instance, bases, sol, b.states, b.actions)
            assert np.array_equal(gjr._slack(sol, b.times, b.costs, b.actions, b.dphi), direct)

    def test_prebuilt_grid_matches_fresh_build(self, desk_instance, desk_solution):
        bases, result = desk_solution
        pairs = gjr.sample_gjr_pairs(desk_instance, 150, split_rng(42, 2))
        lp = ScipyBackend().solve(gjr.build_avg_alp(desk_instance, bases, *pairs))
        zero = gjr.BiasApprox(eta_hat=0.0, beta1=np.zeros(2), beta2=np.zeros(len(bases)))
        # one grid for all three solutions, as in a cut loop
        grid = gjr.separation_grid(desk_instance, bases)
        for sol in (zero, gjr._unpack(desk_instance, lp.x), result.solution):
            fresh = gjr.separate(desk_instance, bases, sol)
            cached = gjr.separate(desk_instance, bases, sol, grid=grid)
            assert np.array_equal(cached.state, fresh.state)
            assert np.array_equal(cached.action, fresh.action)
            assert (cached.slack, cached.status) == (fresh.slack, fresh.status)

    def test_no_feasible_grid_point_raises(self):
        p = _symmetric_params(a_bar=0.0)  # no capacity: no action replenishes anything
        zero = gjr.BiasApprox(eta_hat=0.0, beta1=np.zeros(2), beta2=np.zeros(0))
        with pytest.raises(ValueError, match="feasible grid point"):
            gjr.separate(p, empty_stumps(2), zero)


def _line_instance(name):
    if name == "constant":  # unit usage rates
        return gjr.gjr_instance(2, "constant", 100, split_rng(42, 1), usage_rates=(1.0, 1.0))
    if name == "random":  # drawn usage rates
        return gjr.gjr_instance(2, "random", 100, split_rng(1, 1))
    return gjr.gjr_instance(3, "random", 67, split_rng(2, 1))  # "three"


def _scan_line(p, bases, sol, s, a, k, on_state, points=10_000):
    """Smallest slack over a dense grid of the line's feasible interval."""
    if on_state:
        x = np.linspace(0.0, p.s_bar[k] - a[k], points)
    else:  # the action line is open at a_k = 0, where item k leaves the support
        x = np.linspace(2.0 * gjr.FEAS_TOL, min(p.s_bar[k] - s[k], p.a_bar - (a.sum() - a[k])), points)
    states = np.repeat(s[None, :], points, axis=0)
    actions = np.repeat(a[None, :], points, axis=0)
    (states if on_state else actions)[:, k] = x
    ok = gjr.feasible(p, states, actions)
    return float(gjr.constraint_slack(p, bases, sol, states[ok], actions[ok]).min()) if ok.any() else np.inf


class TestLineMinimum:
    @pytest.mark.parametrize("name", ["constant", "random", "three"])
    def test_exact_along_every_coordinate(self, name):
        p = _line_instance(name)
        j = p.num_items
        rng = split_rng(23, 1)
        bases = sample_stumps(10, j, float(p.s_bar.max()), seed=23)
        starts = gjr.sample_gjr_pairs(p, 4, rng)
        lines = 0
        for _ in range(5):
            sol = gjr.BiasApprox(
                eta_hat=float(rng.uniform(0.0, 150.0)),
                beta1=rng.normal(0.0, 30.0, j),
                beta2=rng.normal(0.0, 50.0, len(bases)),
            )
            for s, a in zip(*starts):
                for k in range(j):
                    for on_state in (True, False):
                        found = gjr._line_minimum(p, bases, sol, s, a, k, on_state)
                        scan = _scan_line(p, bases, sol, s, a, k, on_state)
                        if found is None:
                            assert scan == np.inf
                            continue
                        s2, a2, v = found
                        assert v <= scan + 1e-9 * (1.0 + abs(scan))
                        assert gjr.feasible(p, s2, a2)
                        direct = gjr.constraint_slack(p, bases, sol, s2[None, :], a2[None, :])[0]
                        assert direct == pytest.approx(v, abs=1e-9)
                        lines += 1
        assert lines >= 5 * 4 * j


def _grid_oracle(p, bases, sol, g):
    best = np.inf
    for face in range(p.num_items):
        state_axes = [
            np.array([0.0]) if k == face else np.linspace(0.0, p.s_bar[k], g) for k in range(p.num_items)
        ]
        action_axes = [np.linspace(0.0, min(p.s_bar[k], p.a_bar), g) for k in range(p.num_items)]
        mesh = np.meshgrid(*state_axes, *action_axes, indexing="ij")
        flat = [m.ravel() for m in mesh]
        states = np.stack(flat[: p.num_items], axis=1)
        actions = np.stack(flat[p.num_items :], axis=1)
        ok = gjr.feasible(p, states, actions)
        if not ok.any():
            continue
        slacks = gjr.constraint_slack(p, bases, sol, states[ok], actions[ok])
        best = min(best, float(slacks.min()))
    return best


class TestConstraintGeneration:
    def test_objective_monotone_non_increasing(self, desk_solution):
        _, result = desk_solution
        objs = [obj for _, obj, _ in result.trace]
        assert all(objs[i + 1] <= objs[i] + 1e-8 for i in range(len(objs) - 1))

    def test_eta_matches_solution(self, desk_instance, desk_solution):
        _, result = desk_solution
        assert result.eta_lambda == pytest.approx(result.solution.eta(desk_instance.usage_rates))

    def test_covering_pairs_converges_in_one_solve(self, desk_instance, desk_solution):
        # the final pairs certify the loop's optimum: a rerun on them starts at
        # that objective, and the loop's own solution separates as feasible.
        # The rerun's cold first solve may land elsewhere on the degenerate
        # optimal face and take more cuts there (8 at the same objective).
        bases, result = desk_solution
        rerun = gjr.constraint_generation(
            desk_instance, bases, result.states, result.actions, ScipyBackend(), seed=1
        )
        final = result.trace[-1][1]
        assert abs(rerun.trace[0][1] - final) <= 1e-9 * abs(final)
        assert gjr.separate(desk_instance, bases, result.solution).status == "feasible"

    def test_validity_against_simulation(self, desk_instance, desk_solution):
        bases, result = desk_solution
        avg = gjr.simulate_average_cost(desk_instance, _lookahead(desk_instance, bases, result.solution, 4), 500)
        assert result.eta_lambda <= avg + 1e-3

    def test_empty_init_rejected(self, desk_instance):
        with pytest.raises(ValueError):
            gjr.constraint_generation(
                desk_instance, empty_stumps(2), np.empty((0, 2)), np.empty((0, 2)), ScipyBackend()
            )

    def test_cut_cap_raises_typed_error(self, desk_instance):
        sigma = float(split_rng(42, 41).uniform(1.0, desk_instance.s_bar.max()))
        bases = sample_stumps(10, 2, sigma, seed=42)
        init = gjr.sample_gjr_pairs(desk_instance, 150, split_rng(42, 2))
        with pytest.raises(gjr.ConstraintGenerationError) as err:
            gjr.constraint_generation(desk_instance, bases, *init, ScipyBackend(), max_cuts=2, seed=42)
        assert len(err.value.trace) == 2

    def test_unbounded_start_resamples(self, desk_instance, monkeypatch):
        # one initial pair leaves the LP unbounded; the loop adds sampled
        # pairs, 200 at a time, until it is bounded, and reaches the optimum
        # of a loop started from 200 pairs (configs/gjr2.json's stumps)
        sigma = float(split_rng(42, 41).uniform(1.0, desk_instance.s_bar.max()))
        bases = sample_stumps(20, 2, sigma, seed=42)
        sample = gjr.sample_gjr_pairs
        full = gjr.constraint_generation(
            desk_instance, bases, *sample(desk_instance, 200, split_rng(42, 2)), ScipyBackend(), seed=42
        )
        sampled = []
        monkeypatch.setattr(gjr, "sample_gjr_pairs", lambda p, n, rng: sampled.append(n) or sample(p, n, rng))
        one = gjr.constraint_generation(
            desk_instance, bases, *sample(desk_instance, 1, split_rng(42, 2)), ScipyBackend(), seed=42
        )
        assert len(sampled) >= 1 and set(sampled) == {200}
        # the first pair, the re-samples, then one pair per cut but the last
        assert len(one.states) == 1 + 200 * len(sampled) + len(one.trace) - 1
        assert one.max_violation <= 1e-7
        assert abs(one.eta_lambda - full.eta_lambda) <= 1e-9 * abs(full.eta_lambda)


def _cold_objective(objective: np.ndarray, rows: np.ndarray, rhs: np.ndarray) -> float:
    """The optimum of one cold linprog over all rows, in preconditioned variables as the backend solves."""
    m = alp._preconditioner(rows)
    res = linprog(
        c=-(m.T @ objective),
        A_ub=rows @ m,
        b_ub=rhs,
        bounds=[(None, None)] * len(objective),
        method="highs",
        options={"primal_feasibility_tolerance": alp.HIGHS_TOL, "dual_feasibility_tolerance": alp.HIGHS_TOL},
    )
    assert res.status == 0
    return float(-res.fun)


class TestLiveCutLp:
    @pytest.mark.parametrize("model", ["falp", "fglp"])
    def test_every_cut_matches_a_cold_all_rows_solve(self, desk_instance, monkeypatch, model):
        # the cut loop solves each cut warm on one live LP; a cold solve of the
        # same rows reaches the same objective.  The FGLP model starts with 350
        # rows, so its first solve also generates rows.
        sigma = float(split_rng(42, 41).uniform(1.0, desk_instance.s_bar.max()))
        bases = sample_stumps(10, 2, sigma, seed=42)
        init = gjr.sample_gjr_pairs(desk_instance, 150, split_rng(42, 2))
        prev = guides = None
        if model == "fglp":
            prev = gjr.constraint_generation(desk_instance, empty_stumps(2), *init, ScipyBackend(), seed=42).solution
            guides = gjr.sample_gjr_states(desk_instance, 200, split_rng(42, 3))
        solves, live_solve = [], alp.LiveLp.solve

        def recorded(lp):
            sol = live_solve(lp)
            solves.append((lp.rows.copy(), lp.rhs.copy(), sol))
            return sol

        monkeypatch.setattr(alp.LiveLp, "solve", recorded)
        result = gjr.constraint_generation(
            desk_instance, bases, *init, ScipyBackend(), prev=prev, guide_states=guides, seed=42
        )
        objective = gjr.build_avg_alp(desk_instance, bases, *init).objective
        assert len(solves) >= len(result.trace) > 1
        # the first model's rows, then each cut's pair row (and guide row) but the last's
        first, per_cut = (len(init[0]), 1) if guides is None else (len(init[0]) + len(guides), 2)
        assert len(solves[-1][1]) == first + per_cut * (len(result.trace) - 1)
        for rows, rhs, sol in solves:
            assert sol.status == "optimal"
            ref = _cold_objective(objective, rows, rhs)
            assert abs(sol.objective - ref) <= 1e-9 * (1.0 + abs(ref))


class TestKStepPolicy:
    def test_k1_equals_single_step_enumeration(self, desk_instance, desk_solution):
        bases, result = desk_solution
        search = gjr.SearchPlan(beam_width=512, action_grid=11)
        rng = split_rng(16, 1)
        eta = result.solution.eta(desk_instance.usage_rates)
        for s in gjr.sample_gjr_states(desk_instance, 5, rng):
            got = gjr.k_step_greedy(desk_instance, bases, result.solution, s, 1, search)
            best_val, best_a = np.inf, None
            caps = np.minimum(desk_instance.s_bar - s, desk_instance.a_bar)
            for f1 in np.linspace(0, 1, 11):
                for f2 in np.linspace(0, 1, 11):
                    a = np.array([f1, f2]) * caps
                    if not gjr.feasible(desk_instance, s, a):
                        continue
                    t, nxt, cost = gjr.gjr_step(desk_instance, s, a)
                    nxt = np.maximum(nxt, 0.0)
                    val = cost - eta * t + float(result.solution.bias(bases, nxt[None, :])[0])
                    if val < best_val - 1e-15:
                        best_val, best_a = val, a
            assert np.allclose(got, best_a, atol=1e-12)

    def test_zero_bias_minimizes_myopic_cost(self, desk_instance):
        zero = gjr.BiasApprox(eta_hat=0.0, beta1=np.zeros(2), beta2=np.zeros(0))
        search = gjr.SearchPlan(beam_width=512, action_grid=5)
        s = np.array([0.0, 1.0])
        a = gjr.k_step_greedy(desk_instance, empty_stumps(2), zero, s, 2, search)
        # with u = 0 and eta = 0 the plan cost is the sum of fixed costs, so the
        # cheapest plans replenish only the stocked-out item each epoch
        assert a[0] > 0.0 and a[1] == 0.0

    def test_returned_action_owns_its_data(self, desk_instance, desk_solution):
        # the simulation caches one action per state; a view into the
        # candidate array would keep all candidates alive with it
        bases, result = desk_solution
        a = gjr.k_step_greedy(desk_instance, bases, result.solution, np.zeros(2), 2)
        assert a.base is None

    def test_k_validation(self, desk_instance, desk_solution):
        bases, result = desk_solution
        with pytest.raises(ValueError):
            gjr.k_step_greedy(desk_instance, bases, result.solution, np.zeros(2), 0)


class TestSimulateAverageCost:
    def test_single_cycle_closed_form(self):
        # eta large makes the lookahead keep every transition time at its
        # maximum 1 (item 0's cap over its rate), which item 0 reaches only
        # when ordered to its cap at every epoch; item 1's cap of 2 lasts two
        # epochs.  Among those plans item 1's setup cost (0.4) outweighs the
        # terminal bias gain of keeping item 1 stocked (0.1 per unit), so from
        # (0,0) the 2-step lookahead plays (1, 2) -> (0, 1), then (1, 0) -> (0, 0):
        # average cost = ((c' + c_0 + c_1) + (c' + c_0)) / 2
        p = _symmetric_params(
            s_bar=np.array([1.0, 2.0]), a_bar=3.0, fixed_cost=1.0, item_fixed_costs=np.array([0.2, 0.4])
        )
        sol = gjr.BiasApprox(eta_hat=10.0, beta1=np.array([0.0, 0.1]), beta2=np.zeros(0))
        avg = gjr.simulate_average_cost(p, _lookahead(p, empty_stumps(2), sol, 2), 200)
        assert avg == pytest.approx((1.6 + 1.2) / 2.0, abs=1e-9)

    def test_single_stage_is_first_step_ratio(self, desk_instance, desk_solution):
        bases, result = desk_solution
        start = np.zeros(2)
        a = gjr.k_step_greedy(desk_instance, bases, result.solution, start, 4)
        t, _, cost = gjr.gjr_step(desk_instance, start, a)
        expected = cost / t
        got = gjr.simulate_average_cost(desk_instance, _lookahead(desk_instance, bases, result.solution, 4), 1)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_deterministic(self, desk_instance, desk_solution):
        bases, result = desk_solution
        act = _lookahead(desk_instance, bases, result.solution, 2)
        a = gjr.simulate_average_cost(desk_instance, act, 50)
        b = gjr.simulate_average_cost(desk_instance, act, 50)
        assert a == b

    def test_infeasible_stage_action_raises(self, desk_instance):
        calls = []
        with pytest.raises(InfeasiblePairError):
            gjr.simulate_average_cost(desk_instance, lambda s: calls.append(1) or np.array([-1.0, 2.0]), 3)
        assert len(calls) == 1  # raised at the first visit, before the step is cached

    def test_step_once_per_distinct_state(self, desk_instance, desk_solution, monkeypatch):
        bases, result = desk_solution
        step = gjr.gjr_step
        visited, stepped = [], []

        def counted_lookahead(s):
            visited.append(np.asarray(s).tobytes())
            return gjr.k_step_greedy(desk_instance, bases, result.solution, s, 2)

        def counted_step(p, states, actions):
            if np.ndim(states) == 1:  # the stage's own step, not the lookahead's batched ones
                stepped.append(np.asarray(states).tobytes())
            return step(p, states, actions)

        monkeypatch.setattr(gjr, "gjr_step", counted_step)
        gjr.simulate_average_cost(desk_instance, counted_lookahead, 500)
        assert len(set(visited)) == len(visited)
        assert stepped == visited
        assert len(visited) < 500  # the policy cycles, so later stages are lookups

    def test_stages_validation(self, desk_instance):
        with pytest.raises(ValueError):
            gjr.simulate_average_cost(desk_instance, lambda s: np.ones(2), 0)
