import dataclasses
import math

import numpy as np
import pytest

from ralp import pic, policy, toy
from ralp.alp import VfaWeights, build_falp, uniform_plan
from ralp.bases import BasisSet, empty_stumps, fixed_fourier, sample_fourier
from ralp.mdp import (
    DiscountedMdp,
    NoiseModel,
    batch_expected_costs,
    degenerate,
    noise_from_uniforms,
    split_rng,
)
from ralp.policy import (
    SimConfig,
    action_grid_points,
    default_horizon,
    estimate_visit_frequency,
    greedy_policy,
    simulate_policy_cost,
)
from tests.conftest import (
    enumerated_lookahead,
    greedy_enumerated,
    solve,
    toy_constant_action_shares,
    toy_constant_policy_cost,
)


def _greedy(mdp, bases, w, states, grid):
    """Greedy actions of the rollouts' batch policy, one row per state row."""
    return greedy_policy(mdp, bases, w, grid)(np.asarray(states, dtype=float))


def _bin(hist, x):
    """The histogram bin holding state ``x``; the right edge closes the last bin."""
    return min(max(int(np.searchsorted(hist.edges, x, side="right")) - 1, 0), len(hist.mass) - 1)


class TestGreedyAction:
    def test_vfa_minimized_at_half_gives_half(self, toy_mdp):
        # V(s) = -cos(2 pi s - pi) has its unique minimum at 0.5
        w = VfaWeights(beta0=0.0, betas=[-1.0])
        # the basis phase q = -pi, built by hand
        bases = BasisSet(
            kind="fourier",
            q=[-math.pi],
            omega=[[2.0 * math.pi]],
            sigma=[math.nan],
            seed=0,
            sigma_range=(1.0, 1.0),
            dim_state=1,
        )
        a = _greedy(toy_mdp, bases, w, [[0.2]], grid=101)
        assert a.shape == (1, 1)
        assert a[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_solved_toy_weights_give_reference_action(
        self, toy_mdp, toy_grid_prepared, toy_nu_samples, backend
    ):
        bases = fixed_fourier([2.0, -5.0])
        w, _ = solve(build_falp(toy_grid_prepared, bases, toy_nu_samples), backend)
        actions = set(_greedy(toy_mdp, bases, w, [[0.0], [0.3], [0.9]], grid=101)[:, 0].tolist())
        assert len(actions) == 1  # constant policy
        assert 0.50 <= actions.pop() <= 0.53  # reference action 0.513

    def test_zero_vfa_on_pic_matches_myopic_bruteforce(self):
        p = pic.instance_from_table(1)
        mdp = pic.build_pic_mdp(p, demand_saa_size=200, demand_seed=3)
        bases = sample_fourier(4, 3, (100.0, 1000.0), seed=1)
        w = VfaWeights.zero(4)
        states = uniform_plan(mdp, 10, split_rng(8, 0)).states
        grid = action_grid_points(mdp, 11)
        got = _greedy(mdp, bases, w, states, grid=11)
        for s, a in zip(states, got):
            costs = batch_expected_costs(mdp, np.repeat(s[None, :], len(grid), axis=0), grid)
            assert a[0] == grid[np.argmin(costs), 0]

    def test_invariant_to_intercept_shift(self, toy_mdp, toy_grid_prepared, toy_nu_samples, backend):
        bases = fixed_fourier([2.0, -5.0])
        w, _ = solve(build_falp(toy_grid_prepared, bases, toy_nu_samples), backend)
        shifted = VfaWeights(beta0=w.beta0 + 123.0, betas=w.betas)
        states = [[0.1], [0.4], [0.8]]
        a = _greedy(toy_mdp, bases, w, states, grid=101)
        b = _greedy(toy_mdp, bases, shifted, states, grid=101)
        assert np.array_equal(a, b)


class TestGreedyLookahead:
    """Each problem's ``greedy_lookahead`` against enumerating every successor."""

    @pytest.mark.parametrize("grid", [11, 101])
    def test_toy_equals_enumeration_bit_for_bit(self, toy_mdp, toy_grid_prepared, toy_nu_samples, backend, grid):
        # An even state count keeps every row of the enumeration in a full
        # BLAS block of 4, as the hook's padded tables are.  Without the
        # padding, the drawn set's values on the 42 states and on the short
        # last block of the grid differ from the enumeration in the last bit.
        states = np.random.default_rng(3).random((42, 1))
        grid_pts = action_grid_points(toy_mdp, grid)
        solved = fixed_fourier([2.0, -5.0, 3.0])
        drawn = sample_fourier(20, 1, (0.2, 10.0), seed=5)
        for bases, w in (
            (solved, solve(build_falp(toy_grid_prepared, solved, toy_nu_samples), backend)[0]),
            (drawn, VfaWeights(beta0=0.4, betas=np.random.default_rng(4).normal(0.0, 30.0, 20))),
        ):
            cont = toy_mdp.greedy_lookahead(toy_mdp.noise, bases, w, grid_pts)(states)
            assert np.array_equal(cont, enumerated_lookahead(toy_mdp, bases, w, states, grid_pts))
            assert np.array_equal(
                _greedy(toy_mdp, bases, w, states, grid), greedy_enumerated(toy_mdp, bases, w, states, grid_pts)
            )

    def test_pic_matches_enumeration(self):
        p = pic.instance_from_table(1)
        mdp = pic.build_pic_mdp(p, demand_saa_size=200, demand_seed=3)
        bases = sample_fourier(20, 3, (100.0, 1000.0), seed=4)
        w = VfaWeights(beta0=150.0, betas=np.random.default_rng(9).normal(0.0, 40.0, 20))
        states = uniform_plan(mdp, 10, split_rng(8, 0)).states
        grid_pts = action_grid_points(mdp, 11)
        cont = mdp.greedy_lookahead(mdp.noise, bases, w, grid_pts)(states)
        ref = enumerated_lookahead(mdp, bases, w, states, grid_pts)
        assert np.ptp(ref) > 1.0  # the VFA varies over the successors
        np.testing.assert_allclose(cont, ref, rtol=1e-9, atol=0.0)
        assert np.array_equal(_greedy(mdp, bases, w, states, 11), greedy_enumerated(mdp, bases, w, states, grid_pts))

    def test_pic_empty_set_is_the_intercept(self):
        mdp = pic.build_pic_mdp(pic.instance_from_table(1), demand_saa_size=50)
        states = uniform_plan(mdp, 4, split_rng(8, 1)).states
        cont = mdp.greedy_lookahead(mdp.noise, empty_stumps(3), VfaWeights.zero(0), action_grid_points(mdp, 5))
        assert np.array_equal(cont(states), np.zeros((4, 5)))

    def test_problem_without_lookahead_rejected(self, toy_mdp):
        mdp = dataclasses.replace(toy_mdp, greedy_lookahead=None)
        with pytest.raises(ValueError, match="greedy_lookahead"):
            _greedy(mdp, fixed_fourier([2.0]), VfaWeights.zero(1), [[0.2]], grid=11)


class TestConstantPolicyCost:
    def test_optimal_action_value(self):
        assert toy_constant_policy_cost(0.5) == pytest.approx(0.25 / 0.91, abs=1e-12)

    def test_reference_actions(self):
        assert toy_constant_policy_cost(0.513) == pytest.approx(0.3904, abs=5e-5)
        assert toy_constant_policy_cost(0.598) == pytest.approx(1.1470, abs=5e-5)

    def test_against_quadrature_oracle(self):
        # independent evaluation: W(s) = (|s-.5| + 0.9 g W(a*)) / (1 - 0.1 g),
        # W(a*) = |a*-.5|/(1-g); integrate W over s in [0,1] by quadrature
        from scipy.integrate import quad

        g = toy.GAMMA
        for a_star in (0.5, 0.513, 0.598, 0.0, 1.0):
            w_fix = abs(a_star - 0.5) / (1.0 - g)
            integral = quad(lambda s: (abs(s - 0.5) + 0.9 * g * w_fix) / (1.0 - 0.1 * g), 0.0, 1.0)[0]
            assert toy_constant_policy_cost(a_star) == pytest.approx(integral, abs=1e-9)

    def test_range_check(self):
        with pytest.raises(ValueError):
            toy_constant_policy_cost(1.2)


class TestSimulatePolicyCost:
    def test_zero_cost_mdp_gives_zero(self):
        chi = degenerate([0.0])
        mdp = DiscountedMdp(
            state_lo=np.array([0.0]),
            state_hi=np.array([1.0]),
            action_lo=np.array([0.0]),
            action_hi=np.array([1.0]),
            gamma=0.9,
            cost=lambda s, a, xi: 0.0 * (s[..., 0] + xi),
            transition=lambda s, a, xi: 0.0 * (s + xi[..., None]),
            noise=NoiseModel(values=np.array([0.0]), probs=np.array([1.0])),
            initial_dist=chi,
            state_relevance=chi,
        )
        sim = SimConfig(horizon=20, replications=5, action_grid=3, rollout_seed=0)
        est = simulate_policy_cost(mdp, lambda st: np.zeros((len(st), 1)), sim)
        assert est.mean == 0.0

    def test_constant_policy_matches_closed_form(self, toy_mdp):
        sim = SimConfig(horizon=66, replications=1500, action_grid=101, rollout_seed=5)
        for a_star in (0.513, 0.598):
            est = simulate_policy_cost(toy_mdp, lambda st, a=a_star: np.full((len(st), 1), a), sim)
            exact = toy_constant_policy_cost(a_star)
            assert abs(est.mean - exact) <= 3.0 * est.stderr + 0.01 * exact

    def test_deterministic_given_seed(self, toy_mdp):
        sim = SimConfig(horizon=30, replications=50, action_grid=11, rollout_seed=9)
        pol = lambda st: np.full((len(st), 1), 0.5)
        a = simulate_policy_cost(toy_mdp, pol, sim)
        b = simulate_policy_cost(toy_mdp, pol, sim)
        assert a.mean == b.mean and a.stderr == b.stderr

    def test_tail_weight_reported(self, toy_mdp):
        sim = SimConfig(horizon=10, replications=2, action_grid=11, rollout_seed=0)
        est = simulate_policy_cost(toy_mdp, lambda st: np.full((len(st), 1), 0.5), sim)
        assert est.tail_weight == pytest.approx(0.9**10 / 0.1)

    def test_default_horizon(self):
        assert default_horizon(0.9) == math.ceil(math.log(1e-3) / math.log(0.9))
        assert default_horizon(0.95) == 135


class TestVisitFrequency:
    def test_horizon_zero_is_binned_chi(self, toy_mdp):
        sim = SimConfig(horizon=0, replications=4000, action_grid=11, rollout_seed=1)
        hist = estimate_visit_frequency(toy_mdp, lambda st: np.full((len(st), 1), 0.5), bins=10, sim=sim)
        assert float(hist.mass.sum()) == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.abs(hist.mass - 0.1) < 0.03)  # uniform chi across 10 bins
        assert np.all(hist.visit_mass == 0.0)

    def test_self_loop_atom_concentrates_fully(self):
        chi = degenerate([0.25])
        mdp = DiscountedMdp(
            state_lo=np.array([0.0]),
            state_hi=np.array([1.0]),
            action_lo=np.array([0.0]),
            action_hi=np.array([1.0]),
            gamma=0.9,
            cost=lambda s, a, xi: 0.0 * (s[..., 0] + xi),
            transition=lambda s, a, xi: s + 0.0 * xi[..., None],
            noise=NoiseModel(values=np.array([0.0]), probs=np.array([1.0])),
            initial_dist=chi,
            state_relevance=chi,
        )
        sim = SimConfig(horizon=50, replications=20, action_grid=3, rollout_seed=2)
        hist = estimate_visit_frequency(mdp, lambda st: np.zeros((len(st), 1)), bins=20, sim=sim)
        target = _bin(hist, 0.25)
        assert hist.normalized[target] == pytest.approx(1.0, abs=1e-12)

    def test_total_mass_matches_discounted_normalizer(self, toy_mdp):
        sim = SimConfig(horizon=200, replications=50, action_grid=11, rollout_seed=3)
        hist = estimate_visit_frequency(toy_mdp, lambda st: np.full((len(st), 1), 0.51), bins=100, sim=sim)
        # 1/(1-gamma) = 10 up to gamma^(H+1) truncation
        assert float(hist.mass.sum()) == pytest.approx(10.0, abs=1e-6)

    def test_toy_constant_policy_concentration(self, toy_mdp):
        # the action's bin holds the closed-form shares of the discounted
        # occupancy; at 400 replications their Monte-Carlo standard errors
        # are 0.0017 (visits) and 0.0016 (total), so 0.007 is about 4 of them
        sim = SimConfig(horizon=200, replications=400, action_grid=11, rollout_seed=4)
        hist = estimate_visit_frequency(toy_mdp, lambda st: np.full((len(st), 1), 0.513), bins=100, sim=sim)
        expected = toy_constant_action_shares(bins=100, horizon=sim.horizon)
        b = _bin(hist, 0.513)
        assert hist.visit_mass[b] / hist.visit_mass.sum() == pytest.approx(expected.visits, abs=0.007)
        assert hist.mass[b] / float(hist.mass.sum()) == pytest.approx(expected.total, abs=0.007)

    def test_bins_validation(self, toy_mdp):
        sim = SimConfig(horizon=5, replications=2, action_grid=11, rollout_seed=0)
        with pytest.raises(ValueError):
            estimate_visit_frequency(toy_mdp, _toy_policy, bins=0, sim=sim)


def _reference_rollouts(mdp, sim, policy_fn):
    """States (horizon + 1 batches) and actions (horizon batches), drawing one uniform per replication as each stage runs."""
    rngs = [split_rng(sim.rollout_seed, policy._ROLLOUT_STREAM, r) for r in range(sim.replications)]
    states, actions = [np.stack([mdp.initial_dist.sample(rng) for rng in rngs])], []
    for _ in range(sim.horizon):
        actions.append(np.atleast_2d(policy_fn(states[-1])))
        xi = noise_from_uniforms(mdp, np.array([rng.random() for rng in rngs]))
        states.append(mdp.transition(states[-1], actions[-1], xi))
    return states, actions


def _reference_policy_cost(mdp, sim, policy_fn):
    states, actions = _reference_rollouts(mdp, sim, policy_fn)
    totals = np.zeros(sim.replications)
    for t, (s, a) in enumerate(zip(states, actions)):
        totals += mdp.gamma**t * batch_expected_costs(mdp, s, a)
    stderr = float(totals.std(ddof=1) / math.sqrt(sim.replications)) if sim.replications > 1 else 0.0
    return float(totals.mean()), stderr


def _reference_visit_mass(mdp, sim, policy_fn, bins):
    states, _ = _reference_rollouts(mdp, sim, policy_fn)
    edges = np.linspace(mdp.state_lo[0], mdp.state_hi[0], bins + 1)
    visit_mass = np.zeros(bins)
    for t, s in enumerate(states[1:]):
        b = np.clip(np.searchsorted(edges, s[:, 0], side="right") - 1, 0, bins - 1)
        visit_mass += mdp.gamma ** (t + 1) * np.bincount(b, minlength=bins)
    return visit_mass / sim.replications


def _toy_policy(states):
    return 1.0 - states


def _pic_policy(states):
    return np.clip(12.0 - states.sum(axis=1), 0.0, 10.0)[:, None]


class TestRolloutNoise:
    """Rollouts draw each replication's uniforms up front; results equal the per-stage loop exactly."""

    @pytest.mark.parametrize("horizon", [0, 1, 25])
    def test_policy_cost_toy_discrete_quantile(self, toy_mdp, horizon):
        sim = SimConfig(horizon=horizon, replications=7, action_grid=3, rollout_seed=4)
        est = simulate_policy_cost(toy_mdp, _toy_policy, sim)
        assert (est.mean, est.stderr) == _reference_policy_cost(toy_mdp, sim, _toy_policy)

    @pytest.mark.parametrize("horizon", [0, 1, 40])
    def test_policy_cost_pic_noise_quantile(self, horizon):
        mdp = pic.build_pic_mdp(pic.instance_from_table(1), demand_saa_size=50)
        sim = SimConfig(horizon=horizon, replications=6, action_grid=3, rollout_seed=8)
        est = simulate_policy_cost(mdp, _pic_policy, sim)
        assert (est.mean, est.stderr) == _reference_policy_cost(mdp, sim, _pic_policy)

    @pytest.mark.parametrize("quantile", ["discrete", "pic_demand"])
    @pytest.mark.parametrize("horizon", [0, 1, 30])
    def test_visit_frequency(self, toy_mdp, horizon, quantile):
        mdp = toy_mdp
        if quantile == "pic_demand":  # stay when pic's demand draw falls below its mean
            p = pic.instance_from_table(1)
            mdp = dataclasses.replace(
                toy_mdp, noise_quantile=lambda u: (pic.demand_quantile(p, u) >= 5.0).astype(float)
            )
        sim = SimConfig(horizon=horizon, replications=9, action_grid=3, rollout_seed=6)
        hist = estimate_visit_frequency(mdp, _toy_policy, bins=10, sim=sim)
        assert np.array_equal(hist.visit_mass, _reference_visit_mass(mdp, sim, _toy_policy, bins=10))


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(horizon=-1, replications=1, action_grid=11, rollout_seed=0)
        with pytest.raises(ValueError):
            SimConfig(horizon=1, replications=0, action_grid=11, rollout_seed=0)
        with pytest.raises(ValueError):
            SimConfig(horizon=1, replications=1, action_grid=1, rollout_seed=0)
