import numpy as np
import pytest

from ralp import toy
from ralp.mdp import batch_expected_costs, batch_next_states


def test_value_function_anchor_points():
    v = toy.optimal_value(np.array([[0.5], [0.0], [1.0]]))
    assert v[0] == 0.0
    assert v[1] == pytest.approx(0.5 / 0.91, abs=1e-12)
    assert v[2] == pytest.approx(0.5 / 0.91, abs=1e-12)


def test_value_function_uniform_mean():
    grid = np.linspace(0.0, 1.0, 200_001)
    vals = toy.optimal_value(grid[:, None])
    # E_uniform |s - 0.5| = 1/4
    assert np.trapezoid(vals, grid) == pytest.approx(0.25 / 0.91, abs=1e-9)


def test_value_function_range_check():
    with pytest.raises(ValueError):
        toy.optimal_value(np.array([[1.2]]))


def test_bellman_fixed_point_on_grid(toy_mdp):
    grid = np.linspace(0.0, 1.0, 1001)
    vstar = toy_mdp.exact_value(grid[:, None])
    # min over grid actions of c(s) + gamma (0.1 V*(s) + 0.9 V*(a))
    best_cont = np.min(vstar)  # attained at a = 0.5, which is a grid point
    rhs = np.abs(grid - 0.5) + toy.GAMMA * (0.1 * vstar + 0.9 * best_cont)
    assert np.max(np.abs(vstar - rhs)) < 1e-10


def test_optimal_greedy_action_is_half():
    actions = np.linspace(0.0, 1.0, 101)
    vstar_at_actions = np.abs(actions - 0.5) / 0.91
    assert actions[np.argmin(vstar_at_actions)] == 0.5


def test_transition_support(toy_mdp):
    nxt = batch_next_states(toy_mdp, np.array([[0.2]]), np.array([[0.7]]))[0]
    assert nxt.shape == (2, 1)
    assert nxt[0, 0] == 0.2 and nxt[1, 0] == 0.7
    assert np.array_equal(toy_mdp.noise.weights, [0.1, 0.9])


def test_cost_examples(toy_mdp):
    costs = batch_expected_costs(toy_mdp, np.array([[0.5], [0.0]]), np.array([[0.9], [0.3]]))
    assert costs[0] == 0.0
    assert costs[1] == 0.5
