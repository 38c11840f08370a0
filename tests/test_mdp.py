import numpy as np
import pytest

from ralp import pic
from ralp.alp import uniform_plan
from ralp.mdp import (
    NoiseModel,
    batch_next_states,
    degenerate,
    noise_from_uniforms,
    split_rng,
    uniform_box,
)
from tests.conftest import expected_next_values


def _expected_value(mdp, s, a, f):
    """E[f(s') | s, a] for one pair, f applied to each successor row."""
    value_fn = lambda states: np.array([f(x) for x in states])
    return float(expected_next_values(mdp, np.array([s], dtype=float), np.array([a], dtype=float), value_fn)[0])


def test_expected_next_value_two_point_exact(toy_mdp):
    # 0.1 * 0.2 + 0.9 * 0.7
    val = _expected_value(toy_mdp, [0.2], [0.7], lambda s: s[0])
    assert val == pytest.approx(0.65, abs=1e-12)


def test_expected_next_value_constant_function(toy_mdp):
    assert _expected_value(toy_mdp, [0.3], [0.9], lambda s: 1.0) == pytest.approx(1.0, abs=1e-15)


def test_expected_next_value_pic_saa_hand_case():
    # demand draws {3, 5, 7} from (5,5,5) with a=3: successors' first slots {5, 5, 3}
    p = pic.instance_from_table(1)
    mdp = pic.build_pic_mdp(p, demand_saa_size=3)
    mdp = _with_noise(mdp, NoiseModel(values=np.array([3.0, 5.0, 7.0])))
    val = _expected_value(mdp, [5.0, 5.0, 5.0], [3.0], lambda s: s[0])
    assert val == pytest.approx(13.0 / 3.0, abs=1e-12)


def _with_noise(mdp, noise):
    import dataclasses

    return dataclasses.replace(mdp, noise=noise)


def test_exact_noise_matches_weighted_sum(toy_mdp):
    rng = split_rng(3, 1)
    for _ in range(20):
        s, a = rng.random(1), rng.random(1)
        f = lambda st: np.sin(3.0 * st[0])
        direct = 0.1 * f(s) + 0.9 * f(a)
        assert _expected_value(toy_mdp, s, a, f) == pytest.approx(direct, abs=1e-12)


def test_saa_expectation_bit_identical():
    p = pic.instance_from_table(1)
    mdp = pic.build_pic_mdp(p, demand_saa_size=100, demand_seed=5)
    a = _expected_value(mdp, [2.0, 1.0, 4.0], [3.0], lambda s: s[0] ** 2)
    b = _expected_value(mdp, [2.0, 1.0, 4.0], [3.0], lambda s: s[0] ** 2)
    assert a == b


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(values=np.array([0.0, 1.0]), probs=np.array([0.2, 0.9]))
    with pytest.raises(ValueError):
        NoiseModel(values=np.array([0.0, 1.0]), probs=np.array([0.5]))


def test_noise_from_uniforms_discrete_default(toy_mdp):
    u = np.array([0.05, 0.0999, 0.1001, 0.5, 0.9999])
    xi = noise_from_uniforms(toy_mdp, u)
    assert list(xi) == [0.0, 0.0, 1.0, 1.0, 1.0]


def test_sample_initial_state_pic_atom():
    p = pic.instance_from_table(1)
    mdp = pic.build_pic_mdp(p, demand_saa_size=10)
    for seed in (0, 1, 99):
        assert np.array_equal(mdp.initial_dist.sample(split_rng(seed, 0)), [5.0, 5.0, 5.0])


def test_sample_initial_state_toy_support(toy_mdp):
    rng = split_rng(11, 0)
    draws = [toy_mdp.initial_dist.sample(rng)[0] for _ in range(50)]
    assert all(0.0 <= d <= 1.0 for d in draws)
    assert len(set(draws)) > 1


def test_uniform_box_batch_repeats_single_draws():
    # one batch call consumes the stream as one sample call per state does
    dist = uniform_box([0.0, -1.0, 2.0], [1.0, 3.0, 2.5])
    rng = split_rng(6, 22)
    singles = np.stack([dist.sample(rng) for _ in range(500)])
    assert np.array_equal(dist.sample_batch(500, split_rng(6, 22)), singles)


def test_degenerate_distribution_constant():
    dist = degenerate([1.5, -2.0])
    for seed in range(5):
        assert np.array_equal(dist.sample(split_rng(seed, 0)), [1.5, -2.0])


def test_transition_stays_in_box_after_clamp():
    p = pic.instance_from_table(1)
    mdp = pic.build_pic_mdp(p, demand_saa_size=50, demand_seed=2)
    plan = uniform_plan(mdp, 200, split_rng(4, 2))
    nxt = batch_next_states(mdp, plan.states, plan.actions)
    assert nxt.shape == (200, 50, 3)
    assert np.all((nxt >= mdp.state_lo - 1e-9) & (nxt <= mdp.state_hi + 1e-9))


def test_split_rng_reproducible_and_distinct():
    a = split_rng(42, 1).random(4)
    b = split_rng(42, 1).random(4)
    c = split_rng(42, 2).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
