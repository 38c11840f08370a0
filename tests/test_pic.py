import dataclasses
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ralp import pic
from ralp.alp import uniform_plan
from ralp.bases import features, sample_fourier
from ralp.mdp import (
    NoiseModel,
    batch_expected_costs,
    batch_next_states,
    expected_successor_phases,
    split_rng,
)


class TestCatalog:
    def test_first_row(self):
        p = pic.instance_from_table(1)
        assert (p.c_o, p.c_h, p.c_d, p.c_b) == (20.0, 2.0, 5.0, 10.0)
        assert (p.a_max, p.s_min, p.gamma) == (10.0, -10.0, 0.95)

    def test_last_row(self):
        p = pic.instance_from_table(16)
        assert (p.c_o, p.c_h, p.c_d, p.c_b) == (20.0, 2.0, 12.0, 6.0)
        assert (p.a_max, p.s_min, p.gamma) == (50.0, -50.0, 0.99)

    def test_shared_settings(self):
        for i in (1, 8, 16):
            p = pic.instance_from_table(i)
            assert p.c_l == 100.0
            assert p.demand_range == (0.0, 10.0)
            assert (p.demand_mean, p.demand_sd) == (5.0, 2.0)
            assert p.life == p.lead == 2

    def test_bad_ids(self):
        for bad in (0, 17, -3):
            with pytest.raises(ValueError):
                pic.instance_from_table(bad)

    def test_catalog_json_matches_rows(self):
        doc = json.loads(pic.catalog_json())
        assert len(doc) == 16
        assert doc["9"]["c_o"] == 16.0
        assert doc["15"]["c_d"] == 12.0


def _pic_mdp(instance_id=1, demand=None):
    """A pic MDP, optionally with its demand set replaced by ``demand``."""
    mdp = pic.build_pic_mdp(pic.instance_from_table(instance_id), demand_saa_size=1)
    if demand is None:
        return mdp
    return dataclasses.replace(mdp, noise=NoiseModel(values=np.asarray(demand, dtype=float)))


def _expected_cost(mdp, s, a):
    return float(batch_expected_costs(mdp, np.array([s], dtype=float), np.array([a], dtype=float))[0])


class TestTransition:
    def test_shortfall_case(self):
        mdp = _pic_mdp()
        assert np.array_equal(mdp.transition(np.array([5.0, 5, 5]), np.array([3.0]), 7.0), [3.0, 5.0, 3.0])

    def test_no_shortfall(self):
        mdp = _pic_mdp()
        assert np.array_equal(mdp.transition(np.array([5.0, 5, 5]), np.array([3.0]), 0.0), [5.0, 5.0, 3.0])

    def test_backlog_clamped_at_limit(self):
        mdp = _pic_mdp()
        assert np.array_equal(mdp.transition(np.array([-10.0, 0, 0]), np.array([0.0]), 10.0), [-10.0, 0.0, 0.0])

    def test_vectorized_over_demand(self):
        mdp = _pic_mdp()
        out = mdp.transition(np.array([5.0, 5, 5]), np.array([3.0]), np.array([0.0, 7.0]))
        assert out.shape == (2, 3)
        assert np.array_equal(out[0], [5.0, 5.0, 3.0])
        assert np.array_equal(out[1], [3.0, 5.0, 3.0])

    def test_always_inside_box(self):
        p = pic.instance_from_table(5)
        mdp = pic.build_pic_mdp(p, demand_saa_size=64, demand_seed=1)
        rng = split_rng(2, 0)
        plan = uniform_plan(mdp, 300, rng)
        for s, a in zip(plan.states, plan.actions):
            nxt = mdp.transition(s, a, pic.sample_demand(p, rng, 5))
            assert np.all((nxt >= mdp.state_lo - 1e-9) & (nxt <= mdp.state_hi + 1e-9))
            assert np.all(nxt[:, 0] >= p.s_min - 1e-9)


class TestCost:
    def test_order_and_holding_only(self):
        mdp = _pic_mdp(demand=[5.0])
        # 0.95^2 * 20 * 5 + 2 * 5
        assert _expected_cost(mdp, [5, 5, 5], [5]) == pytest.approx(100.25, abs=1e-12)
        assert mdp.cost(np.array([5.0, 5, 5]), np.array([5.0]), 5.0) == pytest.approx(100.25, abs=1e-12)

    def test_zero_state_zero_demand(self):
        mdp = _pic_mdp(demand=[0.0])
        assert _expected_cost(mdp, [0, 0, 0], [0]) == 0.0
        assert mdp.cost(np.zeros(3), np.zeros(1), 0.0) == 0.0

    def test_backlog_at_limit_no_lost_sales(self):
        mdp = _pic_mdp(demand=[10.0])
        # backlog 10 units at c_b = 10; lost-sales bracket is exactly zero
        assert _expected_cost(mdp, [0, 0, 0], [0]) == pytest.approx(100.0, abs=1e-12)
        assert mdp.cost(np.zeros(3), np.zeros(1), 10.0) == pytest.approx(100.0, abs=1e-12)

    def test_nonnegative_on_random_inputs(self):
        p = pic.instance_from_table(16)
        rng = split_rng(3, 0)
        demands = pic.sample_demand(p, rng, 50)
        mdp = _pic_mdp(16, demand=demands)
        plan = uniform_plan(mdp, 200, rng)
        states, actions = plan.states, plan.actions
        assert np.all(batch_expected_costs(mdp, states, actions) >= 0.0)
        assert np.all(mdp.cost(states[:, None, :], actions[:, None, :], demands[None, :]) >= 0.0)

    def test_invariant_to_sample_order(self):
        p = pic.instance_from_table(1)
        rng = split_rng(4, 0)
        demands = pic.sample_demand(p, rng, 101)
        mdp = _pic_mdp(demand=demands)
        plan = uniform_plan(mdp, 1, rng)
        s, a = plan.states[0], plan.actions[0]
        assert _expected_cost(mdp, s, a) == pytest.approx(
            _expected_cost(_pic_mdp(demand=demands[::-1]), s, a), abs=1e-12
        )


class TestSampling:
    def test_state_action_membership(self):
        p = pic.instance_from_table(7)
        plan = uniform_plan(_pic_mdp(7), 500, split_rng(5, 0))
        s, a = plan.states, plan.actions
        assert np.all((p.s_min <= s[:, 0]) & (s[:, 0] <= p.a_max))
        assert np.all((0.0 <= s[:, 1:]) & (s[:, 1:] <= p.a_max))
        assert np.all((0.0 <= a[:, 0]) & (a[:, 0] <= p.a_max))

    def test_demand_inverse_cdf_range_and_moments(self):
        from scipy.stats import truncnorm

        p = pic.instance_from_table(1)
        d = pic.sample_demand(p, split_rng(7, 0), 20_000)
        assert d.min() >= 0.0 and d.max() <= 10.0
        dist = truncnorm(-2.5, 2.5, loc=5.0, scale=2.0)
        assert abs(d.mean() - dist.mean()) < 3.0 * dist.std() / np.sqrt(len(d))
        assert abs(d.std() - dist.std()) < 0.05

    def test_mdp_noise_is_fixed_saa_set(self):
        p = pic.instance_from_table(1)
        a = pic.build_pic_mdp(p, demand_saa_size=100, demand_seed=9)
        b = pic.build_pic_mdp(p, demand_saa_size=100, demand_seed=9)
        assert np.array_equal(a.noise.values, b.noise.values)
        assert a.noise.probs is None


class TestDemandQuantile:
    """``demand_quantile`` returns the bits of scipy's truncnorm ppf, the reference here."""

    EDGES = np.array([0.0, 5e-324, 0.5, 1.0 - 2.0**-53])

    @staticmethod
    def _reference(p):
        from scipy.stats import truncnorm

        lo, hi = p.demand_range
        a, b = (lo - p.demand_mean) / p.demand_sd, (hi - p.demand_mean) / p.demand_sd
        return truncnorm(a, b, loc=p.demand_mean, scale=p.demand_sd)

    def test_matches_truncnorm_bits_in_any_shape(self):
        p = pic.instance_from_table(1)
        u = split_rng(21, 0).random(100_000)
        ref = self._reference(p).ppf(u)
        assert np.array_equal(pic.demand_quantile(p, u), ref)
        got = pic.demand_quantile(p, u.reshape(500, 200))
        assert got.shape == (500, 200)
        assert np.array_equal(got, ref.reshape(500, 200))

    def test_edge_values_without_warning(self):
        p = pic.instance_from_table(1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = pic.demand_quantile(p, self.EDGES)
        assert np.array_equal(got, self._reference(p).ppf(self.EDGES))
        assert got[0] == p.demand_range[0] and got[2] == p.demand_mean

    def test_every_catalog_instance(self):
        for i in range(1, 17):
            p = pic.instance_from_table(i)
            u = np.concatenate([self.EDGES, split_rng(22, i).random(1000)])
            assert np.array_equal(pic.demand_quantile(p, u), self._reference(p).ppf(u))

    def test_where_the_two_log_terms_tie(self):
        # near u = Phi(a) / (Phi(b) - Phi(a)) the two terms of the log-space
        # sum are equal, and scipy's logsumexp takes both as the maximum
        p = pic.instance_from_table(1)
        uf = pic._ufuncs
        a, b = -2.5, 2.5
        log_mass = uf.log1p(-uf.ndtr(a) - uf.ndtr(-b))
        u = np.exp(uf.log_ndtr(a) - log_mass) + np.arange(-4, 5) * 2.0**-60
        assert np.any(np.log(u) + log_mass == uf.log_ndtr(a))
        assert np.array_equal(pic.demand_quantile(p, u), self._reference(p).ppf(u))

    def test_params_need_mean_inside_range(self):
        p = pic.instance_from_table(1)
        for bad in ({"demand_range": (5.0, 10.0)}, {"demand_mean": 10.0}, {"demand_sd": 0.0}):
            with pytest.raises(ValueError):
                dataclasses.replace(p, **bad)


_SAME_UFUNCS = """
import sys
import numpy as np
{first}
{second}
from scipy.special import ndtri_exp
from scipy.stats import truncnorm
from ralp import pic
assert sys.modules["scipy.special._ufuncs"] is pic._ufuncs and pic._ufuncs.ndtri_exp is ndtri_exp
p = pic.instance_from_table(1)
u = np.concatenate([[0.0, 5e-324, 0.5, 1.0 - 2.0**-53], np.random.default_rng(5).random(100_000)])
ref = truncnorm.ppf(u, -2.5, 2.5, loc=p.demand_mean, scale=p.demand_sd)
assert np.array_equal(pic.demand_quantile(p, u), ref)
"""


@pytest.mark.parametrize("first, second", [("import ralp.pic", "import scipy.special, scipy.stats"),
                                           ("import scipy.special, scipy.stats", "import ralp.pic")])
def test_scipy_special_shares_the_loaded_ufuncs(first, second):
    # ralp loads scipy.special's ufunc extension by file path; importing
    # scipy.special before or after must give one module object and the same bits
    src = str(Path(pic.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = _SAME_UFUNCS.format(first=first, second=second)
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def _box_value(lo, hi):
    return st.one_of(st.sampled_from([lo, hi]), st.floats(lo, hi))


@st.composite
def _closed_form_case(draw):
    """An instance, a demand set with exact breakpoint ties, and in-box (s, a) rows."""
    p = pic.instance_from_table(draw(st.sampled_from([1, 7, 16])))
    k = draw(st.sampled_from([1, 2, 7, 500]))
    demand = pic.sample_demand(p, split_rng(draw(st.integers(0, 1000)), 0), k)
    rows = draw(
        st.lists(
            st.tuples(
                _box_value(p.s_min, p.a_max),
                _box_value(0.0, p.a_max),
                _box_value(0.0, p.a_max),
                _box_value(0.0, p.a_max),
                st.sampled_from(["none", "s0", "t", "s1=0, s0=s_min"]),
            ),
            min_size=1,
            max_size=6,
        )
    )
    states, actions = [], []
    for i, (s0, s1, s2, a, tie) in enumerate(rows):
        if tie == "s1=0, s0=s_min":
            s0, s1 = p.s_min, 0.0
        if tie == "s0":  # an atom at the first breakpoint
            demand[i % k] = s0
        if tie == "t":  # an atom at the second breakpoint s0 + s1 - s_min
            demand[i % k] = s0 + s1 - p.s_min
        states.append((s0, s1, s2))
        actions.append((a,))
    sigma_range = draw(st.sampled_from([(100.0, 1000.0), (0.5, 5.0)]))
    bases = sample_fourier(draw(st.integers(1, 8)), 3, sigma_range, draw(st.integers(0, 1000)))
    mdp = dataclasses.replace(pic.build_pic_mdp(p, demand_saa_size=1), noise=NoiseModel(values=demand))
    return mdp, bases, np.array(states), np.array(actions)


def _zero_cost_case():
    # one demand atom xi = 6.6e-30 at s = (s_min, a_max, 0), a = 0: enumeration
    # rounds the backlog xi - s0 - s1 to exactly 0, so the expected cost is 0,
    # where the closed form gives 7.9e-29
    p = pic.instance_from_table(1)
    mdp = dataclasses.replace(pic.build_pic_mdp(p, demand_saa_size=1), noise=NoiseModel(values=np.array([6.60877544e-30])))
    return mdp, sample_fourier(1, 3, (100.0, 1000.0), 0), np.array([[p.s_min, p.a_max, 0.0]]), np.array([[0.0]])


class TestClosedForm:
    """The closed-form demand expectations against successor enumeration."""

    @settings(max_examples=300, deadline=None)
    @given(_closed_form_case())
    @example(_zero_cost_case())
    def test_matches_enumeration(self, case):
        mdp, bases, states, actions = case
        m, k = len(states), len(mdp.noise.values)
        w = mdp.noise.weights
        nxt = batch_next_states(mdp, states, actions).reshape(m * k, 3)
        exp_cos = w @ features(bases, nxt).reshape(m, k, len(bases))
        exp_sin = w @ np.sin(nxt @ bases.omega.T + bases.q).reshape(m, k, len(bases))
        exp_cost = mdp.cost(states[:, None, :], actions[:, None, :], mdp.noise.values[None, :]) @ w

        z = expected_successor_phases(mdp, bases)(states, actions)
        assert np.abs(z.real - exp_cos).max() <= 1e-12
        assert np.abs(z.imag - exp_sin).max() <= 1e-12
        cost = batch_expected_costs(mdp, states, actions)
        assert np.all(np.abs(cost - exp_cost) <= 1e-12 * np.maximum(np.abs(exp_cost), 1.0))

    def test_noise_replacement_is_seen(self):
        # the closed forms read the MDP's current noise model, not the one it was built with
        p = pic.instance_from_table(1)
        mdp = pic.build_pic_mdp(p, demand_saa_size=50)
        single = dataclasses.replace(mdp, noise=NoiseModel(values=np.array([5.0])))
        cost = batch_expected_costs(single, np.array([[5.0, 5.0, 5.0]]), np.array([[5.0]]))
        assert cost[0] == pytest.approx(100.25, abs=1e-12)
