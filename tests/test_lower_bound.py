import dataclasses
import math

import numpy as np
import pytest

from ralp import pic, policy, toy
from ralp.alp import VfaWeights
from ralp.bases import empty_stumps, fixed_fourier, sample_fourier
from ralp.lower_bound import (
    LipschitzConstants,
    SaddleConfig,
    estimate_lower_bound,
    y_value,
)
from ralp.mdp import NoiseModel, batch_expected_costs
from ralp.pic import pic_constants


@pytest.fixture(scope="module")
def pic1_mdp():
    return pic.build_pic_mdp(pic.instance_from_table(1), demand_saa_size=500, demand_seed=0)


class TestYValue:
    def test_zero_vfa_reduces_to_discounted_cost(self, pic1_mdp):
        w = VfaWeights.zero(0)
        bases = empty_stumps(3)
        s, a = np.array([2.0, 1.0, 4.0]), np.array([3.0])
        expected = batch_expected_costs(pic1_mdp, s[None, :], a[None, :])[0] / (1.0 - pic1_mdp.gamma)
        assert y_value(pic1_mdp, bases, w, s, a) == pytest.approx(expected, abs=1e-9)

    def test_toy_zero_cost_state(self, toy_mdp, toy_nu_samples):
        w = VfaWeights.zero(1)
        bases = fixed_fourier([2.0])
        val = y_value(toy_mdp, bases, w, [0.5], [0.8], chi_samples=toy_nu_samples)
        assert val == 0.0  # c(0.5, a) = 0 and V = 0 everywhere

    def test_pic_single_demand_hand_value(self):
        p = pic.instance_from_table(1)
        mdp = pic.build_pic_mdp(p, demand_saa_size=1)
        mdp = dataclasses.replace(mdp, noise=NoiseModel(values=np.array([5.0])))
        w = VfaWeights.zero(0)
        val = y_value(mdp, empty_stumps(3), w, [5.0, 5.0, 5.0], [5.0])
        assert val == pytest.approx(100.25 / 0.05, abs=1e-9)  # 2005

    def test_infeasible_pair_rejected(self, pic1_mdp):
        with pytest.raises(Exception):
            y_value(pic1_mdp, empty_stumps(3), VfaWeights.zero(0), [0.0, 0.0, 0.0], [99.0])


class TestPicConstants:
    def test_instance1_printed_formula(self):
        # 2 (0.95^2*20*10 + 2*10 + 10*(-10) + 5*10 + 100*10) with the backlog
        # term entering at the sign of s_min, exactly as printed
        consts = pic_constants(pic.instance_from_table(1), VfaWeights.zero(0))
        hand = 2.0 * (0.95**2 * 20 * 10 + 2 * 10 + 10 * (-10) + 5 * 10 + 100 * 10)
        assert hand == 2301.0
        assert consts.l_c == pytest.approx(2301.0, abs=1e-9)

    def test_geometry_constants(self):
        consts = pic_constants(pic.instance_from_table(1), VfaWeights.zero(0))
        assert consts.radius == 5.0
        assert consts.diameter == 700.0  # 3 a^2 + (s_min - a)^2, verbatim form
        assert consts.d_sa == 4

    def test_l_y_zero_weights(self):
        p = pic.instance_from_table(1)
        consts = pic_constants(p, VfaWeights.zero(0))
        assert consts.l_y == pytest.approx(consts.l_c / (1.0 - p.gamma))

    def test_l_y_grows_with_weight_norm(self):
        p = pic.instance_from_table(1)
        w = VfaWeights(beta0=2.0, betas=np.array([1.0, -3.0]))
        consts = pic_constants(p, w)
        assert consts.l_y == pytest.approx((4.0 * 6.0 + consts.l_c) / (1.0 - p.gamma))

    def test_default_lambda_in_unit_interval(self):
        for i in (1, 8, 16):
            consts = pic_constants(pic.instance_from_table(i), VfaWeights.zero(0))
            lam = consts.default_lam()
            assert 0.0 < lam <= 1.0
            assert lam == pytest.approx(1.0 / (abs(consts.big_lambda) + 4))


class TestEstimator:
    def test_constant_y_recovers_value_plus_correction(self, toy_mdp, toy_nu_samples):
        # constant cost and zero VFA make y identically c/(1-gamma)
        const_mdp = dataclasses.replace(
            toy_mdp,
            cost=lambda s, a, xi: 0.7 + 0.0 * (s[..., 0] + xi),
        )
        consts = LipschitzConstants(l_c=1.0, l_y=1.0, big_lambda=-5.0, d_sa=2, radius=0.5, diameter=2.0)
        cfg = SaddleConfig(chains=3, chain_length=50, burn_in=10, lam=0.5, seed=1)
        est = estimate_lower_bound(
            const_mdp, fixed_fourier([2.0]), VfaWeights.zero(1), cfg, consts, chi_samples=toy_nu_samples
        )
        k = 0.7 / 0.1
        assert est.mean_y == pytest.approx(k, abs=1e-9)
        assert est.bound == pytest.approx(k + 0.5 * (-5.0 + 2 * math.log(0.5)), abs=1e-9)
        assert est.stderr == pytest.approx(0.0, abs=1e-12)

    def test_validity_against_toy_optimum(self, toy_mdp, toy_nu_samples):
        # with the exact value function, the bound must sit below the optimal cost
        value_fn = lambda states: np.abs(np.atleast_2d(states)[:, 0] - 0.5) / 0.91
        l_y = (1.0 + 1.1) / 0.1  # crude Lipschitz bound for y on the unit square
        vol = 1.0
        lam_big = -math.log(math.gamma(2.0) * (0.5 * math.sqrt(math.pi)) ** -2 * vol) - l_y * (0.5 + math.sqrt(2.0))
        consts = LipschitzConstants(l_c=1.0, l_y=l_y, big_lambda=lam_big, d_sa=2, radius=0.5, diameter=math.sqrt(2.0))
        cfg = SaddleConfig(chains=6, chain_length=400, burn_in=200, seed=3)
        est = estimate_lower_bound(
            toy_mdp, fixed_fourier([2.0]), VfaWeights.zero(1), cfg, consts,
            chi_samples=toy_nu_samples, value_fn=value_fn,
        )
        assert est.bound <= 0.25 / 0.91 + 1e-3

    def test_deterministic_given_seed(self, pic1_mdp):
        w = VfaWeights.zero(0)
        consts = pic_constants(pic.instance_from_table(1), w)
        cfg = SaddleConfig(chains=3, chain_length=100, burn_in=50, seed=5)
        a = estimate_lower_bound(pic1_mdp, empty_stumps(3), w, cfg, consts)
        b = estimate_lower_bound(pic1_mdp, empty_stumps(3), w, cfg, consts)
        assert a.bound == b.bound and a.stderr == b.stderr

    def test_acceptance_rates_reported(self, pic1_mdp):
        w = VfaWeights.zero(0)
        consts = pic_constants(pic.instance_from_table(1), w)
        cfg = SaddleConfig(chains=4, chain_length=80, burn_in=40, seed=6)
        est = estimate_lower_bound(pic1_mdp, empty_stumps(3), w, cfg, consts)
        assert len(est.acceptance_rates) == 4
        assert all(0.0 <= r <= 1.0 for r in est.acceptance_rates)

    def test_validity_vs_simulated_policy(self, pic1_mdp):
        # instance-level check: zero-VFA bound below the myopic policy's cost
        w = VfaWeights.zero(0)
        bases = empty_stumps(3)
        consts = pic_constants(pic.instance_from_table(1), w)
        cfg = SaddleConfig(chains=4, chain_length=400, burn_in=200, seed=7)
        est = estimate_lower_bound(pic1_mdp, bases, w, cfg, consts)
        sim = policy.SimConfig(horizon=183, replications=12, action_grid=11, rollout_seed=7)
        pc = policy.simulate_policy_cost(pic1_mdp, bases, w, sim)
        assert est.bound <= pc.mean + 3.0 * (pc.stderr + est.stderr)

    def test_all_rejected_raises(self, monkeypatch, pic1_mdp):
        from ralp import lower_bound as lb_mod

        counter = {"n": 0}

        def rising_y(mdp, fn, states, actions, e_chi):
            counter["n"] += 1
            return np.full(len(states), float(counter["n"]))

        monkeypatch.setattr(lb_mod, "_y_batch", rising_y)
        w = VfaWeights.zero(0)
        consts = pic_constants(pic.instance_from_table(1), w)
        cfg = SaddleConfig(chains=2, chain_length=20, burn_in=5, lam=1e-12, seed=8)
        with pytest.raises(RuntimeError, match="rejected"):
            lb_mod.estimate_lower_bound(pic1_mdp, empty_stumps(3), w, cfg, consts)


class TestChainStationarity:
    def test_mean_y_matches_target_density(self, toy_mdp):
        # Zero VFA and chi at 0.5 make y(s, a) = 10 |s - 0.5| on the unit
        # square.  The chains target exp(-y / lambda), so with k = 10 / lambda
        # |s - 0.5| has density proportional to exp(-k u) on [0, 1/2] and
        # E_Y[y] = 10 (1/k - (1/2) e^{-k/2} / (1 - e^{-k/2})).  A rule that
        # ignored lambda would give 0.966 and accepting every move 2.5.
        lam = 0.5
        k = 10.0 / lam
        exact = 10.0 * (1.0 / k - 0.5 * math.exp(-k / 2) / (1.0 - math.exp(-k / 2)))
        assert exact == pytest.approx(0.499773, abs=1e-6)
        consts = LipschitzConstants(l_c=1.0, l_y=10.0, big_lambda=-5.0, d_sa=2, radius=0.5, diameter=2.0)
        cfg = SaddleConfig(chains=8, chain_length=20_000, burn_in=1000, lam=lam, proposal_frac=0.2, seed=1)
        est = estimate_lower_bound(
            toy_mdp, empty_stumps(1), VfaWeights.zero(0), cfg, consts, chi_samples=np.array([[0.5]])
        )
        assert est.stderr > 0.0
        assert abs(est.mean_y - exact) <= 4.0 * est.stderr
