import dataclasses
import math

import numpy as np
import pytest

from ralp import pic, policy, toy
from ralp.alp import VfaWeights, build_falp, lb_expectation, padded_rows
from ralp.bases import empty_stumps, fixed_fourier, sample_fourier
from ralp import lower_bound as lb_mod
from ralp.lower_bound import (
    LipschitzConstants,
    LowerBoundEstimate,
    SaddleConfig,
    estimate_lower_bound,
)
from ralp.mdp import NoiseModel, batch_expected_costs, split_rng
from ralp.pic import pic_constants
from tests.conftest import solve


@pytest.fixture(scope="module")
def pic1_mdp():
    return pic.build_pic_mdp(pic.instance_from_table(1), demand_saa_size=500, demand_seed=0)


@pytest.fixture(scope="module")
def pic1_vfa():
    """20 Fourier bases and a nonzero VFA on pic:1, with its saddle constants."""
    bases = sample_fourier(20, 3, (100.0, 1000.0), 4)
    w = VfaWeights(beta0=150.0, betas=np.random.default_rng(9).normal(0.0, 40.0, 20))
    return bases, w, pic_constants(pic.instance_from_table(1), w)


@pytest.fixture(scope="module")
def toy_vfa(toy_grid_prepared, toy_nu_samples, backend):
    """The solved two-basis toy VFA, with saddle constants valid for it.

    V = beta0 + sum_j beta_j cos(omega_j s) is Lipschitz with L_V = sum_j
    |beta_j omega_j|, and the cost |s - 0.5| with l_c = 1, so
    y(s, a) = E_chi[V] + (c(s) + gamma (0.1 V(s) + 0.9 V(a)) - V(s)) / (1 - gamma)
    changes by at most l_y = (1 + (1 + gamma) L_V) / (1 - gamma) per unit of
    distance in (s, a).  Lambda takes ``pic_constants``' form on the unit
    square: d = 2, radius 1/2, diameter sqrt(2), volume 1.
    """
    bases = fixed_fourier([2.0, -5.0])
    w, _ = solve(build_falp(toy_grid_prepared, bases, toy_nu_samples), backend)
    l_v = float(np.abs(w.betas * bases.omega[:, 0]).sum())
    l_y = (1.0 + (1.0 + toy.GAMMA) * l_v) / (1.0 - toy.GAMMA)
    radius, diameter = 0.5, math.sqrt(2.0)
    big_lambda = -math.log(math.gamma(2.0) * (radius * math.sqrt(math.pi)) ** -2) - l_y * (radius + diameter)
    consts = LipschitzConstants(l_c=1.0, l_y=l_y, big_lambda=big_lambda, d_sa=2, radius=radius, diameter=diameter)
    return bases, w, consts


def _e_chi(mdp, bases, w, chi_samples=None):
    """E_chi[V] over ``chi_samples``, by default the atom of a degenerate initial distribution."""
    if chi_samples is None:
        chi_samples = np.atleast_2d(mdp.initial_dist.atom)
    return lb_expectation(bases, w, chi_samples)


def _reference_mh(mdp, bases, w, cfg, consts, e_chi):
    """The step-by-step Metropolis-Hastings loop: one ``_y_batch`` call per step."""
    lam = cfg.lam if cfg.lam is not None else consts.default_lam()
    lo = np.concatenate([mdp.state_lo, mdp.action_lo])
    hi = np.concatenate([mdp.state_hi, mdp.action_hi])
    step = cfg.proposal_frac * (hi - lo)
    d, ds = len(lo), mdp.dim_state
    terms = lb_mod._bellman_terms(mdp, bases, w)
    rngs = [split_rng(cfg.seed, 211, c) for c in range(cfg.chains)]
    x = np.stack([lo + (hi - lo) * rngs[c].random(d) for c in range(cfg.chains)])
    y = lb_mod._y_batch(mdp, terms, x[:, :ds], x[:, ds:], e_chi)
    kept_sums = np.zeros(cfg.chains)
    kept_counts = np.zeros(cfg.chains, dtype=int)
    accepts = np.zeros(cfg.chains, dtype=int)
    for t in range(cfg.chain_length):
        noise = np.stack([rngs[c].normal(0.0, 1.0, d) for c in range(cfg.chains)])
        proposal = lb_mod._reflect(x + step * noise, lo, hi)
        y_new = lb_mod._y_batch(mdp, terms, proposal[:, :ds], proposal[:, ds:], e_chi)
        u = np.array([rngs[c].random() for c in range(cfg.chains)])
        accept = np.log(u) * lam <= y - y_new
        x[accept] = proposal[accept]
        y[accept] = y_new[accept]
        accepts += accept
        if t >= cfg.burn_in:
            kept_sums += y
            kept_counts += 1
    chain_means = kept_sums / kept_counts
    mean_y = float(chain_means.mean())
    stderr = float(chain_means.std(ddof=1) / math.sqrt(cfg.chains)) if cfg.chains > 1 else 0.0
    correction = lam * (consts.big_lambda + consts.d_sa * math.log(lam))
    return LowerBoundEstimate(
        bound=mean_y + correction, stderr=stderr, mean_y=mean_y, correction=correction,
        lam=lam, acceptance_rates=tuple(accepts / cfg.chain_length),
    )


def _y(mdp, bases, w, states, actions, chi_samples=None):
    """y per (state, action) row, as the MH chains evaluate it."""
    e_chi = _e_chi(mdp, bases, w, chi_samples)
    terms = lb_mod._bellman_terms(mdp, bases, w)
    return lb_mod._y_batch(mdp, terms, np.array(states, dtype=float), np.array(actions, dtype=float), e_chi)


class TestYValue:
    def test_zero_vfa_reduces_to_discounted_cost(self, pic1_mdp):
        w = VfaWeights.zero(0)
        bases = empty_stumps(3)
        s, a = np.array([[2.0, 1.0, 4.0]]), np.array([[3.0]])
        expected = batch_expected_costs(pic1_mdp, s, a)[0] / (1.0 - pic1_mdp.gamma)
        assert _y(pic1_mdp, bases, w, s, a)[0] == pytest.approx(expected, abs=1e-9)

    def test_toy_zero_cost_state(self, toy_mdp, toy_nu_samples):
        w = VfaWeights.zero(1)
        bases = fixed_fourier([2.0])
        val = _y(toy_mdp, bases, w, [[0.5]], [[0.8]], chi_samples=toy_nu_samples)[0]
        assert val == 0.0  # c(0.5, a) = 0 and V = 0 everywhere

    def test_pic_single_demand_hand_value(self):
        p = pic.instance_from_table(1)
        mdp = pic.build_pic_mdp(p, demand_saa_size=1)
        mdp = dataclasses.replace(mdp, noise=NoiseModel(values=np.array([5.0])))
        w = VfaWeights.zero(0)
        val = _y(mdp, empty_stumps(3), w, [[5.0, 5.0, 5.0]], [[5.0]])[0]
        assert val == pytest.approx(100.25 / 0.05, abs=1e-9)  # 2005


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
        bases, w = fixed_fourier([2.0]), VfaWeights.zero(1)
        est = estimate_lower_bound(const_mdp, bases, w, cfg, consts, _e_chi(const_mdp, bases, w, toy_nu_samples))
        k = 0.7 / 0.1
        assert est.mean_y == pytest.approx(k, abs=1e-9)
        assert est.bound == pytest.approx(k + 0.5 * (-5.0 + 2 * math.log(0.5)), abs=1e-9)
        assert est.stderr == pytest.approx(0.0, abs=1e-12)

    def test_validity_against_toy_optimum(self, toy_mdp, toy_nu_samples, toy_vfa):
        # with constants valid for the VFA, the bound must sit below the optimal cost
        bases, w, consts = toy_vfa
        cfg = SaddleConfig(chains=6, chain_length=400, burn_in=200, seed=3)
        est = estimate_lower_bound(toy_mdp, bases, w, cfg, consts, _e_chi(toy_mdp, bases, w, toy_nu_samples))
        assert est.bound <= 0.25 / 0.91 + 1e-3

    def test_deterministic_given_seed(self, pic1_mdp):
        w = VfaWeights.zero(0)
        consts = pic_constants(pic.instance_from_table(1), w)
        cfg = SaddleConfig(chains=3, chain_length=100, burn_in=50, seed=5)
        e_chi = _e_chi(pic1_mdp, empty_stumps(3), w)
        a = estimate_lower_bound(pic1_mdp, empty_stumps(3), w, cfg, consts, e_chi)
        b = estimate_lower_bound(pic1_mdp, empty_stumps(3), w, cfg, consts, e_chi)
        assert a.bound == b.bound and a.stderr == b.stderr

    def test_acceptance_rates_reported(self, pic1_mdp):
        w = VfaWeights.zero(0)
        consts = pic_constants(pic.instance_from_table(1), w)
        cfg = SaddleConfig(chains=4, chain_length=80, burn_in=40, seed=6)
        est = estimate_lower_bound(pic1_mdp, empty_stumps(3), w, cfg, consts, _e_chi(pic1_mdp, empty_stumps(3), w))
        assert len(est.acceptance_rates) == 4
        assert all(0.0 <= r <= 1.0 for r in est.acceptance_rates)

    def test_validity_vs_simulated_policy(self, pic1_mdp):
        # instance-level check: zero-VFA bound below the myopic policy's cost
        w = VfaWeights.zero(0)
        bases = empty_stumps(3)
        consts = pic_constants(pic.instance_from_table(1), w)
        cfg = SaddleConfig(chains=4, chain_length=400, burn_in=200, seed=7)
        est = estimate_lower_bound(pic1_mdp, bases, w, cfg, consts, _e_chi(pic1_mdp, bases, w))
        sim = policy.SimConfig(horizon=183, replications=12, action_grid=11, rollout_seed=7)
        pc = policy.simulate_policy_cost(pic1_mdp, policy.greedy_policy(pic1_mdp, bases, w, sim.action_grid), sim)
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
            lb_mod.estimate_lower_bound(pic1_mdp, empty_stumps(3), w, cfg, consts, _e_chi(pic1_mdp, empty_stumps(3), w))


class TestSpeculativeBlocks:
    """The blocked chains against the step-by-step loop they replace."""

    @pytest.mark.parametrize("chains", [4, 8])
    @pytest.mark.parametrize("length, burn_in", [(37, 5), (600, 300)])
    def test_pic_equals_step_by_step(self, pic1_mdp, pic1_vfa, chains, length, burn_in):
        bases, w, consts = pic1_vfa
        cfg = SaddleConfig(chains=chains, chain_length=length, burn_in=burn_in, seed=12)
        e_chi = _e_chi(pic1_mdp, bases, w)
        est = estimate_lower_bound(pic1_mdp, bases, w, cfg, consts, e_chi)
        ref = _reference_mh(pic1_mdp, bases, w, cfg, consts, e_chi)
        assert 0.0 < sum(ref.acceptance_rates) < chains  # chains both stay and move
        assert est == ref

    @pytest.mark.parametrize("chains", [4, 8])
    def test_toy_vfa_equals_step_by_step(self, toy_mdp, toy_nu_samples, toy_vfa, chains):
        bases, w, consts = toy_vfa
        cfg = SaddleConfig(chains=chains, chain_length=150, burn_in=70, lam=0.3, proposal_frac=0.1, seed=2)
        args = (toy_mdp, bases, w, cfg, consts, _e_chi(toy_mdp, bases, w, toy_nu_samples))
        assert estimate_lower_bound(*args) == _reference_mh(*args)

    @pytest.mark.parametrize("chains", [2, 3, 6])
    def test_other_chain_counts_agree_to_the_last_bits(self, pic1_mdp, pic1_vfa, toy_mdp, toy_nu_samples, toy_vfa, chains):
        # a step batch of these sizes ends in a short BLAS block, whose rows
        # differ from the blocked evaluation in the last bit
        bases, w, consts = pic1_vfa
        cfg = SaddleConfig(chains=chains, chain_length=200, burn_in=90, seed=3)
        toy_bases, toy_w, toy_consts = toy_vfa
        toy_cfg = SaddleConfig(chains=chains, chain_length=150, burn_in=70, lam=0.3, proposal_frac=0.1, seed=2)
        pic_args = (pic1_mdp, bases, w, cfg, consts, _e_chi(pic1_mdp, bases, w))
        toy_args = (toy_mdp, toy_bases, toy_w, toy_cfg, toy_consts, _e_chi(toy_mdp, toy_bases, toy_w, toy_nu_samples))
        for est, ref in (
            (estimate_lower_bound(*pic_args), _reference_mh(*pic_args)),
            (estimate_lower_bound(*toy_args), _reference_mh(*toy_args)),
        ):
            assert est.acceptance_rates == ref.acceptance_rates
            for f in ("bound", "stderr", "mean_y"):
                assert getattr(est, f) == pytest.approx(getattr(ref, f), rel=1e-12)

    def test_padded_batches_match_eight_row_batches(self, pic1_mdp, pic1_vfa):
        # Bit-identity of the blocked chains rests on this property of the
        # BLAS: a row in a full block of 4 gets the same y whatever the batch
        # size.  A numpy or OpenBLAS upgrade that changes the kernel blocking
        # fails here first.
        bases, w, _ = pic1_vfa
        mdp = pic1_mdp
        lo = np.concatenate([mdp.state_lo, mdp.action_lo])
        hi = np.concatenate([mdp.state_hi, mdp.action_hi])
        points = lo + (hi - lo) * np.random.default_rng(5).random((40, len(lo)))
        e_chi = _e_chi(mdp, bases, w)
        terms = lb_mod._bellman_terms(mdp, bases, w)
        ds = mdp.dim_state

        def y_of(rows):
            return lb_mod._y_batch(mdp, terms, rows[:, :ds], rows[:, ds:], e_chi)

        eight_rows = np.concatenate([y_of(points[i : i + 8]) for i in range(0, 40, 8)])
        for m in range(1, 41):
            padded = padded_rows(points[:m])
            assert len(padded) % 4 == 0 and len(padded) - m < 4
            assert list(y_of(padded)[:m]) == list(eight_rows[:m]), f"{m} rows"


class TestSaddleConfigValidation:
    @pytest.mark.parametrize("frac", [0.0, -0.05, math.nan, math.inf])
    def test_bad_proposal_frac_rejected(self, frac):
        with pytest.raises(ValueError, match="proposal_frac"):
            SaddleConfig(proposal_frac=frac)

    def test_positive_proposal_frac_accepted(self):
        assert SaddleConfig(proposal_frac=1e-3).proposal_frac == 1e-3


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
        bases, w = empty_stumps(1), VfaWeights.zero(0)
        est = estimate_lower_bound(toy_mdp, bases, w, cfg, consts, _e_chi(toy_mdp, bases, w, np.array([[0.5]])))
        assert est.stderr > 0.0
        assert abs(est.mean_y - exact) <= 4.0 * est.stderr
