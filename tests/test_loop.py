import dataclasses

import numpy as np
import pytest

from ralp import loop, toy
from ralp.alp import LpModel, LpSolution, ScipyBackend, SolverError, grid_plan, uniform_plan, vfa_values
from ralp.bases import fixed_fourier, sample_fourier
from ralp.loop import FluctuationStats, IterationRecord, LoopConfig, fluctuation_stats, run
from ralp.mdp import split_rng
from ralp.policy import SimConfig
from tests.conftest import TOY_ACTIONS, TOY_STATES


# seed 6 reproduces the reference third-iteration policy flip in scenario 2;
# the competing VFA minima are nearly tied, so the sampled state-relevance
# estimate decides which LP vertex is optimal
def _toy_config(thetas, batch=1, tolerance=0.01, model="falp", seed=6, reps=400):
    return LoopConfig(
        batch=batch,
        tolerance=tolerance,
        model_kind=model,
        seed=seed,
        sim=SimConfig(horizon=66, replications=reps, action_grid=101, rollout_seed=seed),
        plan=grid_plan(TOY_STATES, TOY_ACTIONS),
        bases=fixed_fourier(thetas),
    )


@pytest.fixture(scope="module")
def scenario1(backend, toy_mdp):
    return run(toy_mdp, _toy_config((2.0, -5.0, 3.0)), backend)


@pytest.fixture(scope="module")
def scenario2(backend, toy_mdp):
    return run(toy_mdp, _toy_config((2.0, -5.0, 40.0)), backend)


class TestAlgorithmLoop:
    def test_tolerance_one_stops_after_first_iteration(self, toy_mdp, backend):
        cfg = _toy_config((2.0, -5.0), tolerance=1.0)
        result = run(toy_mdp, cfg, backend)
        assert len(result.records) == 1
        assert result.converged

    def test_saddle_bound_needs_problem_constants(self, toy_mdp, backend):
        # the toy MDP defines no saddle_constants
        cfg = dataclasses.replace(_toy_config((2.0,), reps=2), lb_method="saddle")
        with pytest.raises(ValueError, match="saddle lower bound constants"):
            run(toy_mdp, cfg, backend)

    def test_scenario1_iteration_records(self, scenario1):
        assert [r.num_bases for r in scenario1.records] == [1, 2, 3]
        r3 = scenario1.records[-1]
        assert 0.20 <= r3.lb <= 0.26  # reference value 0.23
        assert 0.31 <= r3.pc <= 0.40  # reference value 0.34 (101-point action grid)
        assert 0.25 <= r3.tau_star <= 0.40  # reference gap 30.2%

    def test_scenario2_fluctuation_and_incumbents(self, scenario2):
        r3 = scenario2.records[-1]
        assert 1.05 <= r3.pc <= 1.25  # raw third-iteration policy cost, reference value 1.14
        assert 0.36 <= r3.incumbent_pc <= 0.42  # incumbent stays at the 2-basis policy
        assert r3.incumbent_pc_bases == 2
        assert 0.45 <= r3.tau_star <= 0.60  # reference gap 53.5%

    def test_incumbent_monotonicity(self, scenario1, scenario2):
        for res in (scenario1, scenario2):
            lbs = [r.incumbent_lb for r in res.records]
            pcs = [r.incumbent_pc for r in res.records]
            assert all(lbs[i] <= lbs[i + 1] + 1e-12 for i in range(len(lbs) - 1))
            assert all(pcs[i] >= pcs[i + 1] - 1e-12 for i in range(len(pcs) - 1))

    def test_raw_lb_monotone_when_nu_equals_chi(self, scenario1, scenario2):
        for res in (scenario1, scenario2):
            lbs = [r.lb for r in res.records]
            assert all(lbs[i] <= lbs[i + 1] + 1e-9 for i in range(len(lbs) - 1))

    def test_deterministic_traces(self, toy_mdp, backend, scenario1):
        again = run(toy_mdp, _toy_config((2.0, -5.0, 3.0)), backend)
        for a, b in zip(scenario1.records, again.records):
            assert (a.lb, a.pc, a.pc_stderr, a.tau_star) == (b.lb, b.pc, b.pc_stderr, b.tau_star)

    def test_max_bases_cap_reported(self, toy_mdp, backend):
        cfg = _toy_config((2.0, -5.0), tolerance=0.001)
        result = run(toy_mdp, cfg, backend)
        assert not result.converged
        assert result.records[-1].num_bases == 2

    def test_solver_failure_carries_partial_trace(self, toy_mdp):
        class FailingBackend:
            def __init__(self):
                self.calls = 0

            def solve(self, model):
                self.calls += 1
                if self.calls >= 2:
                    return LpSolution(status="numeric", x=None, objective=None, max_violation=None)
                return ScipyBackend().solve(model)

        cfg = _toy_config((2.0, -5.0), tolerance=0.001, reps=50)
        with pytest.raises(SolverError) as err:
            run(toy_mdp, cfg, FailingBackend())
        assert len(err.value.trace) == 1

    def test_fglp_chain_monotone_at_guide_states(self, toy_mdp, backend):
        cfg = LoopConfig(
            batch=2,
            tolerance=0.01,
            model_kind="fglp",
            seed=31,
            sim=SimConfig(horizon=66, replications=100, action_grid=101, rollout_seed=31),
            plan=uniform_plan(toy_mdp, 2000, split_rng(31, 21)),
            bases=sample_fourier(10, 1, (0.2, 1.0), 31),
        )
        result = run(toy_mdp, cfg, backend)
        assert len(result.records) == 5
        guide = result.plan.guide_states
        prev_vals = None
        for n, w in zip((2, 4, 6, 8, 10), result.iterate_weights):
            vals = vfa_values(result.bases.prefix(n), w, guide)
            if prev_vals is not None:
                assert np.min(vals - prev_vals) >= -1e-6
            prev_vals = vals


class TestFluctuationStats:
    def test_strictly_decreasing(self):
        trace = [_rec(i, pc) for i, pc in enumerate([5.0, 4.0, 3.0])]
        stats = fluctuation_stats(trace)
        assert stats == FluctuationStats(0.0, 0.0)

    def test_hand_counted_example(self):
        trace = [_rec(i, pc) for i, pc in enumerate([10.0, 12.0, 11.0, 13.0])]
        stats = fluctuation_stats(trace)
        assert stats.fluctuation_pct == pytest.approx(100.0 * 2.0 / 3.0)
        assert stats.fluctuation_magnitude == pytest.approx(2.0)

    def test_short_trace_rejected(self):
        with pytest.raises(ValueError):
            fluctuation_stats([_rec(0, 1.0)])

    def test_magnitude_zero_iff_pct_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            pcs = rng.random(6)
            stats = fluctuation_stats([_rec(i, pc) for i, pc in enumerate(pcs)])
            assert (stats.fluctuation_pct == 0.0) == (stats.fluctuation_magnitude == 0.0)


def _rec(i, pc):
    return IterationRecord(
        num_bases=i + 1,
        lb=0.0,
        pc=pc,
        pc_stderr=0.0,
        tau_star=1.0,
        lb_expectation=0.0,
        lb_saddle=None,
        lb_saddle_stderr=None,
        saddle_acceptance=None,
        incumbent_lb_bases=1,
        incumbent_pc_bases=1,
        incumbent_lb=0.0,
        incumbent_pc=pc,
        wallclock=0.0,
    )


class TestLoopConfigValidation:
    def test_bad_values(self):
        sim = SimConfig(horizon=10, replications=5, action_grid=11, rollout_seed=0)
        fields = dict(model_kind="falp", seed=0, sim=sim, plan=grid_plan(TOY_STATES, TOY_ACTIONS))
        bases = fixed_fourier([2.0, -5.0, 3.0, 4.0])
        with pytest.raises(ValueError):
            LoopConfig(**fields, batch=0, tolerance=0.1, bases=bases)
        with pytest.raises(ValueError):
            LoopConfig(**fields, batch=1, tolerance=0.0, bases=bases)
        with pytest.raises(ValueError):
            LoopConfig(**{**fields, "model_kind": "elp"}, batch=1, tolerance=0.1, bases=bases)
        # the last batch would run past the end of the basis set
        with pytest.raises(ValueError, match="multiple of batch 3"):
            LoopConfig(**fields, batch=3, tolerance=0.1, bases=bases)
        with pytest.raises(ValueError, match="multiple of batch 1"):
            LoopConfig(**fields, batch=1, tolerance=0.1, bases=bases[:0])
