"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report.  Criterion 5 checks the discounted state occupancy of the toy
policy against its closed form; README, "Testing and the acceptance suite",
gives the definition and the values.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from ralp import cli, gjr, pic, policy, toy
from ralp.alp import (
    ScipyBackend,
    build_falp,
    grid_plan,
    nu_sample_set,
    prepare_plan,
    uniform_plan,
    vfa_values,
)
from ralp.bases import BoundConstants, falp_sample_bound, fixed_fourier, sample_fourier, sample_stumps
from ralp.loop import LoopConfig, fluctuation_stats, run as run_loop
from ralp.lower_bound import SaddleConfig
from ralp.mdp import split_rng
from ralp.policy import SimConfig
from tests.conftest import TOY_ACTIONS, TOY_STATES, solve, toy_constant_action_shares, toy_constant_policy_cost

# seed whose state-relevance sample reproduces the reference scenario-2
# policy flip (the competing VFA minima are nearly tied; see README,
# "Testing and the acceptance suite")
TOY_SEED = 6

PIC_SEEDS = (1, 2, 3, 4, 5)


def greedy_at(mdp, bases, w, state: float) -> float:
    """The greedy action at one toy state on the 101-point action grid."""
    act = policy.greedy_policy(mdp, bases, w, 101)
    return float(act(np.array([[state]]))[0, 0])


def report(criterion: int, ok: bool, detail: str):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def toy_setup(toy_mdp, toy_grid_prepared, backend):
    nu = nu_sample_set(toy_mdp.state_relevance, 10_000, split_rng(TOY_SEED, 22))
    return toy_mdp, toy_grid_prepared, nu, backend


def test_criterion_01_toy_reproduction(toy_setup):
    mdp, prepared, nu, backend = toy_setup
    started = time.monotonic()

    bases2 = fixed_fourier([2.0, -5.0])
    w2, lb2 = solve(build_falp(prepared, bases2, nu), backend)
    action2 = greedy_at(mdp, bases2, w2, 0.3)
    pc2 = toy_constant_policy_cost(action2)

    bases3a = fixed_fourier([2.0, -5.0, 3.0])
    w3a, lb3a = solve(build_falp(prepared, bases3a, nu), backend)
    pc3a = toy_constant_policy_cost(greedy_at(mdp, bases3a, w3a, 0.3))

    bases3b = fixed_fourier([2.0, -5.0, 40.0])
    w3b, lb3b = solve(build_falp(prepared, bases3b, nu), backend)
    pc3b_raw = toy_constant_policy_cost(greedy_at(mdp, bases3b, w3b, 0.3))
    incumbent_pc = min(pc2, pc3b_raw)
    elapsed = time.monotonic() - started

    checks = [
        (0.12 <= lb2 <= 0.18, f"two-basis LB {lb2:.4f} in [0.12, 0.18]"),
        (0.50 <= action2 <= 0.53, f"greedy action {action2:.3f} in [0.50, 0.53]"),
        (0.36 <= pc2 <= 0.42, f"analytic PC {pc2:.4f} in [0.36, 0.42]"),
        (0.20 <= lb3a <= 0.26, f"scenario-1 LB {lb3a:.4f} in [0.20, 0.26]"),
        (0.31 <= pc3a <= 0.37, f"scenario-1 PC {pc3a:.4f} in [0.31, 0.37]"),
        (1.05 <= pc3b_raw <= 1.25, f"scenario-2 raw PC {pc3b_raw:.4f} in [1.05, 1.25]"),
        (0.36 <= incumbent_pc <= 0.42, f"incumbent PC {incumbent_pc:.4f} in [0.36, 0.42]"),
        (elapsed < 120.0, f"runtime {elapsed:.1f}s < 120s"),
    ]
    ok = all(c for c, _ in checks)
    report(1, ok, "; ".join(d for _, d in checks))


def test_criterion_02_toy_optimal_cost():
    val = toy_constant_policy_cost(0.5)
    ok = abs(val - 0.25 / 0.91) <= 1e-12
    report(2, ok, f"constant-0.5 policy cost {val!r} vs exact 0.25/0.91 ({val:.2f} to 2 decimals)")


def test_criterion_03_pointwise_lower_bound(toy_setup):
    mdp, prepared, nu, backend = toy_setup
    vstar = toy.optimal_value(TOY_STATES)
    worst = -np.inf
    for seed in range(20):
        bases = sample_fourier(5, 1, (0.2, 1.0), seed=seed)
        w, _ = solve(build_falp(prepared, bases, nu), backend)
        worst = max(worst, float(np.max(vfa_values(bases, w, TOY_STATES) - vstar)))
    ok = worst <= 1e-6
    report(3, ok, f"max over 20 seeds of max_s (V - V*) = {worst:.3e} <= 1e-6")


def test_criterion_04_fglp_monotone_chain(toy_mdp):
    # bounded-variable backend: duplicate-frequency draws otherwise admit
    # optimal vertices whose weights are too large to evaluate the chain
    # property meaningfully in double precision
    backend = ScipyBackend(var_bound=1e6)
    worst = np.inf
    iterations = 0
    for seed in (11, 12, 13, 14, 15):
        cfg = LoopConfig(
            batch=2,
            tolerance=1e-9,
            model_kind="fglp",
            seed=seed,
            sim=SimConfig(horizon=66, replications=250, action_grid=101, rollout_seed=seed),
            plan=grid_plan(TOY_STATES, TOY_ACTIONS),
            bases=sample_fourier(20, 1, (0.2, 1.0), seed),  # 10 iterations at B = 2
        )
        result = run_loop(toy_mdp, cfg, backend)
        iterations += len(result.records)
        guide = result.plan.guide_states
        prev_vals = None
        for n, w in zip(range(2, 22, 2), result.iterate_weights):
            vals = vfa_values(result.bases.prefix(n), w, guide)
            if prev_vals is not None:
                worst = min(worst, float(np.min(vals - prev_vals)))
            prev_vals = vals
    ok = worst >= -1e-6 and iterations == 50
    report(4, ok, f"min chain slack across 5 seeds x 10 iterations ({iterations} total) = {worst:.3e} >= -1e-6")


def test_criterion_05_visit_frequency_concentration(toy_setup):
    # The greedy two-basis policy plays one constant action; its discounted
    # occupancy must pile up in that action's bin, at the closed-form shares
    # of toy_constant_action_shares (the uniform chi layer and the pre-jump
    # transient keep them below 99%; see README, "Testing and the
    # acceptance suite").
    # Tolerance: a rollout's out-of-bin visit mass is (1 - B) G, with B the
    # event that s0 is in the bin and G = sum_{k < T} gamma^k up to the first
    # jump T; its exact standard deviation gives Monte-Carlo errors of
    # 0.00054 (visits) and 0.00052 (total) at 4000 replications, so 0.002 is
    # about 4 standard deviations.  Per other bin the error is 0.00018; the
    # largest of the 99 other bins sits a few of those above its mean, well
    # inside the same 0.002.
    mdp, prepared, nu, backend = toy_setup
    bases = fixed_fourier([2.0, -5.0])
    w, _ = solve(build_falp(prepared, bases, nu), backend)
    action = greedy_at(mdp, bases, w, 0.3)
    sim = SimConfig(horizon=200, replications=4000, action_grid=101, rollout_seed=TOY_SEED)
    hist = policy.estimate_visit_frequency(mdp, lambda st: np.full((len(st), 1), action), bins=100, sim=sim)
    expected = toy_constant_action_shares(bins=100, horizon=sim.horizon)
    tol = 0.002
    b = int(np.clip(np.searchsorted(hist.edges, action, side="right") - 1, 0, len(hist.mass) - 1))
    total = float(hist.mass.sum())
    share_total = float(hist.mass[b] / total)
    share_visits = float(hist.visit_mass[b] / hist.visit_mass.sum())
    share_other = float(np.max(np.delete(hist.mass, b)) / total)
    checks = [
        (
            abs(share_total - expected.total) <= tol,
            f"bin share of discounted mass {share_total:.4f} vs closed form {expected.total:.4f} +- {tol}",
        ),
        (
            abs(share_visits - expected.visits) <= tol,
            f"visits-only {share_visits:.4f} vs closed form {expected.visits:.4f} +- {tol}",
        ),
        (
            int(np.argmax(hist.mass)) == b and share_other <= expected.other + tol,
            f"largest other bin {share_other:.4f} <= {expected.other:.4f} + {tol}",
        ),
    ]
    ok = all(c for c, _ in checks)
    report(5, ok, f"action {action:.3f}; " + "; ".join(d for _, d in checks))


@pytest.fixture(scope="module")
def pic_desk_runs(backend):
    runs = {}
    elapsed = {"falp": 0.0, "fglp": 0.0}
    p = pic.instance_from_table(1)
    for seed in PIC_SEEDS:
        mdp = pic.build_pic_mdp(p, demand_saa_size=500, demand_seed=seed)
        for model in ("falp", "fglp"):
            cfg = LoopConfig(
                batch=10,
                tolerance=1e-6,  # run the full basis budget
                model_kind=model,
                seed=seed,
                sim=SimConfig(horizon=183, replications=16, action_grid=11, rollout_seed=seed),
                plan=uniform_plan(mdp, 5000, split_rng(seed, 21)),
                bases=sample_fourier(50, mdp.dim_state, (100.0, 1000.0), seed),
                lb_method="saddle" if model == "falp" else "expectation",
                saddle=SaddleConfig(seed=seed),
            )
            started = time.monotonic()
            runs[(model, seed)] = run_loop(mdp, cfg, backend)
            elapsed[model] += time.monotonic() - started
    runs["elapsed"] = elapsed
    return runs


def test_criterion_06_saddle_lower_bound_validity(pic_desk_runs):
    validity = []
    gaps = []
    monotone = []
    for seed in PIC_SEEDS:
        res = pic_desk_runs[("falp", seed)]
        for r in res.records:
            validity.append(r.lb_saddle <= r.pc + 3.0 * (r.pc_stderr + r.lb_saddle_stderr))
        gaps.append(res.records[-1].tau_star)
        taus = [r.tau_star for r in res.records]
        monotone.append(all(taus[i + 1] <= taus[i] + 1e-12 for i in range(len(taus) - 1)))
    elapsed = pic_desk_runs["elapsed"]["falp"]
    checks = [
        (all(validity), f"saddle bound <= simulated PC + 3 se at {len(validity)}/25 iterates"),
        (max(gaps) <= 0.25, f"desk-scale final gaps {['%.3f' % g for g in gaps]} all <= 0.25"),
        (all(monotone), "incumbent gap non-increasing on every seed"),
        (elapsed < 600.0, f"runtime {elapsed:.1f}s < 600s"),
    ]
    ok = all(c for c, _ in checks)
    report(6, ok, "; ".join(d for _, d in checks))


def test_criterion_07_fluctuation_directional(pic_desk_runs):
    wins = 0
    details = []
    for seed in PIC_SEEDS:
        falp_pct = fluctuation_stats(pic_desk_runs[("falp", seed)].records).fluctuation_pct
        fglp_pct = fluctuation_stats(pic_desk_runs[("fglp", seed)].records).fluctuation_pct
        wins += fglp_pct <= falp_pct
        details.append(f"seed {seed}: fglp {fglp_pct:.0f}% vs falp {falp_pct:.0f}%")
    ok = wins >= 4
    report(7, ok, f"fglp fluctuation <= falp on {wins}/5 seeds ({'; '.join(details)})")


@pytest.fixture(scope="module")
def gjr_desk(backend):
    params = gjr.gjr_instance(2, "constant", 100, split_rng(42, 1), usage_rates=(1.0, 1.0))
    sigma = float(split_rng(42, 41).uniform(1.0, params.s_bar.max()))
    bases = sample_stumps(20, 2, sigma, seed=42)
    init = gjr.sample_gjr_pairs(params, 200, split_rng(42, 2))
    return params, bases, init


def test_criterion_08_gjr_validity(gjr_desk, backend):
    params, bases, init = gjr_desk
    started = time.monotonic()
    result = gjr.constraint_generation(params, bases, *init, backend, max_cuts=500, seed=42)

    # oracle comparison at the un-cut initial solution, where violations exist
    model = gjr.build_avg_alp(params, bases, *init)
    lp = backend.solve(model)
    mid = gjr.BiasApprox(eta_hat=lp.x[0], beta1=lp.x[1:3], beta2=lp.x[3:])
    oracle_best = _gjr_grid_oracle(params, bases, mid, 50)
    found = gjr.separate(params, bases, mid)

    avg = gjr.simulate_average_cost(params, lambda s: gjr.k_step_greedy(params, bases, result.solution, s, 4), 4000)
    elapsed = time.monotonic() - started
    checks = [
        (len(result.trace) <= 500, f"converged in {len(result.trace)} cuts"),
        (result.eta_lambda <= avg + 1e-3, f"eta {result.eta_lambda:.4f} <= 4000-stage average {avg:.4f} + 1e-3"),
        (found.slack <= oracle_best + 1e-6, f"separation slack {found.slack:.6f} <= grid oracle {oracle_best:.6f} + 1e-6"),
        (elapsed < 300.0, f"runtime {elapsed:.1f}s < 300s"),
    ]
    ok = all(c for c, _ in checks)
    report(8, ok, "; ".join(d for _, d in checks))


def _gjr_grid_oracle(p, bases, sol, g):
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
        mask = gjr.feasible(p, states, actions)
        if mask.any():
            best = min(best, float(gjr.constraint_slack(p, bases, sol, states[mask], actions[mask]).min()))
    return best


def test_criterion_09_kstep_matches_enumeration(gjr_desk, backend):
    params, bases, init = gjr_desk
    result = gjr.constraint_generation(params, bases, *init, backend, max_cuts=500, seed=42)
    sol = result.solution
    eta = sol.eta(params.usage_rates)
    search = gjr.SearchPlan(beam_width=512, action_grid=21)
    rng = split_rng(77, 1)
    fractions = np.linspace(0.0, 1.0, 21)
    mismatches = 0
    for s in gjr.sample_gjr_states(params, 20, rng):
        got = gjr.k_step_greedy(params, bases, sol, s, 2, search)
        best_val, best_a = np.inf, None
        caps0 = np.minimum(params.s_bar - s, params.a_bar)
        for f1 in fractions:
            for f2 in fractions:
                a1 = np.array([f1, f2]) * caps0
                if not gjr.feasible(params, s, a1):
                    continue
                t1 = float(np.min((s + a1) / params.usage_rates))
                s1 = np.maximum(s + a1 - t1 * params.usage_rates, 0.0)
                c1 = gjr.gjr_step(params, s, a1)[2] - eta * t1
                caps1 = np.minimum(params.s_bar - s1, params.a_bar)
                # second step vectorized over the 21 x 21 grid
                g1, g2 = np.meshgrid(fractions, fractions, indexing="ij")
                a2 = np.stack([g1.ravel() * caps1[0], g2.ravel() * caps1[1]], axis=1)
                s1_rep = np.repeat(s1[None, :], len(a2), axis=0)
                mask = gjr.feasible(params, s1_rep, a2)
                if not mask.any():
                    continue
                t2 = np.min((s1_rep[mask] + a2[mask]) / params.usage_rates, axis=1)
                s2 = np.maximum(s1_rep[mask] + a2[mask] - t2[:, None] * params.usage_rates, 0.0)
                supp = a2[mask] > 1e-9
                c2 = params.fixed_cost + supp @ params.item_fixed_costs - eta * t2
                totals = c1 + c2 + sol.bias(bases, s2)
                idx = int(np.argmin(totals))
                if totals[idx] < best_val:  # strict: ties keep the first plan
                    best_val, best_a = float(totals[idx]), a1
        if not np.allclose(got, best_a, atol=1e-12):
            mismatches += 1
    ok = mismatches == 0
    report(9, ok, f"K=2 lookahead matched exhaustive grid enumeration on {20 - mismatches}/20 states")


def test_criterion_10_cli_determinism(tmp_path):
    cfg = {
        "problem": "toy",
        "model": "falp",
        "seed": TOY_SEED,
        "output_dir": str(tmp_path / "runs"),
        "loop": {
            "batch": 1,
            "tolerance": 0.4,
            "max_bases": 3,
            "grid": {"states": 1001, "actions": 101},
            "fixed_omegas": [2.0, -5.0, 3.0],
        },
        "sim": {"horizon": 66, "replications": 150, "action_grid": 101},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    code1, dir1 = cli.run_experiment(path)
    code2, dir2 = cli.run_experiment(path)
    same = (Path(dir1) / "trace.csv").read_bytes() == (Path(dir2) / "trace.csv").read_bytes()
    ok = code1 == 0 and code2 == 0 and same
    report(10, ok, f"exit codes ({code1}, {code2}); trace.csv byte-identical: {same}")


def test_criterion_11_bound_calculator():
    rng = np.random.default_rng(123)
    failures = 0
    for _ in range(100):
        eps = float(rng.uniform(0.05, 2.0))
        b = float(rng.uniform(0.0, 10.0))
        omega = float(rng.uniform(0.0, 5.0))
        gamma = float(rng.uniform(0.1, 0.99))
        consts = BoundConstants(omega_const=omega, delta_const=0.0, lipschitz=1.0, state_diameter=1.0)
        independent = math.ceil((b * (1.0 + gamma) * omega / 2.0 / eps) ** 2)
        if falp_sample_bound(eps, 1.0, b, consts, gamma) != independent:
            failures += 1
    ok = failures == 0
    report(11, ok, f"delta=1 bound matched independent arithmetic on {100 - failures}/100 tuples")
