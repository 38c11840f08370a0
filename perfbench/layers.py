"""Which ``ralp`` functions the traced run wraps, and the per-layer metrics.

The layers are the modules under ``src/ralp``.  ``mdp``, ``pic`` and ``toy``
are problem callbacks and are not wrapped: their time lands in the self time
of the layer that called them.  ``features`` is imported by name into
``alp``, ``gjr`` and ``policy``, so it is wrapped at each binding.
"""

from __future__ import annotations

from statistics import fmean
from typing import Callable

from tracer import Tracer, outermost_time, self_times

LAYERS = ("cli", "loop", "alp", "bases", "policy", "lower_bound", "gjr")


def _count(key: str, amount: Callable) -> Callable:
    def observe(tracer: Tracer, result, *args, **kwargs):
        tracer.counts[key] += amount(result, *args, **kwargs)

    return observe


def _observe_solve(tracer: Tracer, result, backend, model):
    tracer.samples["alp.lp_rows"].append(model.num_rows)
    tracer.samples["alp.lp_cols"].append(model.num_vars)
    if result.max_violation is not None:
        tracer.samples["alp.max_violation"].append(result.max_violation)


def _observe_mh(tracer: Tracer, result, *args, **kwargs):
    tracer.samples["lower_bound.acceptance"].extend(result.acceptance_rates)


def install(tracer: Tracer) -> None:
    """Wrap every traced boundary; undo with ``tracer.restore()``."""
    from ralp import alp, bases, cli, gjr, lower_bound, loop, policy

    for owner in (bases, alp, gjr, policy):
        tracer.wrap(owner, "features", "bases.features", _count("bases.features_evals", lambda r, *a, **k: r.size))
    tracer.wrap(cli, "run_experiment", "cli.run_experiment")
    tracer.wrap(cli, "_write_discounted_artifacts", "cli.artifacts")
    tracer.wrap(cli, "run_loop", "loop.run", _count("loop.iterations", lambda r, *a, **k: len(r.records)))
    tracer.wrap(loop, "prepare_plan", "alp.prepare_plan")
    for owner, attr in ((loop, "build_falp"), (loop, "build_fglp"), (alp, "build_falp")):
        tracer.wrap(owner, attr, "alp.build")
    tracer.wrap(alp.ScipyBackend, "solve", "alp.solve", _observe_solve)
    tracer.wrap(alp, "linprog", "alp.highs", _count("alp.highs_iterations", lambda r, *a, **k: int(r.nit)))
    tracer.wrap(policy, "simulate_policy_cost", "policy.rollout")
    tracer.wrap(policy, "estimate_visit_frequency", "policy.rollout")
    tracer.wrap(lower_bound, "estimate_lower_bound", "lower_bound.mh", _observe_mh)
    tracer.wrap(gjr, "constraint_generation", "gjr.constraint_generation",
                _count("gjr.cuts", lambda r, *a, **k: len(r.trace)))
    tracer.wrap(gjr, "separate", "gjr.separate")
    tracer.wrap(gjr, "constraint_slack", "gjr.slack", _count("gjr.slack_points", lambda r, *a, **k: len(r)))
    tracer.wrap(gjr, "build_avg_alp", "gjr.build")
    tracer.wrap(gjr, "simulate_average_cost", "gjr.simulate")
    tracer.wrap(gjr, "k_step_greedy", "gjr.lookahead")


def metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced run (times in seconds)."""
    spans, counts, samples = tracer.spans, tracer.counts, tracer.samples

    def total(name: str, under: str | None = None) -> float:
        return outermost_time(spans, name, under)

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for s, own in zip(spans, self_times(spans)):
        layer_self[s.layer] += own
    out = {
        "bases.features_s": total("bases.features"),
        "bases.features_calls": counts["bases.features.calls"],
        "bases.features_evals": counts["bases.features_evals"],
        "alp.prepare_plan_s": total("alp.prepare_plan"),
        "alp.build_s": total("alp.build"),
        "alp.solve_s": total("alp.solve"),
        "alp.highs_s": total("alp.highs"),
        "alp.solve_calls": counts["alp.solve.calls"],
        "alp.highs_iterations": counts["alp.highs_iterations"],
        "alp.lp_rows_max": max(samples["alp.lp_rows"], default=0),
        "alp.lp_cols_max": max(samples["alp.lp_cols"], default=0),
        "alp.max_violation": max(samples["alp.max_violation"], default=0.0),
        "loop.iterations": counts["loop.iterations"],
        "policy.rollout_s": total("policy.rollout"),
        "policy.rollout_calls": counts["policy.rollout.calls"],
        "lower_bound.mh_s": total("lower_bound.mh"),
        "lower_bound.mh_calls": counts["lower_bound.mh.calls"],
        "lower_bound.mh_acceptance": fmean(samples["lower_bound.acceptance"]) if samples["lower_bound.acceptance"] else 0.0,
        "gjr.separate_s": total("gjr.separate"),
        "gjr.separate_calls": counts["gjr.separate.calls"],
        "gjr.slack_calls": counts["gjr.slack.calls"],
        "gjr.slack_points": counts["gjr.slack_points"],
        "gjr.cuts": counts["gjr.cuts"],
        "gjr.lp_s": total("alp.solve", under="gjr.constraint_generation"),
        "gjr.build_s": total("gjr.build"),
        "gjr.simulate_s": total("gjr.simulate"),
        "gjr.lookahead_calls": counts["gjr.lookahead.calls"],
        "trace.spans": len(spans),
    }
    out.update({f"{layer}.self_s": layer_self[layer] for layer in LAYERS})
    return out
