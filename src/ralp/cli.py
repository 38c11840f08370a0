"""Experiment runner: configuration files in, reproducible artifacts out.

Subcommands:

    run               execute a configured experiment, write a run directory
    summarize         aggregate several run directories into a gap table
    validate-config   parse and check a config file
    print-instance    show an instance's parameters

A finished run writes ``manifest.json`` (the fully resolved config and all
seeds; sufficient to reproduce the run bit-for-bit), ``trace.csv`` (one row
per iteration or cut; deterministic columns only, wall-clock times live in
the manifest), ``bounds.json`` (final bounds and gap), and plot-ready CSVs
where the problem has an exact value function.  One writer serves both
problem families and adds the fields they share: ``instance`` and ``model``
in ``bounds.json``; ``schema``, ``config``, ``seed`` and ``trace_columns`` in
the manifest.  A run stopped by a failed LP or by the cut budget keeps the
trace rows it finished, writes ``bounds.json`` as ``{"instance", "model",
"converged": false}`` and writes no manifest.

Exit codes: 0 when the run converged to tolerance, 2 when the basis or cut
budget was exhausted first, 1 on configuration or runtime errors, a failed LP
among them.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from dataclasses import asdict
from pathlib import Path
from statistics import median

import numpy as np

from ralp import gjr as gjr_mod
from ralp import policy as policy_mod
from ralp import toy as toy_mod
from ralp.alp import ScipyBackend, SolverError, grid_plan, vfa_values
from ralp.bases import empty_stumps, sample_stumps
from ralp.loop import LoopConfig, fluctuation_stats, run as run_loop
from ralp.lower_bound import SaddleConfig
from ralp.mdp import split_rng
from ralp.policy import SimConfig, default_horizon

TRACE_SCHEMA = 1
TRACE_COLUMNS = [
    "iteration",
    "num_bases",
    "lb",
    "pc",
    "pc_stderr",
    "tau_star",
    "lb_expectation",
    "lb_saddle",
    "lb_saddle_stderr",
    "incumbent_lb",
    "incumbent_pc",
    "incumbent_lb_bases",
    "incumbent_pc_bases",
]
GJR_TRACE_COLUMNS = ["iteration", "lp_objective", "min_slack"]

_STUMP_SIGMA_STREAM = 41


# config sections that the runs read with ``.get``
_SECTIONS = ("loop", "sim", "lower_bound", "solver", "gjr")


class ConfigError(ValueError):
    pass


def _require(cfg: dict, field: str, section: str = "config"):
    if field not in cfg:
        raise ConfigError(f"{section}: missing required field {field!r}")
    return cfg[field]


def load_config(path: str | Path) -> dict:
    text = Path(path).read_text()
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}: line {err.lineno} column {err.colno}: {err.msg}") from err
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top level must be an object")
    problem = _require(cfg, "problem")
    if not isinstance(problem, str) or not (
        problem == "toy"
        or (problem.startswith("pic:") and problem[4:].isdigit())
        or problem.startswith("gjr:")
    ):
        raise ConfigError(f"problem: expected 'toy', 'pic:<1-16>' or 'gjr:<json>', got {problem!r}")
    if problem.startswith("gjr:"):
        _gjr_spec(problem)
    else:
        model = cfg.get("model", "falp")
        if model not in ("falp", "fglp"):
            raise ConfigError(f"model: expected 'falp' or 'fglp', got {model!r}")
    for section in _SECTIONS:
        if section in cfg and not isinstance(cfg[section], dict):
            raise ConfigError(f"{section}: expected an object, got {type(cfg[section]).__name__}")
    _require(cfg, "seed")
    _require(cfg, "output_dir")
    return cfg


def _gjr_spec(problem: str) -> dict:
    """The JSON object embedded in a ``gjr:<json>`` problem string."""
    try:
        spec = json.loads(problem[4:])
    except json.JSONDecodeError as err:
        raise ConfigError(f"problem: embedded gjr spec is not valid JSON: {err.msg}") from err
    if not isinstance(spec, dict):
        raise ConfigError(f"problem: embedded gjr spec must be a JSON object, got {type(spec).__name__}")
    return spec


def _cell(v) -> str:
    """A CSV cell: blank for None, integers as they are, floats by repr (exact round trip)."""
    if v is None:
        return ""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def _write_csv(path: Path, columns: list[str], rows) -> None:
    with path.open("w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_cell(v) for v in row] for row in rows)


def _make_run_dir(root: Path, label: str) -> Path:
    stamp = time.strftime("%Y%m%d-%H%M%S")
    base = root / f"{label}-{stamp}"
    path = base
    counter = 1
    while path.exists():
        path = Path(f"{base}-{counter}")
        counter += 1
    path.mkdir(parents=True)
    return path


def _loop_config(cfg: dict, mdp, seed: int) -> LoopConfig:
    loop_cfg = cfg.get("loop", {})
    sim_cfg = cfg.get("sim", {})
    grid = loop_cfg.get("grid")
    plan = None
    if grid is not None:
        states = np.linspace(mdp.state_lo[0], mdp.state_hi[0], int(grid["states"]))[:, None]
        actions = np.linspace(mdp.action_lo[0], mdp.action_hi[0], int(grid["actions"]))[:, None]
        plan = grid_plan(states, actions)
    sim = SimConfig(
        horizon=int(sim_cfg.get("horizon") or default_horizon(mdp.gamma)),
        replications=int(sim_cfg.get("replications", 200)),
        action_grid=int(sim_cfg.get("action_grid") or mdp.action_grid),
        rollout_seed=seed,
    )
    lb_section = cfg.get("lower_bound", {})
    saddle = SaddleConfig(
        chains=int(lb_section.get("chains", 8)),
        chain_length=int(lb_section.get("chain_length", 1500)),
        burn_in=int(lb_section.get("burn_in", 1000)),
        lam=lb_section.get("lambda"),
        proposal_frac=float(lb_section.get("proposal_frac", 0.05)),
        seed=seed,
    )
    fixed = loop_cfg.get("fixed_omegas")
    return LoopConfig(
        batch=int(loop_cfg.get("batch", 10)),
        tolerance=float(loop_cfg.get("tolerance", 0.05)),
        max_bases=int(loop_cfg.get("max_bases", 200)),
        model_kind=cfg.get("model", "falp"),
        seed=seed,
        sim=sim,
        num_constraints=(None if plan is not None else int(loop_cfg.get("num_constraints", 5000))),
        plan=plan,
        sigma_range=tuple(loop_cfg.get("sigma_range", (100.0, 1000.0))),
        fixed_omegas=tuple(fixed) if fixed is not None else None,
        lb_method=loop_cfg.get("lb_method", "saddle" if mdp.saddle_constants is not None else "expectation"),
        saddle=saddle,
        nu_sample_size=int(loop_cfg.get("nu_sample_size", 10_000)),
    )


def _discounted_rows(records) -> list:
    """``trace.csv`` rows of the discounted loop's iteration records."""
    return [
        [i, r.num_bases, r.lb, r.pc, r.pc_stderr, r.tau_star, r.lb_expectation, r.lb_saddle,
         r.lb_saddle_stderr, r.incumbent_lb, r.incumbent_pc, r.incumbent_lb_bases, r.incumbent_pc_bases]
        for i, r in enumerate(records, start=1)
    ]


def _write_artifacts(run_dir: Path, cfg, columns, rows, bounds: dict, manifest: dict | None = None) -> None:
    """Write ``trace.csv``, ``bounds.json`` and, for a finished run, ``manifest.json``.

    ``bounds`` and ``manifest`` hold a problem family's own fields; the fields
    both families share are written here, ahead of them.
    """
    _write_csv(run_dir / "trace.csv", columns, rows)
    bounds = {"instance": cfg["problem"], "model": cfg.get("model", "falp"), **bounds}
    (run_dir / "bounds.json").write_text(json.dumps(bounds, indent=1))
    if manifest is not None:
        manifest = {"schema": TRACE_SCHEMA, "config": cfg, "seed": int(cfg["seed"]), "trace_columns": columns,
                    **manifest}
        (run_dir / "manifest.json").write_text(json.dumps(manifest, indent=1))


def _run_discounted(cfg: dict, run_dir: Path, seed: int) -> int:
    if cfg["problem"] == "toy":
        mdp = toy_mod.build_toy()
    else:
        from ralp import pic as pic_mod

        params = pic_mod.instance_from_table(int(cfg["problem"][4:]))
        saa = int(cfg.get("demand_saa_size", pic_mod.DEMAND_SAA_SIZE))
        mdp = pic_mod.build_pic_mdp(params, demand_saa_size=saa, demand_seed=seed)
    loop_config = _loop_config(cfg, mdp, seed)
    backend = ScipyBackend(var_bound=cfg.get("solver", {}).get("var_bound"))
    result = run_loop(mdp, loop_config, backend)
    return _write_discounted_artifacts(run_dir, cfg, mdp, loop_config, result)


def _write_discounted_artifacts(run_dir: Path, cfg, mdp, loop_config, result) -> int:
    last = result.records[-1]
    bounds = {
        "lb": last.incumbent_lb,
        "pc": last.incumbent_pc,
        "tau_star": last.tau_star,
        "num_bases": last.num_bases,
        "converged": result.converged,
    }

    if mdp.exact_value is not None:
        # the policy-cost incumbent may predate the final basis set
        pc_bases = result.bases.prefix(len(result.pc_weights))
        states = np.linspace(mdp.state_lo[0], mdp.state_hi[0], 1001)[:, None]
        vfa = vfa_values(pc_bases, result.pc_weights, states)
        _write_csv(
            run_dir / "vfa_curve.csv",
            ["state", "optimal_value", "vfa_value"],
            zip(states[:, 0], mdp.exact_value(states), vfa),
        )
        hist = policy_mod.estimate_visit_frequency(
            mdp, pc_bases, result.pc_weights, bins=100, sim=loop_config.sim
        )
        _write_csv(
            run_dir / "visit_frequency.csv",
            ["bin_lo", "bin_hi", "mass", "normalized"],
            zip(hist.edges[:-1], hist.edges[1:], hist.mass, hist.normalized),
        )

    fluct = None
    if len(result.records) >= 2:
        stats = fluctuation_stats(result.records)
        fluct = {"pct": stats.fluctuation_pct, "magnitude": stats.fluctuation_magnitude}
    manifest = {
        "num_constraints": int(result.plan.num_pairs),
        "sigma_draws": [s for s in result.bases.sigma.tolist() if not math.isnan(s)],
        "fluctuation": fluct,
        "wallclock_s": [r.wallclock for r in result.records],
        "phase_s": [r.phase_s for r in result.records],
        "lp": [r.lp for r in result.records],
        "saddle_acceptance_rates": [
            list(r.saddle_acceptance) if r.saddle_acceptance is not None else None
            for r in result.records
        ],
    }
    _write_artifacts(run_dir, cfg, TRACE_COLUMNS, _discounted_rows(result.records), bounds, manifest)
    return 0 if result.converged else 2


def _gjr_params(spec: dict, seed: int) -> gjr_mod.GjrParams:
    """The instance a ``gjr:`` spec names; unpinned draws come from the seed."""
    return gjr_mod.gjr_instance(
        num_items=int(spec.get("items", 2)),
        scheme=spec.get("scheme", "constant"),
        z_pct=int(spec.get("z", 100)),
        rng=split_rng(seed, 1),
        usage_rates=spec.get("usage_rates"),
        u=spec.get("u"),
        alpha=spec.get("alpha"),
        item_fixed_costs=spec.get("item_fixed_costs"),
    )


def _run_gjr(cfg: dict, run_dir: Path, seed: int) -> int:
    g_cfg = cfg.get("gjr", {})
    params = _gjr_params(_gjr_spec(cfg["problem"]), seed)
    num_bases = int(g_cfg.get("num_bases", 20))
    sigma_rng = split_rng(seed, _STUMP_SIGMA_STREAM)
    sigma = float(sigma_rng.uniform(1.0, params.s_bar.max()))
    bases = (
        sample_stumps(num_bases, params.num_items, sigma, seed)
        if num_bases > 0
        else empty_stumps(params.num_items)
    )
    init_pairs = gjr_mod.sample_gjr_pairs(params, int(g_cfg.get("init_pairs", 200)), split_rng(seed, 2))
    search = gjr_mod.SearchPlan(
        grid_per_dim=int(g_cfg.get("grid_per_dim", 50)),
        beam_width=int(g_cfg.get("beam_width", 128)),
        action_grid=int(g_cfg.get("action_grid", 21)),
    )
    backend = ScipyBackend()

    max_cuts = int(g_cfg.get("max_cuts", 500))

    prev = None
    guide_states = None
    loops = []
    if cfg.get("model") == "fglp":
        affine = gjr_mod.constraint_generation(
            params, empty_stumps(params.num_items), *init_pairs, backend,
            search=search, max_cuts=max_cuts, seed=seed,
        )
        prev = affine.solution
        loops.append(affine)
        guide_states = gjr_mod.sample_gjr_states(
            params, int(g_cfg.get("guide_states", 5000)), split_rng(seed, 3)
        )
    result = gjr_mod.constraint_generation(
        params, bases, *init_pairs, backend,
        prev=prev, guide_states=guide_states,
        search=search, max_cuts=max_cuts, seed=seed,
    )
    loops.append(result)
    start = time.perf_counter()
    avg_cost = gjr_mod.simulate_average_cost(
        params, bases, result.solution,
        stages=int(g_cfg.get("stages", 4000)),
        k=int(g_cfg.get("k", 4)),
        search=search,
    )
    simulate_s = time.perf_counter() - start
    gap = 1.0 - result.eta_lambda / avg_cost if avg_cost > 0 else float("nan")

    bounds = {
        "lb": result.eta_lambda,
        "pc": avg_cost,
        "tau_star": gap,
        "num_cuts": len(result.trace),
        "converged": True,
    }
    manifest = {
        "instance_params": json.loads(params.to_json()),
        "stump_sigma": sigma,
        "num_constraints": len(result.states),
        # wall times of every cut loop of the run (FGLP's affine warm start included)
        "cut_loop_lp_s": sum(r.lp_s for r in loops),
        "cut_loop_separate_s": sum(r.separate_s for r in loops),
        "lp_iterations": sum(r.lp_iterations for r in loops),
        "separation_grid_points": sum(r.separation_grid_points for r in loops),
        # wall time of the K-step greedy policy's simulation (the lookahead phase)
        "simulate_s": simulate_s,
    }
    _write_artifacts(run_dir, cfg, GJR_TRACE_COLUMNS, result.trace, bounds, manifest)
    return 0


def run_experiment(config_path: str | Path, seed_override: int | None = None) -> tuple[int, Path | None]:
    """Execute one configured run; returns (exit code, run directory)."""
    try:
        cfg = load_config(config_path)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1, None
    if seed_override is not None:
        cfg["seed"] = int(seed_override)
    seed = int(cfg["seed"])
    out_root = Path(cfg["output_dir"])
    label = cfg["problem"].split(":")[0] + "-" + cfg.get("model", "falp") + f"-s{seed}"
    try:
        run_dir = _make_run_dir(out_root, label)
    except OSError as err:
        print(f"error: cannot create output directory: {err}", file=sys.stderr)
        return 1, None
    if cfg["problem"].startswith("gjr:"):
        run_family, columns, trace_rows = _run_gjr, GJR_TRACE_COLUMNS, list
    else:
        run_family, columns, trace_rows = _run_discounted, TRACE_COLUMNS, _discounted_rows
    try:
        code = run_family(cfg, run_dir, seed)
    except (SolverError, gjr_mod.ConstraintGenerationError) as err:
        # a stopped run keeps the trace rows it finished and reports no bounds
        _write_artifacts(run_dir, cfg, columns, trace_rows(err.trace), {"converged": False})
        if isinstance(err, SolverError):
            print(f"error: {err}", file=sys.stderr)
            return 1, run_dir
        print(f"cut budget exhausted: {err}", file=sys.stderr)
        code = 2
    except (ValueError, RuntimeError) as err:
        # configuration errors and an MH chain that rejected every proposal
        print(f"error: {err}", file=sys.stderr)
        return 1, run_dir
    print(run_dir)
    return code, run_dir


def emit_table(run_dirs: list[str | Path]) -> str:
    """Aggregate bounds.json files into a min/median/max gap CSV per instance."""
    if not run_dirs:
        raise ValueError("no run directories given")
    groups: dict[tuple[str, str], list[float]] = {}
    for d in run_dirs:
        path = Path(d) / "bounds.json"
        doc = json.loads(path.read_text())
        for field in ("instance", "model", "tau_star"):
            if field not in doc:
                raise ValueError(f"{path}: missing field {field!r}")
        groups.setdefault((doc["instance"], doc["model"]), []).append(float(doc["tau_star"]))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["instance", "model", "runs", "gap_min", "gap_median", "gap_max"])
    for (instance, model), gaps in sorted(groups.items()):
        writer.writerow(
            [instance, model, len(gaps), repr(min(gaps)), repr(median(gaps)), repr(max(gaps))]
        )
    return buf.getvalue()


def _cmd_print_instance(spec: str, seed: int) -> int:
    from ralp import pic as pic_mod

    try:
        if spec == "pic:all":
            print(pic_mod.catalog_json())
            return 0
        if spec.startswith("pic:") and spec[4:].isdigit():
            print(json.dumps(asdict(pic_mod.instance_from_table(int(spec[4:]))), indent=1))
            return 0
        if spec.startswith("gjr:"):
            print(_gjr_params(_gjr_spec(spec), seed).to_json())
            return 0
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if spec == "toy":
        mdp = toy_mod.build_toy()
        print(json.dumps({"state_box": [0.0, 1.0], "action_box": [0.0, 1.0], "gamma": mdp.gamma}))
        return 0
    print(f"error: unknown instance spec {spec!r}", file=sys.stderr)
    return 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="ralp", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a configured experiment")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")

    p_sum = sub.add_parser("summarize", help="aggregate run directories into a gap table")
    p_sum.add_argument("run_dirs", nargs="+")

    p_val = sub.add_parser("validate-config", help="check a config file")
    p_val.add_argument("--config", required=True)

    p_pi = sub.add_parser("print-instance", help="show instance parameters")
    p_pi.add_argument("spec")
    p_pi.add_argument("--seed", type=int, default=0)

    args = parser.parse_args(argv)
    if args.command == "run":
        code, _ = run_experiment(args.config, seed_override=args.seed)
        return code
    if args.command == "summarize":
        try:
            sys.stdout.write(emit_table(args.run_dirs))
        except (OSError, ValueError, json.JSONDecodeError) as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
        return 0
    if args.command == "validate-config":
        try:
            load_config(args.config)
        except ConfigError as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
        print("ok")
        return 0
    if args.command == "print-instance":
        return _cmd_print_instance(args.spec, args.seed)
    return 1


if __name__ == "__main__":
    sys.exit(main())
