"""Experiment runner: configuration files in, reproducible artifacts out.

Subcommands:

    run               execute a configured experiment, write a run directory
    summarize         aggregate several run directories into a gap table
    validate-config   check a config file and build its run's inputs
    print-instance    show an instance's parameters

A finished run writes ``manifest.json`` (the config as written plus any
``--seed`` override; enough to reproduce the run bit-for-bit), ``trace.csv``
(one row per iteration or cut; deterministic columns only, wall-clock times
live in the manifest), ``bounds.json`` (final bounds and gap), and
plot-ready CSVs where the problem has an exact value function.  One writer
serves both problem families and adds the fields they share: ``instance``
and ``model`` in ``bounds.json``; ``schema``, ``config``, ``seed`` and
``trace_columns`` in the manifest.  A run stopped by a failed LP or by the
cut budget keeps the trace rows it finished, writes ``bounds.json`` as
``{"instance", "model", "converged": false}`` and writes no manifest.

Exit codes: 0 when the run converged to tolerance, 2 when the basis or cut
budget was exhausted first, 1 on runtime errors (a failed LP among them) and
on config errors, which ``read_run`` finds before the run directory exists.
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
from ralp.alp import ScipyBackend, SolverError, grid_plan, uniform_plan, vfa_values
from ralp.bases import empty_stumps, fixed_fourier, sample_fourier, sample_stumps
from ralp.loop import MODEL_FALP, MODEL_FGLP, LoopConfig, fluctuation_stats, run as run_loop
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

_PLAN_STREAM = 21
_STUMP_SIGMA_STREAM = 41
_GUIDE_STATES = 5000  # states sampled for the self-guiding rows of a gjr FGLP run

# config sections, each an object when present
_SECTIONS = ("loop", "sim", "lower_bound", "solver", "gjr")


class ConfigError(ValueError):
    pass


def load_config(path: str | Path) -> dict:
    """The config as written; ``read_run`` checks its keys."""
    text = Path(path).read_text()
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}: line {err.lineno} column {err.colno}: {err.msg}") from err
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top level must be an object")
    for section in _SECTIONS:
        if section in cfg and not isinstance(cfg[section], dict):
            raise ConfigError(f"{section}: expected an object, got {type(cfg[section]).__name__}")
    return cfg


def _flatten(section: dict, prefix: str = "") -> dict:
    """A config as one dict of dotted keys (``loop.grid.states``)."""
    parts = (_flatten(v, f"{prefix}{k}.") if isinstance(v, dict) else {prefix + k: v} for k, v in section.items())
    return {key: value for part in parts for key, value in part.items()}


def _integer(value) -> int:
    """A JSON integer as it is; a float, a bool or a string is an error, not truncated or converted."""
    if type(value) is not int:
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def _take(flat: dict, key: str, convert=_integer, default=...):
    """Pop ``key`` from a flattened config or gjr spec, converted; if absent or null, ``default`` (required if none)."""
    value = flat.pop(key, None)
    if value is None and default is ...:
        raise ConfigError(f"config: missing required field {key!r}")
    try:
        return default if value is None else convert(value)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{key}: {err}") from None


def _at_least(least: int):
    """A ``_take`` conversion to an integer no smaller than ``least``."""

    def convert(value) -> int:
        if _integer(value) < least:
            raise ValueError(f"expected an integer >= {least}, got {value!r}")
        return value

    return convert


def _given(flat: dict, prefix: str, **converts) -> dict:
    """The keys of ``converts`` that a flattened config sets under ``prefix``, taken out and converted."""
    return {k: v for k, convert in converts.items() if (v := _take(flat, prefix + k, convert, None)) is not None}


def _build(section: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``; a value it rejects is an error in config section ``section``."""
    try:
        return make(*args, **kwargs)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{section}: {err}") from None


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


def _loop_config(flat: dict, mdp, seed: int, model: str) -> LoopConfig:
    """A discounted run's loop settings, row plan and basis set, taken out of a flattened config.

    The rows are a grid (1-D problems only) or ``loop.num_constraints`` uniform pairs; the bases are
    ``loop.fixed_omegas`` or Fourier bases drawn from ``loop.sigma_range``.  A
    config that sets both halves of a pair is rejected.
    """
    for first, second in (("loop.grid", "loop.num_constraints"), ("loop.fixed_omegas", "loop.sigma_range")):
        if second in flat and any(key == first or key.startswith(first + ".") for key in flat):
            raise ConfigError(f"config: {first} and {second} exclude each other; set one of them")
    if "loop.grid.states" in flat or "loop.grid.actions" in flat:
        if not mdp.dim_state == mdp.dim_action == 1:
            raise ConfigError(f"loop.grid: the grid plan needs a 1-D state and action, the problem has "
                              f"{mdp.dim_state}-D states and {mdp.dim_action}-D actions")
        states = np.linspace(mdp.state_lo[0], mdp.state_hi[0], _take(flat, "loop.grid.states"))[:, None]
        actions = np.linspace(mdp.action_lo[0], mdp.action_hi[0], _take(flat, "loop.grid.actions"))[:, None]
        plan = grid_plan(states, actions)
    else:
        num_pairs = _take(flat, "loop.num_constraints", _at_least(1), 5000)
        plan = uniform_plan(mdp, num_pairs, split_rng(seed, _PLAN_STREAM))
    batch = _take(flat, "loop.batch", _at_least(1), 10)
    max_bases = _take(flat, "loop.max_bases", _at_least(1), 200)
    reach = -(-max_bases // batch) * batch  # the budget rounded up to whole batches
    omegas = _take(flat, "loop.fixed_omegas", tuple, None)
    if omegas is None:
        sigma_range = _take(flat, "loop.sigma_range", tuple, (100.0, 1000.0))
        bases = _build("loop.sigma_range", sample_fourier, reach, mdp.dim_state, sigma_range, seed)
    elif len(omegas) < reach:
        raise ConfigError(f"loop.fixed_omegas: max_bases {max_bases} in batches of {batch} needs {reach} entries, "
                          f"got {len(omegas)}")
    else:
        bases = _build("loop.fixed_omegas", fixed_fourier, omegas[:reach], dim_state=mdp.dim_state)
    lb_method = _take(flat, "loop.lb_method", str, "saddle" if mdp.saddle_constants is not None else "expectation")
    if lb_method == "saddle" and mdp.saddle_constants is None:
        raise ConfigError("loop.lb_method: 'saddle' needs a problem with saddle constants (pic)")
    saddle = _given(flat, "lower_bound.", chains=_integer, chain_length=_integer, burn_in=_integer,
                    proposal_frac=float)
    saddle.update(("lam", v) for v in _given(flat, "lower_bound.", **{"lambda": float}).values())  # SaddleConfig.lam
    return _build(
        "loop", LoopConfig, model_kind=model, seed=seed, plan=plan, bases=bases, lb_method=lb_method, batch=batch,
        tolerance=_take(flat, "loop.tolerance", float, 0.05),
        sim=_build("sim", SimConfig, rollout_seed=seed,
                   horizon=_take(flat, "sim.horizon", _at_least(1), default_horizon(mdp.gamma)),
                   replications=_take(flat, "sim.replications", default=200),
                   action_grid=_take(flat, "sim.action_grid", default=mdp.action_grid)),
        saddle=_build("lower_bound", SaddleConfig, seed=seed, **saddle),
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
    bounds = {"instance": cfg["problem"], "model": cfg.get("model", MODEL_FALP), **bounds}
    (run_dir / "bounds.json").write_text(json.dumps(bounds, indent=1))
    if manifest is not None:
        manifest = {"schema": TRACE_SCHEMA, "config": cfg, "seed": cfg["seed"], "trace_columns": columns,
                    **manifest}
        (run_dir / "manifest.json").write_text(json.dumps(manifest, indent=1))


def _read_discounted(cfg: dict, flat: dict, seed: int, model: str):
    """Build the MDP, loop settings and backend of a toy or pic run; returns the run."""
    if cfg["problem"] == "toy":
        mdp = toy_mod.build_toy()
    else:
        from ralp import pic as pic_mod

        params = _build("problem", pic_mod.instance_from_table, int(cfg["problem"][4:]))
        saa = _given(flat, "", demand_saa_size=_integer)
        mdp = _build("config", pic_mod.build_pic_mdp, params, demand_seed=seed, **saa)
    loop_config = _loop_config(flat, mdp, seed, model)
    backend = ScipyBackend(**_given(flat, "solver.", var_bound=float))

    def run(run_dir: Path) -> int:
        result = run_loop(mdp, loop_config, backend)
        return _write_discounted_artifacts(run_dir, cfg, mdp, loop_config, result)

    return run


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
        sim = loop_config.sim
        act = policy_mod.greedy_policy(mdp, pc_bases, result.pc_weights, sim.action_grid)
        hist = policy_mod.estimate_visit_frequency(mdp, act, bins=100, sim=sim)
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
    params = gjr_mod.gjr_instance(
        num_items=_take(spec, "items", default=2),
        scheme=spec.pop("scheme", "constant"),
        z_pct=_take(spec, "z", default=100),
        rng=split_rng(seed, 1),
        usage_rates=spec.pop("usage_rates", None),
        u=spec.pop("u", None),
        alpha=spec.pop("alpha", None),
        item_fixed_costs=spec.pop("item_fixed_costs", None),
    )
    if spec:
        raise ValueError(f"unknown key {next(iter(spec))!r}")
    return params


def _read_gjr(cfg: dict, flat: dict, seed: int, model: str):
    """Build the instance, stumps, initial pairs and search plan of a gjr run; returns the run."""
    params = _build("problem", _gjr_params, _gjr_spec(cfg["problem"]), seed)
    num_bases = _take(flat, "gjr.num_bases", _at_least(0), 20)
    sigma = float(split_rng(seed, _STUMP_SIGMA_STREAM).uniform(1.0, params.s_bar.max()))
    j = params.num_items
    bases = sample_stumps(num_bases, j, sigma, seed) if num_bases > 0 else empty_stumps(j)
    init_pairs = gjr_mod.sample_gjr_pairs(params, _take(flat, "gjr.init_pairs", _at_least(1), 200), split_rng(seed, 2))
    search_plan = _given(flat, "gjr.", grid_per_dim=_integer, beam_width=_integer, action_grid=_integer)
    search = _build("gjr", gjr_mod.SearchPlan, **search_plan)
    budget = _given(flat, "gjr.", max_cuts=_at_least(1))
    stages, k = _take(flat, "gjr.stages", default=4000), _take(flat, "gjr.k", default=4)
    if stages < 1 or k < 1:
        raise ConfigError(f"gjr: stages and k must be >= 1, got {stages} and {k}")
    fglp = model == MODEL_FGLP
    guide_states = gjr_mod.sample_gjr_states(params, _GUIDE_STATES, split_rng(seed, 3)) if fglp else None
    backend = ScipyBackend()

    def run(run_dir: Path) -> int:
        prev, loops = None, []
        if guide_states is not None:
            try:
                affine = gjr_mod.constraint_generation(params, empty_stumps(j), *init_pairs, backend,
                                                       search=search, seed=seed, **budget)
            except (SolverError, gjr_mod.ConstraintGenerationError) as err:
                err.args, err.trace = (f"affine warm start: {err}",), []  # trace.csv holds stump-loop cuts only
                raise
            prev = affine.solution
            loops.append(affine)
        result = gjr_mod.constraint_generation(
            params, bases, *init_pairs, backend,
            prev=prev, guide_states=guide_states,
            search=search, seed=seed, **budget,
        )
        loops.append(result)
        start = time.perf_counter()
        avg_cost = gjr_mod.simulate_average_cost(
            params, lambda s: gjr_mod.k_step_greedy(params, bases, result.solution, s, k, search), stages
        )
        simulate_s = time.perf_counter() - start
        gap = 1.0 - result.eta_lambda / avg_cost if avg_cost > 0 else float("nan")

        bounds = {"lb": result.eta_lambda, "pc": avg_cost, "tau_star": gap, "num_cuts": len(result.trace),
                  "converged": True}
        manifest = {
            "instance_params": json.loads(params.to_json()),
            "stump_sigma": sigma,
            "num_constraints": len(result.states),
            # wall times of every cut loop of the run (FGLP's affine warm start included)
            "cut_loop_lp_s": sum(r.lp_s for r in loops),
            "cut_loop_separate_s": sum(r.separate_s for r in loops),
            "lp_iterations": sum(r.lp_iterations for r in loops),
            "cut_loop_max_violation": max(r.max_violation for r in loops),
            "separation_grid_points": sum(r.separation_grid_points for r in loops),
            # wall time of the K-step greedy policy's simulation (the lookahead phase)
            "simulate_s": simulate_s,
        }
        _write_artifacts(run_dir, cfg, GJR_TRACE_COLUMNS, result.trace, bounds, manifest)
        return 0

    return run


def read_run(cfg: dict):
    """Check a loaded config and build its run's inputs; returns the run, a function of the run directory.

    The readers take their keys out of a flattened copy of ``cfg``; a key that none takes is an error.
    """
    flat = _flatten(cfg)
    problem = _take(flat, "problem", str)
    if not (problem == "toy" or (problem.startswith("pic:") and problem[4:].isdigit()) or problem.startswith("gjr:")):
        raise ConfigError(f"problem: expected 'toy', 'pic:<1-16>' or 'gjr:<json>', got {problem!r}")
    seed = flat.pop("seed", None)
    if type(seed) is not int or seed < 0:
        raise ConfigError(f"seed: expected a non-negative integer, got {seed!r}")
    model = flat.pop("model", MODEL_FALP)
    if model not in (MODEL_FALP, MODEL_FGLP):
        raise ConfigError(f"model: expected 'falp' or 'fglp', got {model!r}")
    _take(flat, "output_dir", Path)
    run = (_read_gjr if problem.startswith("gjr:") else _read_discounted)(cfg, flat, seed, model)
    if flat:
        raise ConfigError(f"config: unknown key {next(iter(flat))!r}")
    return run


def run_experiment(config_path: str | Path, seed_override: int | None = None) -> tuple[int, Path | None]:
    """Execute one configured run; returns (exit code, run directory)."""
    try:
        cfg = load_config(config_path)
        if seed_override is not None:
            cfg["seed"] = int(seed_override)
        run = read_run(cfg)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1, None
    label = cfg["problem"].split(":")[0] + "-" + cfg.get("model", MODEL_FALP) + f"-s{cfg['seed']}"
    try:
        run_dir = _make_run_dir(Path(cfg["output_dir"]), label)
    except OSError as err:
        print(f"error: cannot create output directory: {err}", file=sys.stderr)
        return 1, None
    gjr = cfg["problem"].startswith("gjr:")
    columns, trace_rows = (GJR_TRACE_COLUMNS, list) if gjr else (TRACE_COLUMNS, _discounted_rows)
    try:
        code = run(run_dir)
    except (SolverError, gjr_mod.ConstraintGenerationError) as err:
        # a stopped run keeps the trace rows it finished and reports no bounds
        _write_artifacts(run_dir, cfg, columns, trace_rows(err.trace), {"converged": False})
        if isinstance(err, SolverError):
            print(f"error: {err}", file=sys.stderr)
            return 1, run_dir
        print(f"cut budget exhausted: {err}", file=sys.stderr)
        code = 2
    except (ValueError, RuntimeError) as err:
        # an MH chain that rejected every proposal, or a gjr lookahead with no feasible action
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
            read_run(load_config(args.config))
        except ValueError as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
        print("ok")
        return 0
    if args.command == "print-instance":
        return _cmd_print_instance(args.spec, args.seed)
    return 1


if __name__ == "__main__":
    sys.exit(main())
