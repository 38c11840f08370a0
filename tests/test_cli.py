import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ralp
from ralp import cli


def _toy_config(tmp_path, seed=6, tolerance=0.4, thetas=(2.0, -5.0, 3.0), max_bases=None):
    return {
        "problem": "toy",
        "model": "falp",
        "seed": seed,
        "output_dir": str(tmp_path / "runs"),
        "loop": {
            "batch": 1,
            "tolerance": tolerance,
            "max_bases": max_bases if max_bases is not None else len(thetas),
            "grid": {"states": 1001, "actions": 101},
            "fixed_omegas": list(thetas),
        },
        "sim": {"horizon": 66, "replications": 300, "action_grid": 101},
    }


def _write(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


class TestConfigValidation:
    def test_ok(self, tmp_path):
        path = _write(tmp_path, _toy_config(tmp_path))
        assert cli.main(["validate-config", "--config", str(path)]) == 0

    def test_malformed_json_reports_position(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"problem": "toy",\n  "seed": }')
        assert cli.main(["validate-config", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "line 2" in err

    def test_unknown_problem(self, tmp_path, capsys):
        cfg = _toy_config(tmp_path)
        cfg["problem"] = "queueing:3"
        path = _write(tmp_path, cfg)
        assert cli.main(["validate-config", "--config", str(path)]) == 1
        assert "problem" in capsys.readouterr().err

    def test_unknown_model(self, tmp_path, capsys):
        cfg = _toy_config(tmp_path)
        cfg["model"] = "qlp"
        path = _write(tmp_path, cfg)
        assert cli.main(["validate-config", "--config", str(path)]) == 1
        assert "model" in capsys.readouterr().err

    def test_problem_not_a_string(self, tmp_path, capsys):
        cfg = _toy_config(tmp_path)
        cfg["problem"] = 5
        path = _write(tmp_path, cfg)
        assert cli.main(["validate-config", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: problem:") and "Traceback" not in err

    @pytest.mark.parametrize("section", ["loop", "sim", "lower_bound", "solver", "gjr"])
    def test_section_not_an_object(self, tmp_path, capsys, section):
        cfg = _toy_config(tmp_path)
        cfg[section] = 5
        path = _write(tmp_path, cfg)
        for command in ("validate-config", "run"):
            assert cli.main([command, "--config", str(path)]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {section}: expected an object") and "Traceback" not in err
        assert not (tmp_path / "runs").exists()

    def test_missing_field(self, tmp_path, capsys):
        cfg = _toy_config(tmp_path)
        del cfg["output_dir"]
        path = _write(tmp_path, cfg)
        assert cli.main(["validate-config", "--config", str(path)]) == 1
        assert "output_dir" in capsys.readouterr().err


@pytest.fixture(scope="module")
def toy_run(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("toyrun")
    path = _write(tmp_path, _toy_config(tmp_path))
    code, run_dir = cli.run_experiment(path)
    return code, Path(run_dir), tmp_path


class TestRunToy:
    def test_exit_zero_and_artifacts(self, toy_run):
        code, run_dir, _ = toy_run
        assert code == 0
        for name in (
            "manifest.json",
            "trace.csv",
            "bounds.json",
            "vfa_curve.csv",
            "visit_frequency.csv",
        ):
            assert (run_dir / name).exists(), name

    def test_terminates_at_three_bases(self, toy_run):
        _, run_dir, _ = toy_run
        bounds = json.loads((run_dir / "bounds.json").read_text())
        assert bounds["num_bases"] == 3
        assert bounds["converged"] is True
        assert 0.25 <= bounds["tau_star"] <= 0.40  # reference gap 30.2%

    def test_trace_has_documented_header(self, toy_run):
        _, run_dir, _ = toy_run
        header = (run_dir / "trace.csv").read_text().splitlines()[0]
        assert header == ",".join(cli.TRACE_COLUMNS)

    def test_curve_cells_parse_as_floats(self, toy_run):
        _, run_dir, _ = toy_run
        for name in ("vfa_curve.csv", "visit_frequency.csv"):
            rows = (run_dir / name).read_text().splitlines()[1:]
            assert rows, name
            for row in rows:
                for cell in row.split(","):
                    float(cell)

    def test_rerun_is_byte_identical(self, toy_run):
        _, run_dir, tmp_path = toy_run
        path = _write(tmp_path, _toy_config(tmp_path), name="config2.json")
        code, run_dir2 = cli.run_experiment(path)
        assert code == 0
        assert (run_dir / "trace.csv").read_bytes() == (Path(run_dir2) / "trace.csv").read_bytes()

    def test_manifest_round_trip(self, toy_run, tmp_path_factory):
        _, run_dir, _ = toy_run
        manifest = json.loads((run_dir / "manifest.json").read_text())
        fresh = tmp_path_factory.mktemp("replay")
        cfg = manifest["config"]
        cfg["output_dir"] = str(fresh / "runs")
        path = _write(fresh, cfg)
        code, run_dir2 = cli.run_experiment(path)
        assert code == 0
        assert (run_dir / "trace.csv").read_bytes() == (Path(run_dir2) / "trace.csv").read_bytes()

    def test_manifest_phase_seconds(self, toy_run):
        # per-iteration build, solve, rollout and lower-bound seconds sit
        # inside the iteration's wall-clock increment
        _, run_dir, _ = toy_run
        manifest = json.loads((run_dir / "manifest.json").read_text())
        wallclock, phases = manifest["wallclock_s"], manifest["phase_s"]
        assert len(phases) == len(wallclock) == 3
        for before, after, phase in zip([0.0] + wallclock, wallclock, phases):
            assert set(phase) == {"build", "solve", "rollout", "lower_bound"}
            assert all(isinstance(v, float) and v >= 0.0 for v in phase.values())
            assert sum(phase.values()) <= after - before + 1e-9  # rounding of the sums only

    def test_manifest_lp_statistics(self, toy_run):
        # per-iteration LP size, row-generation rounds, simplex iterations and worst row violation
        _, run_dir, _ = toy_run
        manifest = json.loads((run_dir / "manifest.json").read_text())
        lps = manifest["lp"]
        assert len(lps) == len(manifest["phase_s"]) == 3
        for num_bases, lp in enumerate(lps, start=1):
            assert set(lp) == {"rows", "cols", "rows_solved", "rounds", "iterations", "max_violation"}
            assert (lp["rows"], lp["cols"]) == (1001 * 101, num_bases + 1)
            assert 1 <= lp["rows_solved"] <= lp["rows"]
            assert lp["rounds"] >= 1
            assert isinstance(lp["iterations"], int) and lp["iterations"] >= 1
            assert isinstance(lp["max_violation"], float)

    def test_seed_override_changes_rollouts(self, toy_run, tmp_path_factory):
        _, run_dir, _ = toy_run
        fresh = tmp_path_factory.mktemp("override")
        cfg = _toy_config(fresh)
        path = _write(fresh, cfg)
        code, run_dir2 = cli.run_experiment(path, seed_override=19)
        assert code == 0
        manifest = json.loads((Path(run_dir2) / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 19


REPO = Path(__file__).resolve().parent.parent
# bounds.json of the full gjr2 run, pinned with its golden trace
GJR2_LB = 91.65996878967826
GJR2_PC = 91.65996878968302
# bounds.json of the shortened gjr2 run, pinned with the golden trace
GJR_SHORT_LB = 91.65996878967823
GJR_SHORT_PC = 91.65996878967778
# bounds.json of the FGLP run on drawn usage rates, pinned with its golden trace
GJR_RANDOM_LB = 40.99895531232257
GJR_RANDOM_PC = 41.03348999798985


def test_import_leaves_scipy_stats_unloaded():
    src = str(Path(ralp.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, ralp.cli; print(sorted(m for m in sys.modules if m.split('.')[:2] == ['scipy', 'stats']))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def _loaded_after(code: str) -> list[str]:
    """The names in ``sys.modules`` after running ``code`` in a fresh interpreter."""
    src = str(Path(ralp.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code += "\nimport json, sys; print(json.dumps(sorted(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def test_import_leaves_scipy_optimize_and_sparse_unloaded():
    loaded = _loaded_after("import ralp.cli")
    assert "scipy.optimize" not in loaded and "scipy.sparse" not in loaded


def test_gjr_run_leaves_scipy_special_unloaded(tmp_path):
    cfg = {
        "problem": 'gjr:{"items": 2, "scheme": "constant", "z": 100, "usage_rates": [1.0, 1.0]}',
        "model": "falp",
        "seed": 42,
        "output_dir": str(tmp_path / "runs"),
        "gjr": {"num_bases": 5, "init_pairs": 80, "stages": 60, "k": 2, "grid_per_dim": 25},
    }
    path = _write(tmp_path, cfg)
    loaded = _loaded_after(f"from ralp import cli; assert cli.run_experiment({str(path)!r})[0] == 0")
    assert "scipy.special" not in loaded


def test_pic_run_leaves_scipy_special_unloaded(tmp_path):
    # pic loads scipy.special's ufunc extension by file path, not the package
    cfg = _shipped_config(tmp_path, "pic1")
    cfg["demand_saa_size"] = 50
    cfg["loop"].update({"batch": 5, "max_bases": 5, "num_constraints": 200})
    cfg["sim"] = {"horizon": 20, "replications": 2, "action_grid": 11}
    cfg["lower_bound"] = {"chains": 2, "chain_length": 50, "burn_in": 20}
    path = _write(tmp_path, cfg)
    loaded = _loaded_after(f"from ralp import cli; assert cli.run_experiment({str(path)!r})[0] == 0")
    assert "ralp.pic" in loaded and "scipy.special._ufuncs" in loaded
    assert "scipy.special" not in loaded


def test_pic_is_imported_on_use():
    assert "ralp.pic" not in _loaded_after("import ralp")
    for code in ("import ralp; ralp.pic.demand_quantile", "from ralp import *; pic.demand_quantile"):
        loaded = _loaded_after(code)
        assert "ralp.pic" in loaded and "scipy.special._ufuncs" in loaded
        assert "scipy.special" not in loaded


def _shipped_config(tmp_path, name):
    cfg = json.loads((REPO / "configs" / f"{name}.json").read_text())
    cfg["output_dir"] = str(tmp_path / "runs")
    return cfg


def _short_gjr_config(tmp_path, **gjr_fields):
    # configs/gjr2.json with 5 stumps, a 25-point grid and 500 stages
    cfg = _shipped_config(tmp_path, "gjr2")
    cfg["gjr"].update({"num_bases": 5, "grid_per_dim": 25, "stages": 500, **gjr_fields})
    return cfg


def _short_gjr_fglp_random_config(tmp_path):
    cfg = _short_gjr_config(tmp_path)
    cfg["problem"] = "gjr:" + json.dumps({"items": 2, "scheme": "random", "z": 100})
    cfg["model"] = "fglp"
    cfg["seed"] = 1
    return cfg


def test_short_pic_config_matches_golden_trace(tmp_path):
    # configs/pic1.json shrunk to two FGLP iterations with the saddle bound:
    # the closed-form expectations, rollouts and MH chains are all pinned.
    cfg = json.loads((REPO / "configs" / "pic1.json").read_text())
    cfg["output_dir"] = str(tmp_path / "runs")
    cfg["demand_saa_size"] = 200
    cfg["loop"].update({"batch": 5, "max_bases": 10, "num_constraints": 1000})
    cfg["sim"] = {"horizon": 60, "replications": 4, "action_grid": 11}
    cfg["lower_bound"] = {"chains": 4, "chain_length": 200, "burn_in": 100}
    code, run_dir = cli.run_experiment(_write(tmp_path, cfg))
    assert code == 0
    golden = (Path(__file__).parent / "golden" / "pic_short_trace.csv").read_bytes()
    assert (Path(run_dir) / "trace.csv").read_bytes() == golden


def test_gjr2_config_matches_golden_trace(tmp_path):
    # configs/gjr2.json as shipped: 20 stumps, the 50-point separation grid
    # and 4000 simulated stages.
    cfg = json.loads((REPO / "configs" / "gjr2.json").read_text())
    cfg["output_dir"] = str(tmp_path / "runs")
    code, run_dir = cli.run_experiment(_write(tmp_path, cfg))
    assert code == 0
    golden = (Path(__file__).parent / "golden" / "gjr2_trace.csv").read_bytes()
    assert (Path(run_dir) / "trace.csv").read_bytes() == golden
    bounds = json.loads((Path(run_dir) / "bounds.json").read_text())
    assert bounds["lb"] == GJR2_LB
    assert bounds["pc"] == GJR2_PC


# configs whose trace.csv, bounds.json and manifest.json are pinned under
# tests/golden/, with the exit code each run ends with:
# - toy: configs/toy.json;
# - gjr_short: configs/gjr2.json with 5 stumps, a 25-point grid and 500 stages;
# - gjr_fglp_random: the same on drawn usage rates with the FGLP model;
# - gjr_cut_budget: gjr_short stopped by a budget of 3 cuts.
_PINNED_RUNS = {
    "toy": (lambda tmp_path: _shipped_config(tmp_path, "toy"), 0),
    "gjr_short": (_short_gjr_config, 0),
    "gjr_fglp_random": (_short_gjr_fglp_random_config, 0),
    "gjr_cut_budget": (lambda tmp_path: _short_gjr_config(tmp_path, max_cuts=3), 2),
}
# manifest values that are wall-clock times
_WALL_CLOCK_KEYS = {"wallclock_s", "phase_s", "cut_loop_lp_s", "cut_loop_separate_s", "simulate_s"}
GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def pinned_run(tmp_path_factory):
    """``pinned_run(name)`` is the (exit code, run directory) of that pinned
    config, run once for every test of this module that reads it."""
    runs = {}

    def run(name):
        if name not in runs:
            tmp_path = tmp_path_factory.mktemp(name)
            code, run_dir = cli.run_experiment(_write(tmp_path, _PINNED_RUNS[name][0](tmp_path)))
            runs[name] = code, Path(run_dir)
        return runs[name]

    return run


def test_toy_config_matches_golden_trace(pinned_run):
    # configs/toy.json takes the noise-enumeration path for every
    # expectation; its trace.csv is pinned byte-for-byte.
    code, run_dir = pinned_run("toy")
    assert code == 0
    assert (run_dir / "trace.csv").read_bytes() == (GOLDEN / "toy_trace.csv").read_bytes()


def test_short_gjr_config_matches_golden_trace(pinned_run):
    # configs/gjr2.json with 5 stumps, a 25-point grid and 500 stages:
    # separation, the cut LPs and the simulated average cost are pinned.
    code, run_dir = pinned_run("gjr_short")
    assert code == 0
    assert (run_dir / "trace.csv").read_bytes() == (GOLDEN / "gjr_short_trace.csv").read_bytes()
    bounds = json.loads((run_dir / "bounds.json").read_text())
    assert bounds["lb"] == GJR_SHORT_LB
    assert bounds["pc"] == GJR_SHORT_PC


def test_short_gjr_fglp_random_rates_matches_golden_trace(pinned_run):
    # drawn usage rates leave float dust in the successor, and the FGLP model
    # adds the affine warm start, guide rows and sampled guide states.
    code, run_dir = pinned_run("gjr_fglp_random")
    assert code == 0
    assert (run_dir / "trace.csv").read_bytes() == (GOLDEN / "gjr_fglp_random_trace.csv").read_bytes()
    bounds = json.loads((run_dir / "bounds.json").read_text())
    assert bounds["lb"] == GJR_RANDOM_LB
    assert bounds["pc"] == GJR_RANDOM_PC


def _pinnable_manifest(manifest: dict) -> str:
    """The manifest as JSON with wall-clock times and the output directory blanked."""
    for key in _WALL_CLOCK_KEYS.intersection(manifest):
        manifest[key] = None
    manifest["config"]["output_dir"] = None
    return json.dumps(manifest, indent=1)


@pytest.mark.parametrize("name", list(_PINNED_RUNS))
def test_run_artifacts_match_pins(pinned_run, name):
    # bounds.json byte-for-byte; the manifest in key order with every value
    # but the wall-clock times and the output directory.  A stopped run
    # leaves no manifest.
    code, run_dir = pinned_run(name)
    assert code == _PINNED_RUNS[name][1]
    if name == "gjr_cut_budget":
        # the three cuts finished within the budget, as the full run made them
        trace = (run_dir / "trace.csv").read_text().splitlines()
        assert trace == (GOLDEN / "gjr_short_trace.csv").read_text().splitlines()[:4]
    assert (run_dir / "bounds.json").read_bytes() == (GOLDEN / f"{name}_bounds.json").read_bytes()
    manifest = run_dir / "manifest.json"
    expected = GOLDEN / f"{name}_manifest.json"
    assert manifest.exists() == expected.exists()
    if expected.exists():
        assert _pinnable_manifest(json.loads(manifest.read_text())) + "\n" == expected.read_text()


# the gjr_fglp_random config under both models at these seeds, and gjr_short
_GUIDED_SEEDS = range(1, 7)


@pytest.fixture(scope="module")
def gjr_seed_runs(tmp_path_factory):
    """The modules loaded by one fresh interpreter that ran gjr_short and the
    gjr_fglp_random config (seeds 1-6, FGLP and FALP), and each run's
    ``(bounds, manifest)`` by name ("gjr_short", "fglp1", "falp1", ...)."""
    tmp_path = tmp_path_factory.mktemp("gjr_seeds")
    configs = {"gjr_short": _short_gjr_config(tmp_path)}
    for seed in _GUIDED_SEEDS:
        for model in ("fglp", "falp"):
            configs[f"{model}{seed}"] = {**_short_gjr_fglp_random_config(tmp_path), "model": model, "seed": seed}
    paths = {}
    for name, cfg in configs.items():
        cfg["output_dir"] = str(tmp_path / name)
        paths[name] = _write(tmp_path, cfg, f"{name}.json")
    loaded = _loaded_after("from ralp import cli\n" + "".join(
        f"assert cli.run_experiment({str(path)!r})[0] == 0\n" for path in paths.values()
    ))
    runs = {}
    for name in configs:
        (run_dir,) = (tmp_path / name).iterdir()
        runs[name] = tuple(json.loads((run_dir / f).read_text()) for f in ("bounds.json", "manifest.json"))
    return loaded, runs


def test_gjr_runs_leave_scipy_optimize_unloaded(gjr_seed_runs):
    # every cut LP is solved on the live HiGHS model; the all-rows linprog
    # fall-back, which imports scipy.optimize, is not reached
    loaded, runs = gjr_seed_runs
    assert len(runs) == 1 + 2 * len(_GUIDED_SEEDS)
    assert "scipy.optimize" not in loaded


def test_anchored_guide_rows_hold(gjr_seed_runs):
    # with the bias anchored at u(0) = 0 the guided cut LPs are well posed:
    # their weights satisfy their own rows with no weight box
    _, runs = gjr_seed_runs
    for seed in _GUIDED_SEEDS:
        assert runs[f"fglp{seed}"][1]["cut_loop_max_violation"] <= 1e-7, seed


def test_anchored_guide_rows_bind(gjr_seed_runs):
    # the guide rows constrain something: on some seed FGLP's lower bound
    # differs from FALP's
    _, runs = gjr_seed_runs
    lbs = [(runs[f"fglp{seed}"][0]["lb"], runs[f"falp{seed}"][0]["lb"]) for seed in _GUIDED_SEEDS]
    assert any(abs(guided - free) > 1e-9 * abs(free) for guided, free in lbs)


def _gjr_problem(**spec):
    return "gjr:" + json.dumps(spec)


# configs that both commands reject before a run directory exists: the
# shipped config each edits, the edit, and what its one error line names
_REJECTED_CONFIGS = {
    "seed_not_an_integer": ("toy", {"seed": "six"}, "seed"),
    "negative_seed": ("gjr2", {"seed": -1}, "seed"),
    "grid_without_actions": ("toy", {"loop.grid": {"states": 1001}}, "loop.grid.actions"),
    "fixed_omegas_not_a_list": ("toy", {"loop.fixed_omegas": 3}, "loop.fixed_omegas"),
    "zero_replications": ("toy", {"sim.replications": 0}, "sim: replications"),
    "batch_not_an_integer": ("toy", {"loop.batch": "ten"}, "loop.batch"),
    "saddle_bound_without_constants": ("toy", {"loop.lb_method": "saddle"}, "loop.lb_method"),
    "misspelt_loop_key": ("toy", {"loop.max_basis": 200}, "unknown key 'loop.max_basis'"),
    "removed_nu_sample_size": ("toy", {"loop.nu_sample_size": 100}, "unknown key 'loop.nu_sample_size'"),
    "lambda_above_one": ("pic1", {"lower_bound.lambda": 2}, "lower_bound: lambda"),
    "pic_id_outside_catalog": ("pic1", {"problem": "pic:99"}, "problem: instance id"),
    "zero_lookahead_steps": ("gjr2", {"gjr.k": 0}, "gjr: stages and k"),
    "unknown_gjr_scheme": ("gjr2", {"problem": _gjr_problem(items=2, scheme="bogus", z=100)}, "problem: scheme"),
    "unknown_gjr_model": ("gjr2", {"model": "bogus"}, "model: expected"),
    "misspelt_gjr_spec_key": ("gjr2", {"problem": _gjr_problem(itmes=3, scheme="constant", z=100)},
                              "problem: unknown key 'itmes'"),
    "removed_guide_states": ("gjr2", {"gjr.guide_states": 100}, "unknown key 'gjr.guide_states'"),
    # toy.json runs 3 bases in batches of 1
    "fixed_omegas_short_of_budget": ("toy", {"loop.fixed_omegas": [2.0]}, "needs 3 entries, got 1"),
    "sigma_range_not_numeric": ("pic1", {"loop.sigma_range": ["a", "b"]}, "loop.sigma_range"),
    # both halves of an either/or pair
    "num_constraints_beside_grid": ("toy", {"loop.num_constraints": 100},
                                    "config: loop.grid and loop.num_constraints exclude each other"),
    "sigma_range_beside_fixed_omegas": ("toy", {"loop.sigma_range": [1, 10]},
                                        "config: loop.fixed_omegas and loop.sigma_range exclude each other"),
    # integer keys take JSON integers only: no truncation, no bool
    "fractional_batch": ("toy", {"loop.batch": 1.7}, "loop.batch: expected an integer, got 1.7"),
    "boolean_replications": ("toy", {"sim.replications": True}, "sim.replications: expected an integer, got True"),
    "fractional_max_cuts": ("gjr2", {"gjr.max_cuts": 2.5}, "gjr.max_cuts: expected an integer, got 2.5"),
    "zero_demand_saa_size": ("pic1", {"demand_saa_size": 0}, "demand_saa_size must be >= 1"),
    "negative_num_bases": ("gjr2", {"gjr.num_bases": -3}, "gjr.num_bases: expected an integer >= 0"),
    "zero_max_cuts": ("gjr2", {"gjr.max_cuts": 0}, "gjr.max_cuts: expected an integer >= 1"),
    "zero_init_pairs": ("gjr2", {"gjr.init_pairs": 0}, "gjr.init_pairs: expected an integer >= 1"),
    # a 0 is a value, not an absent key: a 0-stage rollout prices every policy at 0
    "zero_horizon": ("pic1", {"sim.horizon": 0}, "sim.horizon: expected an integer >= 1"),
    "zero_action_grid": ("pic1", {"sim.action_grid": 0}, "sim: action grid needs at least 2 points"),
    # gjr spec arrays hold one entry per item
    "gjr_u_short": ("gjr2", {"problem": _gjr_problem(items=2, scheme="constant", z=100, u=[0.5])},
                    "problem: u: expected one entry per item, shape (2,), got shape (1,)"),
    "gjr_alpha_long": ("gjr2", {"problem": _gjr_problem(items=2, scheme="discrete", z=100, alpha=[2, 4, 8])},
                       "problem: alpha: expected one entry per item, shape (2,), got shape (3,)"),
    "gjr_usage_rates_long": ("gjr2", {"problem": _gjr_problem(items=2, scheme="constant", z=100,
                                                              usage_rates=[1.0, 1.0, 1.0])},
                             "problem: usage_rates: expected one entry per item, shape (2,), got shape (3,)"),
    "gjr_item_fixed_costs_long": ("gjr2", {"problem": _gjr_problem(items=2, scheme="constant", z=100,
                                                                   item_fixed_costs=[1, 2, 3])},
                                  "problem: item_fixed_costs: expected one entry per item, shape (2,), got shape (3,)"),
    # the grid plan spans a 1-D state and action; pic:1 has a 3-D state
    "grid_on_pic": ("pic1", {"loop": {"grid": {"states": 11, "actions": 11}}}, "loop.grid: the grid plan needs"),
}


@pytest.mark.parametrize("name", list(_REJECTED_CONFIGS))
def test_both_commands_reject_config_before_run_dir(tmp_path, capsys, name):
    base, edits, named = _REJECTED_CONFIGS[name]
    cfg = _shipped_config(tmp_path, base)
    for dotted, value in edits.items():
        *sections, key = dotted.split(".")
        target = cfg
        for section in sections:
            target = target[section]
        target[key] = value
    path = _write(tmp_path, cfg)
    for command in ("validate-config", "run"):
        assert cli.main([command, "--config", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert named in err
    assert not (tmp_path / "runs").exists()


def test_shipped_and_benchmark_configs_validate(tmp_path, monkeypatch, capsys):
    # configs/*.json (the pic catalog is instance data, not a run config) and
    # the config of each benchmark workload
    spec = importlib.util.spec_from_file_location("workloads", REPO / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)  # dataclasses look their module up there
    spec.loader.exec_module(workloads)
    shipped = sorted(p.stem for p in (REPO / "configs").glob("*.json") if p.name != "pic_catalog.json")
    assert shipped == ["gjr2", "pic1", "toy"]
    configs = [_shipped_config(tmp_path, name) for name in shipped]
    configs += [w.config(0, 0, str(tmp_path / "runs")) for w in workloads.WORKLOADS.values()]
    for i, cfg in enumerate(configs):
        assert cli.main(["validate-config", "--config", str(_write(tmp_path, cfg, f"config{i}.json"))]) == 0
        assert capsys.readouterr() == ("ok\n", "")
    assert not (tmp_path / "runs").exists()


def test_artifacts_evaluate_incumbent_on_its_basis_prefix(tmp_path):
    # the policy-cost incumbent holds 2 weights while the run ended with 4 bases
    from ralp import toy
    from ralp.alp import VfaWeights, vfa_values
    from ralp.bases import fixed_fourier
    from ralp.loop import IterationRecord, RunResult

    mdp = toy.build_toy()
    cfg = _toy_config(tmp_path, thetas=(2.0, -5.0, 3.0, 4.0))
    cfg["sim"]["replications"] = 20
    loop_config = cli._loop_config(cli._flatten(cfg), mdp, cfg["seed"], "falp")
    bases = fixed_fourier([2.0, -5.0, 3.0, 4.0])
    incumbent = VfaWeights(beta0=0.3, betas=np.array([0.1, -0.2]))
    final = VfaWeights(beta0=0.2, betas=np.array([0.1, -0.2, 0.05, 0.01]))

    def record(num_bases, pc):
        return IterationRecord(
            num_bases=num_bases, lb=0.1, pc=pc, pc_stderr=0.01, tau_star=1.0 - 0.1 / 0.4,
            lb_expectation=0.1, lb_saddle=None, lb_saddle_stderr=None, saddle_acceptance=None,
            incumbent_lb_bases=num_bases, incumbent_pc_bases=2, incumbent_lb=0.1,
            incumbent_pc=0.4, wallclock=0.0,
        )

    result = RunResult(
        records=[record(2, 0.4), record(4, 0.5)], bases=bases, pc_weights=incumbent,
        converged=False, plan=loop_config.plan, iterate_weights=[incumbent, final],
    )
    run_dir = tmp_path / "artifacts"
    run_dir.mkdir()
    assert cli._write_discounted_artifacts(run_dir, cfg, mdp, loop_config, result) == 2
    rows = (run_dir / "vfa_curve.csv").read_text().splitlines()[1:]
    grid = np.linspace(0.0, 1.0, 1001)
    expected = vfa_values(bases.prefix(2), incumbent, grid[:, None])
    assert [float(r.split(",")[2]) for r in rows] == list(expected)
    assert (run_dir / "visit_frequency.csv").exists()


def test_default_lb_method_follows_saddle_constants():
    # the saddle bound is the default exactly where the problem supplies its constants
    from ralp import pic, toy

    pic_mdp = pic.build_pic_mdp(pic.instance_from_table(1), demand_saa_size=20, demand_seed=0)
    assert cli._loop_config({}, toy.build_toy(), 0, "falp").lb_method == "expectation"
    assert cli._loop_config({}, pic_mdp, 0, "falp").lb_method == "saddle"
    flat = cli._flatten({"loop": {"lb_method": "expectation"}})
    assert cli._loop_config(flat, pic_mdp, 0, "falp").lb_method == "expectation"


def test_lower_bound_section_reaches_saddle_config():
    # the config's "lambda" is SaddleConfig.lam; a key left unset keeps the dataclass default
    from ralp import pic
    from ralp.lower_bound import SaddleConfig

    pic_mdp = pic.build_pic_mdp(pic.instance_from_table(1), demand_saa_size=20, demand_seed=0)
    flat = cli._flatten({"lower_bound": {"chains": 4, "lambda": 0.5}})
    assert cli._loop_config(flat, pic_mdp, 3, "falp").saddle == SaddleConfig(chains=4, lam=0.5, seed=3)
    assert flat == {}


def test_default_action_grid_per_problem():
    # without sim.action_grid the lookahead grid comes from the problem
    from ralp import pic, toy

    for instance, points in ((1, 11), (7, 31)):
        mdp = pic.build_pic_mdp(pic.instance_from_table(instance), demand_saa_size=20, demand_seed=0)
        assert cli._loop_config({}, mdp, 0, "falp").sim.action_grid == points
    assert cli._loop_config({}, toy.build_toy(), 0, "falp").sim.action_grid == 101


class TestRunFailures:
    def test_cap_hit_exit_two(self, tmp_path):
        cfg = _toy_config(tmp_path, tolerance=0.001, thetas=(2.0, -5.0), max_bases=2)
        path = _write(tmp_path, cfg)
        code, run_dir = cli.run_experiment(path)
        assert code == 2
        assert json.loads((Path(run_dir) / "bounds.json").read_text())["converged"] is False

    def test_malformed_config_exit_one(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{]")
        code, run_dir = cli.run_experiment(path)
        assert code == 1 and run_dir is None

    def test_unwritable_output_dir_exit_one(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        cfg = _toy_config(tmp_path)
        cfg["output_dir"] = str(blocker / "runs")
        path = _write(tmp_path, cfg)
        code, run_dir = cli.run_experiment(path)
        assert code == 1 and run_dir is None

    @pytest.mark.parametrize("problem", ["toy", "gjr"])
    def test_lp_failure_exit_one(self, tmp_path, monkeypatch, capsys, problem):
        # a live LP that reports a numerical failure for every solve after the
        # first lps_solved, each of which finishes one trace row (the toy's
        # backend solves each model on a live LP of its own, the gjr cut loop
        # solves all its cuts on one)
        from ralp.alp import LiveLp, LpSolution

        lps_solved = 1 if problem == "toy" else 3
        failed = LpSolution(status="numeric", x=None, objective=None, max_violation=None)
        solve, solved = LiveLp.solve, []

        def first_lps_only(self):
            solved.append(self)
            return solve(self) if len(solved) <= lps_solved else failed

        monkeypatch.setattr(LiveLp, "solve", first_lps_only)
        cfg = _toy_config(tmp_path) if problem == "toy" else _small_gjr_config(tmp_path)
        path = _write(tmp_path, cfg)
        assert cli.main(["run", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "numeric" in err
        assert "Traceback" not in err
        # the rows finished before the failed LP are kept, as with a budget
        (run_dir,) = (tmp_path / "runs").iterdir()
        trace = (run_dir / "trace.csv").read_text().splitlines()
        columns = cli.TRACE_COLUMNS if problem == "toy" else cli.GJR_TRACE_COLUMNS
        assert trace[0] == ",".join(columns) and len(trace) == 1 + lps_solved
        bounds = json.loads((run_dir / "bounds.json").read_text())
        assert bounds == {"instance": cfg["problem"], "model": cfg["model"], "converged": False}
        assert not (run_dir / "manifest.json").exists()

    @pytest.mark.parametrize("stop", ["cut_budget", "lp_failure"])
    def test_fglp_stopped_in_affine_warm_start(self, tmp_path, monkeypatch, capsys, stop):
        # trace.csv holds the stump loop's cuts, so a run stopped in the affine
        # warm start leaves its header only, and the stop names the warm start
        from ralp.alp import LiveLp, LpSolution

        cfg = _short_gjr_fglp_random_config(tmp_path)
        if stop == "cut_budget":
            cfg["gjr"]["max_cuts"] = 3  # the warm start needs 5 cuts
            expected_code, expected_err = 2, "cut budget exhausted: affine warm start: no convergence within 3 cuts\n"
        else:
            failed = LpSolution(status="numeric", x=None, objective=None, max_violation=None)
            solve, solved = LiveLp.solve, []

            def first_lps_only(self):
                solved.append(self)
                return solve(self) if len(solved) <= 2 else failed

            monkeypatch.setattr(LiveLp, "solve", first_lps_only)
            expected_code, expected_err = 1, "error: affine warm start: LP solve failed: numeric (cut 2)\n"
        assert cli.main(["run", "--config", str(_write(tmp_path, cfg))]) == expected_code
        assert capsys.readouterr().err == expected_err
        (run_dir,) = (tmp_path / "runs").iterdir()
        assert (run_dir / "trace.csv").read_text() == ",".join(cli.GJR_TRACE_COLUMNS) + "\n"
        bounds = json.loads((run_dir / "bounds.json").read_text())
        assert bounds == {"instance": cfg["problem"], "model": "fglp", "converged": False}
        assert not (run_dir / "manifest.json").exists()

    def test_gjr_spec_not_an_object(self, tmp_path, capsys):
        cfg = _small_gjr_config(tmp_path)
        cfg["problem"] = "gjr:[1,2]"
        path = _write(tmp_path, cfg)
        assert cli.main(["validate-config", "--config", str(path)]) == 1
        assert "must be a JSON object" in capsys.readouterr().err
        assert cli.main(["run", "--config", str(path)]) == 1
        assert "must be a JSON object" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()


def _small_gjr_config(tmp_path, **gjr_fields):
    return {
        "problem": 'gjr:{"items": 2, "scheme": "constant", "z": 100, "usage_rates": [1.0, 1.0]}',
        "model": "falp",
        "seed": 42,
        "output_dir": str(tmp_path / "runs"),
        "gjr": {"num_bases": 5, "init_pairs": 80, "grid_per_dim": 25, **gjr_fields},
    }


class TestRunGjr:
    def test_small_instance_round_trip(self, tmp_path):
        path = _write(tmp_path, _small_gjr_config(tmp_path, stages=60, k=2))
        code, run_dir = cli.run_experiment(path)
        assert code == 0
        bounds = json.loads((Path(run_dir) / "bounds.json").read_text())
        assert bounds["lb"] <= bounds["pc"] + 1e-3
        header = (Path(run_dir) / "trace.csv").read_text().splitlines()[0]
        assert header == ",".join(cli.GJR_TRACE_COLUMNS)
        # phase times go to the manifest only, where they cannot perturb trace.csv
        manifest = json.loads((Path(run_dir) / "manifest.json").read_text())
        for key in ("cut_loop_lp_s", "cut_loop_separate_s", "simulate_s"):
            assert isinstance(manifest[key], float) and manifest[key] >= 0.0
        assert isinstance(manifest["lp_iterations"], int) and manifest["lp_iterations"] > 0
        # feasible points of the 25-point grid, per stocked-out item: its 24
        # positive orders times the other item's 24 positive levels (one item
        # replenished) or its 324 nonzero (level, order) pairs within the cap
        assert manifest["separation_grid_points"] == 2 * 24 * (24 + 324)

    def test_cut_cap_exit_two(self, tmp_path):
        path = _write(tmp_path, _small_gjr_config(tmp_path, max_cuts=1))
        code, run_dir = cli.run_experiment(path)
        assert code == 2
        assert json.loads((Path(run_dir) / "bounds.json").read_text())["converged"] is False


class TestSummarize:
    def _bounds_dir(self, tmp_path, name, gap):
        d = tmp_path / name
        d.mkdir()
        (d / "bounds.json").write_text(
            json.dumps({"instance": "pic:1", "model": "falp", "tau_star": gap})
        )
        return d

    def test_single_run_collapses(self, tmp_path):
        d = self._bounds_dir(tmp_path, "r1", 0.04)
        table = cli.emit_table([d])
        line = table.splitlines()[1].split(",")
        assert line[3] == line[4] == line[5] == repr(0.04)

    def test_median_of_three(self, tmp_path):
        dirs = [self._bounds_dir(tmp_path, f"r{i}", g) for i, g in enumerate([1.0, 2.0, 9.0])]
        table = cli.emit_table(dirs)
        line = table.splitlines()[1].split(",")
        assert (line[3], line[4], line[5]) == (repr(1.0), repr(2.0), repr(9.0))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cli.emit_table([])

    def test_inconsistent_schema_rejected(self, tmp_path):
        d = tmp_path / "bad"
        d.mkdir()
        (d / "bounds.json").write_text(json.dumps({"instance": "pic:1"}))
        with pytest.raises(ValueError):
            cli.emit_table([d])

    def test_cli_wiring(self, tmp_path, capsys):
        d = self._bounds_dir(tmp_path, "r1", 0.03)
        assert cli.main(["summarize", str(d)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("instance,model,runs,gap_min,gap_median,gap_max")


class TestPrintInstance:
    def test_pic_row(self, capsys):
        assert cli.main(["print-instance", "pic:1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["c_o"] == 20.0 and doc["gamma"] == 0.95

    def test_pic_catalog(self, capsys):
        assert cli.main(["print-instance", "pic:all"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc) == 16 and doc["16"]["gamma"] == 0.99

    def test_gjr_spec(self, capsys):
        spec = 'gjr:{"items": 2, "scheme": "discrete", "z": 100, "alpha": [2, 4], "u": [0.5, 0.5], "usage_rates": [1, 1]}'
        assert cli.main(["print-instance", spec, "--seed", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["s_bar"] == [4.0, 8.0]

    def test_unknown_spec(self, capsys):
        assert cli.main(["print-instance", "mystery:1"]) == 1

    def test_pic_id_outside_catalog(self, capsys):
        assert cli.main(["print-instance", "pic:99"]) == 1
        assert capsys.readouterr().err == "error: instance id must be 1..16, got 99\n"

    def test_gjr_spec_not_an_object(self, capsys):
        assert cli.main(["print-instance", "gjr:[1,2]"]) == 1
        assert "must be a JSON object" in capsys.readouterr().err
