"""Benchmark worker: runs workload configs through ``ralp.cli.run_experiment``.

Started by ``run.py`` in a fresh interpreter whose environment already pins
the BLAS thread count, so the setting takes effect before numpy loads.

    python3 perfbench/worker.py --workload W --seed N --probe I --out result.json
        set-up only: import ralp, write the config of sub-run I and run it up
        to the first call into loop.run or gjr.constraint_generation
    python3 perfbench/worker.py --workload W --seed N --until T --trace 0|1 --out result.json
        run sub-runs 0, 1, ... until wall-clock time T (at least one),
        checking each run's artifacts; with --trace 1 each sub-run is run
        twice, untraced and then traced
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(ROOT / "src"))

import ralp.cli  # noqa: E402
from ralp import gjr  # noqa: E402
from ralp.alp import ScipyBackend  # noqa: E402

_IMPORT_S = time.perf_counter() - _STARTED

import layers  # noqa: E402
from tracer import Tracer, layer_table  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402


class SetupDone(Exception):
    """Raised by the probe hook to stop a run once set-up is over."""


class Hooks:
    """Wrappers the untraced run needs: the time of the first call into the
    loop or cut generation (end of set-up) and the largest LP solved."""

    def __init__(self, stop_at_first_call: bool = False):
        self.first_call = None
        self.lp_rows = self.lp_cols = 0
        self._saved = []
        for owner, attr in ((ralp.cli, "run_loop"), (gjr, "constraint_generation")):
            self._patch(owner, attr, self._entry(vars(owner)[attr], stop_at_first_call))
        solve = vars(ScipyBackend)["solve"]

        def sized_solve(backend, model):
            self.lp_rows = max(self.lp_rows, model.num_rows)
            self.lp_cols = max(self.lp_cols, model.num_vars)
            return solve(backend, model)

        self._patch(ScipyBackend, "solve", sized_solve)

    def _entry(self, fn, stop: bool):
        def entry(*args, **kwargs):
            if self.first_call is None:
                self.first_call = time.perf_counter()
                if stop:
                    raise SetupDone
            return fn(*args, **kwargs)

        return entry

    def _patch(self, owner, attr, replacement) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _write_config(workload: Workload, seed: int, index: int, tag: str) -> Path:
    path = OUT / "configs" / f"{tag}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(workload.config(seed, index, str(OUT / "runs" / tag)), indent=1))
    return path


def probe(workload: Workload, seed: int, index: int) -> dict:
    tag = f"{workload.name}-n{seed}-i{index}-probe"
    config = _write_config(workload, seed, index, tag)
    hooks = Hooks(stop_at_first_call=True)
    started = time.perf_counter()
    try:
        ralp.cli.run_experiment(config)
    except SetupDone:
        pass
    finally:
        hooks.restore()
    shutil.rmtree(OUT / "runs" / tag, ignore_errors=True)
    if hooks.first_call is None:
        return {"errors": ["the run never reached loop.run or gjr.constraint_generation"]}
    return {"setup_s": _IMPORT_S + hooks.first_call - started, "errors": []}


def subrun(workload: Workload, seed: int, index: int, trace: bool) -> dict:
    tag = f"{workload.name}-n{seed}-i{index}-t{int(trace)}"
    config = _write_config(workload, seed, index, tag)
    hooks = Hooks()
    tracer = Tracer() if trace else None
    if tracer is not None:
        layers.install(tracer)
    errors = []
    started = time.perf_counter()
    try:
        code, run_dir = ralp.cli.run_experiment(config)
    except Exception:  # a crashing run is a failed operation; the next sub-run still runs
        code, run_dir = None, None
        errors.append(traceback.format_exc())
    finally:
        finished = time.perf_counter()
        if tracer is not None:
            tracer.restore()
        hooks.restore()
    result = {
        "index": index,
        "config_seed": json.loads(config.read_text())["seed"],
        "run_s": finished - started,
        "lp_rows_x_cols": f"{hooks.lp_rows}x{hooks.lp_cols}",
    }
    if run_dir is None or not (run_dir / "bounds.json").is_file():
        errors.append(f"run wrote no bounds.json (exit code {code})")
    else:
        try:
            errors += workload.check(run_dir, code)
            result["final_gap"] = json.loads((run_dir / "bounds.json").read_text())["tau_star"]
            result["trace_sha256"] = hashlib.sha256((run_dir / "trace.csv").read_bytes()).hexdigest()
        except (OSError, KeyError, ValueError) as err:
            errors.append(f"unreadable artifacts: {err!r}")
    shutil.rmtree(OUT / "runs" / tag, ignore_errors=True)
    result["errors"] = errors
    if tracer is not None:
        result["layers"] = layers.metrics(tracer)
        result["layer_table"] = layer_table(tracer.spans)
        spans_path = OUT / "spans" / f"{tag}.csv"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(spans_path)
    return result


def _versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--probe", type=int, help="sub-run index whose set-up is timed")
    mode.add_argument("--until", type=float, help="wall-clock time (time.time) after which no sub-run starts")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    workload = WORKLOADS[args.workload]

    if args.probe is not None:
        out = probe(workload, args.seed, args.probe)
    else:
        runs = []
        while not runs or time.time() < args.until:
            index = len(runs)
            pair = [subrun(workload, args.seed, index, False)]
            if args.trace:
                pair.append(subrun(workload, args.seed, index, True))
            runs.append(pair)
            gc.collect()
        out = {
            "runs": runs,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "versions": _versions(),
        }
    Path(args.out).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
