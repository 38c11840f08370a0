"""Benchmark for ralp: wall time, set-up time and memory of ``ralp run``.

    python3 perfbench/run.py --workload pic-saddle --seed 0 --seconds 45 --trace 0

Run from anywhere inside a checkout; it works on the checkout that holds it.
Each workload (``workloads.py``) writes ``ralp run`` configs from ``--seed``
and runs them through ``ralp.cli.run_experiment``.  Every process it starts
gets ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS``
in its environment, so the thread count is fixed before numpy loads.

``--trace 0`` first times set-up in ``SETUP_PROBES`` fresh interpreters, then
starts one worker process that runs sub-runs until ``--seconds`` have passed
since the start.  It reports medians over sub-runs:

- ``run_s``: wall seconds of one ``run_experiment`` call;
- ``setup_s``: importing ralp plus building the inputs, up to the first call
  into ``loop.run`` or ``gjr.constraint_generation``;
- ``peak_rss_mb``: peak resident memory of the worker process.

A sub-run whose correctness check fails is a failed operation and gives no
timing sample.  ``--trace 1`` runs every sub-run twice, untraced and then
traced, and reports per-layer metrics of the traced runs, the tracing
overhead (traced minus untraced ``run_s``) and a self-time table per layer.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
is a JSON report of the fields that do not gate: sample count and high
percentile of ``run_s``, each sub-run's final gap, trace.csv sha256 and LP
size, the thread settings and library versions.

All three workloads, end-to-end metrics and then the per-layer tables:

    for t in 0 1; do for w in toy-fglp-chain pic-saddle gjr-cutgen; do
        python3 perfbench/run.py --workload $w --seed 0 --seconds 45 --trace $t; done; done

``BENCHMARK.json`` lists only ``pic-saddle`` and ``gjr-cutgen``: ``ralp run``
on a toy FGLP chain exits with code 1 ("weight length 4 != basis count 6")
whenever the policy-cost incumbent is not the last iterate, because the
artifact writer evaluates the incumbent's weights on the final, larger basis
set.  About one toy sub-run in twenty hits this, so ``toy-fglp-chain`` reports
failed sub-runs until that is fixed in ``src/ralp/cli.py``.

The benchmark's own tests: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 30.0
RUN_LIMIT_S = 170.0  # a worker still running this long after the start is killed


def run_worker(workload: str, seed: int, args: list[str], timeout: float) -> dict:
    """Run ``worker.py`` in a fresh interpreter and read its JSON result."""
    out = OUT / "results" / f"{workload}-n{seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.unlink(missing_ok=True)
    env = dict(os.environ)
    env.update({var: str(THREADS) for var in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--out", str(out), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"worker timed out after {timeout:.0f} s"}
    if proc.returncode != 0 or not out.is_file():
        return {"error": f"worker exited with code {proc.returncode}"}
    return json.loads(out.read_text())


def high_percentile(values: list[float]) -> tuple[str, float]:
    """The highest percentile with at least ten samples above it; the maximum below 20 samples,
    where that percentile would lie under the median."""
    ordered = sorted(values)
    if len(ordered) < 20:
        return "max", ordered[-1]
    k = len(ordered) - 11
    return f"p{100 * (k + 1) / len(ordered):.0f}", ordered[k]


def merge_tables(tables: list[list[dict]]) -> list[dict]:
    """Mean calls and self time per layer and span name over several traced sub-runs."""
    merged: dict[str, dict] = {}
    for table in tables:
        for lay in table:
            m = merged.setdefault(lay["layer"], {"layer": lay["layer"], "calls": 0.0, "self_s": 0.0, "names": {}})
            m["calls"] += lay["calls"] / len(tables)
            m["self_s"] += lay["self_s"] / len(tables)
            for row in lay["names"]:
                n = m["names"].setdefault(row["name"], {"name": row["name"], "calls": 0.0, "self_s": 0.0})
                n["calls"] += row["calls"] / len(tables)
                n["self_s"] += row["self_s"] / len(tables)
    rows = sorted(merged.values(), key=lambda r: -r["self_s"])
    for lay in rows:
        lay["names"] = sorted(lay["names"].values(), key=lambda r: -r["self_s"])
    return rows


def print_layer_table(rows: list[dict]) -> None:
    total = sum(lay["self_s"] for lay in rows)
    print(f"{'layer / span':<30}{'calls':>10}{'self_s':>12}{'share':>8}")
    for lay in rows:
        print(f"{lay['layer']:<30}{lay['calls']:>10.0f}{lay['self_s']:>12.3f}{lay['self_s'] / total:>8.1%}")
        for row in lay["names"]:
            print(f"  {row['name']:<28}{row['calls']:>10.0f}{row['self_s']:>12.3f}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ralp" / "cli.py").is_file():
        print(f"error: no ralp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    started = time.time()
    until = started + args.seconds

    setup_times, failures = [], []
    if not args.trace:
        for i in range(SETUP_PROBES):
            probe = run_worker(workload.name, args.seed, ["--probe", str(i)], PROBE_TIMEOUT_S)
            errors = [probe["error"]] if "error" in probe else probe["errors"]
            if errors:
                failures.append({"probe": i, "errors": errors})
            else:
                setup_times.append(probe["setup_s"])
    result = run_worker(workload.name, args.seed,
                        ["--until", repr(until), "--trace", str(args.trace)],
                        started + RUN_LIMIT_S - time.time())
    if "error" in result:
        print(f"error: {result['error']}", file=sys.stderr)
        return 1

    passed = []
    for pair in result["runs"]:
        errors = [e for r in pair for e in r["errors"]]
        if errors:
            failures.append({"index": pair[0]["index"], "errors": errors})
            print(f"sub-run {pair[0]['index']} failed: {errors}", file=sys.stderr)
        else:
            passed.append(pair)
    if not passed or not (setup_times or args.trace):
        print(f"error: nothing passed its checks: {failures}", file=sys.stderr)
        return 1

    untraced = [pair[0] for pair in passed]
    run_times = [r["run_s"] for r in untraced]
    pct_name, pct_value = high_percentile(run_times)
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "samples": len(run_times),
        "run_s_median": median(run_times),
        f"run_s_{pct_name}": pct_value,
        "final_gap_median": median(r["final_gap"] for r in untraced),
        "subruns": [
            {k: r[k] for k in ("index", "config_seed", "run_s", "final_gap", "trace_sha256", "lp_rows_x_cols")}
            for r in untraced
        ],
        "threads": {var: THREADS for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "versions": result["versions"],
        "failures": failures,
    }
    if args.trace:
        traced = [pair[1] for pair in passed]
        metrics = {name: median(r["layers"][name] for r in traced) for name in traced[0]["layers"]}
        metrics["trace.overhead_s"] = median(t["run_s"] - u["run_s"] for u, t in passed)
        units = {name: ("s" if name.endswith("_s") else "count") for name in metrics}
        units["lower_bound.mh_acceptance"] = "ratio"
        units["alp.max_violation"] = "lp_units"
        print_layer_table(merge_tables([r["layer_table"] for r in traced]))
        print(f"{len(traced)} traced sub-runs; tracing overhead {metrics['trace.overhead_s']:.3f} s "
              f"on an untraced run_s of {median(run_times):.3f} s")
    else:
        metrics = {
            "run_s": median(run_times),
            "setup_s": median(setup_times),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
        for name, value in metrics.items():
            print(f"{workload.name:<16}{name:<13}{value:>12.4f} {units[name]}")
        print(f"{workload.name:<16}{'final_gap':<13}{report['final_gap_median']:>12.4g} (median tau_star, not gated)")
        print(f"{workload.name:<16}{'samples':<13}{len(run_times):>12d} (run_s {pct_name} {pct_value:.4f} s)")
    attempted = len(result["runs"]) + (0 if args.trace else SETUP_PROBES)
    print(json.dumps(report))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
