"""Self-tests of the benchmark's own code.

    python3 -m pytest perfbench -q
"""

import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
from tracer import Span, Tracer, layer_table, outermost_time, self_times  # noqa: E402
from workloads import TOY_OPTIMAL_COST, WORKLOADS, check_gjr, check_pic, check_toy  # noqa: E402


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_is_duration_minus_child_coverage():
    # root [0, 10] with children [1, 3] and [4, 8]; the second has a child [5, 6]
    tracer = Tracer(clock=FakeClock([0, 1, 3, 4, 5, 6, 8, 10]))
    root = tracer.begin("cli.run")
    a = tracer.begin("alp.solve")
    tracer.end(a)
    b = tracer.begin("gjr.separate")
    c = tracer.begin("bases.features")
    tracer.end(c)
    tracer.end(b)
    tracer.end(root)
    assert [s.parent for s in tracer.spans] == [None, 0, 0, 2]
    assert self_times(tracer.spans) == [10 - 2 - 4, 2, 4 - 1, 1]
    table = {row["layer"]: row for row in layer_table(tracer.spans)}
    assert table["cli"]["self_s"] == 4 and table["gjr"]["calls"] == 1
    assert sum(row["self_s"] for row in table.values()) == 10


def test_self_time_counts_overlapping_children_once():
    spans = [Span(0, None, "a.x", 0.0, 10.0), Span(1, 0, "b.y", 2.0, 6.0), Span(2, 0, "b.z", 4.0, 12.0)]
    assert self_times(spans)[0] == pytest.approx(10.0 - 8.0)


def test_outermost_time_skips_nested_spans_and_filters_by_ancestor():
    spans = [
        Span(0, None, "gjr.constraint_generation", 0.0, 10.0),
        Span(1, 0, "alp.solve", 1.0, 3.0),
        Span(2, None, "alp.build", 10.0, 14.0),
        Span(3, 2, "alp.build", 11.0, 12.0),
        Span(4, None, "alp.solve", 14.0, 15.0),
    ]
    assert outermost_time(spans, "alp.build") == 4.0
    assert outermost_time(spans, "alp.solve") == 3.0
    assert outermost_time(spans, "alp.solve", under="gjr.constraint_generation") == 2.0


def test_spans_close_in_order():
    tracer = Tracer()
    outer = tracer.begin("a.outer")
    tracer.begin("a.inner")
    with pytest.raises(RuntimeError):
        tracer.end(outer)


def test_wrap_records_spans_and_restore_puts_originals_back():
    mod = types.ModuleType("fake")
    mod.double = lambda x: 2 * x

    class Backend:
        def solve(self, x):
            return x + 1

    originals = (mod.double, vars(Backend)["solve"])
    tracer = Tracer()
    tracer.wrap(mod, "double", "fake.double", lambda t, r, x: t.counts.update({"fake.sum": r}))
    tracer.wrap(Backend, "solve", "fake.solve")
    assert mod.double(3) == 6 and Backend().solve(1) == 2
    assert [s.name for s in tracer.spans] == ["fake.double", "fake.solve"]
    assert tracer.counts["fake.sum"] == 6 and tracer.counts["fake.solve.calls"] == 1
    tracer.restore()
    assert (mod.double, vars(Backend)["solve"]) == originals


def test_layer_wrappers_restore_ralp_attributes():
    from ralp import alp, bases, cli, gjr, loop, lower_bound, policy

    modules = (alp, alp.ScipyBackend, bases, cli, gjr, loop, lower_bound, policy)
    before = [dict(vars(m)) for m in modules]
    tracer = Tracer()
    layers.install(tracer)
    assert gjr.features is not before[modules.index(gjr)]["features"]
    tracer.restore()
    after = [dict(vars(m)) for m in modules]
    assert all(
        after[i][k] is before[i][k] for i in range(len(modules)) for k in before[i]
    ), "a wrapped attribute was not restored"


def test_layer_metrics_cover_every_layer():
    tracer = Tracer()
    names = layers.metrics(tracer)
    for layer in layers.LAYERS:
        assert f"{layer}.self_s" in names
    assert names["bases.features_calls"] == 0 and names["alp.max_violation"] == 0.0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_configs_round_trip_through_load_config(name, tmp_path):
    from ralp.cli import load_config

    workload = WORKLOADS[name]
    configs = []
    for bench_seed, index in ((0, 0), (0, 1), (7, 0)):
        cfg = workload.config(bench_seed, index, str(tmp_path / "runs"))
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        assert load_config(path) == cfg
        configs.append(cfg)
    assert workload.config(0, 1, str(tmp_path / "runs")) == configs[1]
    assert configs[0] != configs[1] and configs[0] != configs[2]


def _write_run(tmp_path, bounds, header=None, rows=()):
    (tmp_path / "bounds.json").write_text(json.dumps(bounds))
    if header is not None:
        lines = [",".join(header)] + [",".join(str(v) for v in row) for row in rows]
        (tmp_path / "trace.csv").write_text("\n".join(lines) + "\n")
    return tmp_path


TRACE_HEADER = [
    "iteration", "num_bases", "lb", "pc", "pc_stderr", "tau_star", "lb_expectation", "lb_saddle",
    "lb_saddle_stderr", "incumbent_lb", "incumbent_pc", "incumbent_lb_bases", "incumbent_pc_bases",
]


def test_toy_check_uses_the_incumbent_stderr(tmp_path):
    pc = TOY_OPTIMAL_COST - 0.02
    rows = [
        [1, 2, 0.2, pc, 0.01, 0.1, 0.2, "", "", 0.2, pc, 2, 2],
        [2, 4, 0.21, pc + 1.0, 0.0, 0.1, 0.21, "", "", 0.21, pc, 4, 2],
    ]
    run_dir = _write_run(tmp_path, {"lb": 0.21, "pc": pc, "tau_star": 0.1}, TRACE_HEADER, rows)
    assert check_toy(run_dir, 2) == []
    rows[0][4] = 0.001
    run_dir = _write_run(tmp_path, {"lb": 0.21, "pc": pc, "tau_star": 0.1}, TRACE_HEADER, rows)
    assert len(check_toy(run_dir, 2)) == 1
    assert check_toy(run_dir, 1) == ["exit code 1"]


def test_pic_check_flags_each_iterate(tmp_path):
    rows = [
        [1, 10, 90.0, 100.0, 1.0, 0.1, 95.0, 90.0, 1.0, 90.0, 100.0, 10, 10],
        [2, 20, 107.0, 100.0, 1.0, 0.1, 95.0, 107.0, 1.0, 90.0, 100.0, 10, 10],
    ]
    run_dir = _write_run(tmp_path, {"lb": 90.0, "pc": 100.0, "tau_star": 0.1}, TRACE_HEADER, rows)
    errors = check_pic(run_dir, 2)
    assert len(errors) == 1 and errors[0].startswith("iteration 2")


def test_gjr_check(tmp_path):
    assert check_gjr(_write_run(tmp_path, {"lb": 91.0, "pc": 91.0005}), 0) == []
    assert len(check_gjr(_write_run(tmp_path, {"lb": 91.01, "pc": 91.0}), 0)) == 1
    assert check_gjr(tmp_path, 2) == ["exit code 2"]


def test_high_percentile_needs_ten_samples_above():
    assert run.high_percentile([3.0, 1.0, 2.0]) == ("max", 3.0)
    assert run.high_percentile([float(i) for i in range(100)]) == ("p90", 89.0)
    assert run.high_percentile([float(i) for i in range(30)]) == ("p67", 19.0)
