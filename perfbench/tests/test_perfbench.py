"""Tests of the benchmark itself: checker, seeding, span arithmetic, wrappers.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import hostspeed
import run
import tracing
import workloads
from conftest import ROOT


def first_of_kind(workload, kind):
    return next(it for it in workload.cycle(0) if it.kind == kind)


@pytest.fixture
def exact(tmp_path):
    return workloads.ExactWorkload(7, tmp_path)


def test_checker_flags_a_perturbed_rational(exact):
    for kind in ("identity", "oracle"):
        item = first_of_kind(exact, kind)
        lhs, rhs = exact.run(item)
        assert exact.check(item, (lhs, rhs)) is None
        assert exact.check(item, (lhs + Fraction(1, 10 ** 9), rhs)) is not None
        assert exact.check(item, (float(lhs), rhs)) is not None


def test_checker_flags_a_certificate(exact, tmp_path):
    item = first_of_kind(exact, "certify")
    assert exact.check(item, exact.run(item)) is None
    assert exact.check(item, {"gap": -1e-3}) is not None

    search = workloads.SearchWorkload(7, tmp_path)
    item = search.warmup()[0]
    result = search.run(item)
    assert search.check(item, result) is None
    forged = dataclasses.replace(result, certificate={"gap": -1e-3})
    assert search.check(item, forged) is not None
    sunk = dataclasses.replace(result, best_deficit=-1e-3)
    assert search.check(item, sunk) is not None


def test_checker_flags_a_failed_suite_report(tmp_path):
    suites = workloads.SuitesWorkload(7, tmp_path)
    item = suites.warmup()[0]
    report = suites.run(item)
    assert suites.check(item, report) is None
    failed = dataclasses.replace(report, failures=[{"gap": -1.0}])
    assert suites.check(item, failed) is not None


def test_a_raising_item_counts_as_failed(exact):
    item = first_of_kind(exact, "oracle")
    broken = dataclasses.replace(item, inputs={**item.inputs, "graphon": None})
    records = run.run_items(exact, [item, broken])
    [(shape, reason)] = run.failures(exact, records)
    assert shape == item.shape and reason.startswith("raised")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_two_seeds_give_the_same_count_and_size_mix(name, tmp_path):
    make = workloads.WORKLOADS[name]
    a, b = make(1, tmp_path).cycle(3), make(2, tmp_path).cycle(3)
    assert len(a) == len(b) == len(make(1, tmp_path).shapes)
    assert sorted(map(repr, (it.shape for it in a))) == sorted(
        map(repr, (it.shape for it in b)))
    assert [repr(it.inputs) for it in a] != [repr(it.inputs) for it in b]


COMPUTED = ("contraction.ops_computed", "contraction.max_width")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_computed_counts_repeat_for_one_seed(name, tmp_path):
    make = workloads.WORKLOADS[name]

    def counts():
        workload = make(5, tmp_path)
        if name != "suites":
            workload.shapes = workload.shapes[::4]
        _, failed, metrics, _ = run.traced_run(workload, 1)
        assert failed == []
        return {k: v for k, (v, _) in metrics.items()
                if k in COMPUTED or k.endswith(".calls")
                or k in ("verify.checks", "contraction.order.cache_hit_ratio")}

    first = counts()
    assert first == counts()
    assert first["contraction.order.calls"] > 0


def test_self_times_of_nested_wrappers_sum_to_the_parent():
    ticks = iter(range(1000))
    tracer = tracing.Tracer(clock=lambda: next(ticks) * 0.001)
    leaf = tracer.wrap("leaf", lambda: None)
    mid = tracer.wrap("mid", lambda: (leaf(), leaf()))
    top = tracer.wrap("top", lambda: (mid(), leaf(), mid()))
    with tracer.span("item", item=0):
        top()
    selfs = tracing.self_times(tracer.spans)
    item = tracer.spans[0]
    assert sum(selfs) == pytest.approx(item[tracing.END] - item[tracing.START],
                                       abs=1e-12)
    assert all(s >= 0 for s in selfs)
    calls, self_s = tracing.layer_totals(tracer.spans, selfs)
    assert calls == {"item": 1, "top": 1, "mid": 2, "leaf": 5}
    assert self_s["leaf"] == pytest.approx(5 * 0.001)
    assert tracing.item_balance(tracer.spans, selfs) < 1e-12


def test_overlapping_children_are_counted_once():
    spans = [["p", 0.0, 10.0, -1, 0], ["a", 1.0, 5.0, 0, 0],
             ["b", 4.0, 6.0, 0, 0], ["c", 8.0, 12.0, 0, 0]]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 2.0)


BY_NAME_IMPORTS = [
    ("sidlab.search", "_gradient_float"),
    ("sidlab.search", "_project_regular_array"),
    ("sidlab.verify", "local_density_deficit"),
    ("sidlab.stepgraphon", "contract_exact"),
    ("sidlab.homdensity", "complete_graph"),
    ("sidlab.contraction", "contract_float"),
]


def current_bindings():
    import sidlab.graphs
    import sidlab.stepgraphon
    import sidlab.verify

    out = {(m, a): getattr(sys.modules[m], a) for m, a in BY_NAME_IMPORTS}
    out["without_edge"] = vars(sidlab.graphs.Graph)["without_edge"]
    out["graphon_init"] = vars(sidlab.stepgraphon.StepGraphon)["__init__"]
    out.update((("SUITES", k), v) for k, v in sidlab.verify.SUITES.items())
    return out


def test_wrappers_reach_by_name_imports_and_are_removed_on_error():
    from sidlab import graphs, search

    triangle = graphs.complete_graph(3)
    before = current_bindings()
    tracer = tracing.Tracer()
    with pytest.raises(ValueError, match="bipartite"):
        with tracing.installed(tracer, after=tracing.sidlab_hooks(tracer)):
            during = current_bindings()
            with tracer.span("item", item=0):
                search.search_counterexample(triangle, n=2, d=Fraction(1, 2))
    assert all(during[k] is not before[k] for k in before)
    assert current_bindings() == before
    names = [s[tracing.NAME] for s in tracer.spans]
    assert names == ["item", "search.descent"]
    assert all(s[tracing.END] is not None for s in tracer.spans)


def test_benchmark_json_declares_what_the_runs_report():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert declared == tracing.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == \
        sorted(workloads.WORKLOADS)


def test_exits_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_item_times_are_scaled_by_the_slices_of_their_chunk():
    host = {"slowdown": 2.0}
    speed = hostspeed.HostSpeed(
        probe=lambda: host["slowdown"] * hostspeed.NOMINAL_SLICE_S)
    speed.after(0.5 * hostspeed.EVERY_S)
    assert speed.slices == []
    speed.after(hostspeed.CHUNK_S)  # owes slices and closes the chunk
    assert speed.factors == [pytest.approx(2.0)]
    assert speed.scaled == pytest.approx(
        [0.25 * hostspeed.EVERY_S, 0.5 * hostspeed.CHUNK_S])
    host["slowdown"] = 4.0
    speed.after(0.1 * hostspeed.EVERY_S)
    speed.flush()  # no slice owed yet: probes once
    assert speed.factors[-1] == pytest.approx(4.0)
    assert speed.scaled[-1] == pytest.approx(0.025 * hostspeed.EVERY_S)
