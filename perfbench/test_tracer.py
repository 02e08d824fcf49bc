"""Self-test of the benchmark's tracer.  Run with

    python3 -m pytest -q perfbench

The span arithmetic is checked on hand-built spans.  The exact counts of one
reference Runge iteration prove that every by-name import site of a traced
function is wrapped: a missed site would drop calls from the counts.  They
are the counts of the code at the commit that defined the benchmark.
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import rungelab.cli  # noqa: E402
from rungelab import experiments, runge_op, solver  # noqa: E402

import tracer as tr  # noqa: E402
from workloads import RUNGE_BASE, call_cli, write_config  # noqa: E402


def _span(id_, start, end, parent=None):
    s = tr.Span(id_, f"s{id_}", start, parent)
    s.end = end
    return s


def test_self_time_subtracts_union_of_clipped_children():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 3.0, parent=0),
        _span(2, 2.0, 5.0, parent=0),    # overlaps span 1: union [1, 5]
        _span(3, 8.0, 12.0, parent=0),   # clipped to [8, 10]
        _span(4, 1.5, 2.5, parent=1),    # grandchild: only span 1 loses it
    ]
    got = tr.self_times(spans)
    assert got == pytest.approx({0: 4.0, 1: 1.0, 2: 3.0, 3: 4.0, 4: 1.0})


def test_nested_spans_link_to_their_parent():
    t = tr.Tracer()
    with t.span("outer"):
        with t.span("inner"):
            pass
        with t.span("inner"):
            pass
    outer, a, b = t.spans
    assert outer.parent is None and a.parent == outer.id and b.parent == outer.id
    selfs, calls = t.self_time_by_name()
    assert calls == {"outer": 1, "inner": 2}
    inner = (a.end - a.start) + (b.end - b.start)
    assert selfs["outer"] == pytest.approx(outer.end - outer.start - inner)


def _unwrapped_sites():
    """Names of module attributes that still hold an unwrapped traced function
    or runner; empty while an installation is active."""
    originals = {}
    for mod_name, fn_name, _ in tr.FUNCTIONS:
        fn = getattr(sys.modules[f"rungelab.{mod_name}"], fn_name)
        originals[id(getattr(fn, "__wrapped__", fn))] = f"{mod_name}.{fn_name}"
    for runner in experiments.RUNNERS.values():
        fn = getattr(runner, "__wrapped__", runner)
        originals[id(fn)] = f"experiments.{fn.__name__}"
    found = []
    for mod in tr._rungelab_modules():
        for key, value in vars(mod).items():
            values = value.values() if isinstance(value, dict) else [value]
            for v in values:
                if callable(v) and id(v) in originals and not hasattr(v, "__wrapped__"):
                    found.append(f"{mod.__name__}.{key} -> {originals[id(v)]}")
    return found


def test_install_wraps_every_site_and_uninstall_restores():
    before = (solver.solve_bvp, runge_op.solve_bvp, experiments.hcurl_norm,
              experiments.RUNNERS["runge"], solver.SystemMatrix.__dict__["solve_interior"])
    inst = tr.install(tr.Tracer())
    try:
        assert _unwrapped_sites() == []
        assert runge_op.solve_bvp is solver.solve_bvp
        assert experiments.RUNNERS["runge"].__wrapped__ is before[3]
    finally:
        inst.uninstall()
    after = (solver.solve_bvp, runge_op.solve_bvp, experiments.hcurl_norm,
             experiments.RUNNERS["runge"], solver.SystemMatrix.__dict__["solve_interior"])
    assert all(x is y for x, y in zip(before, after))


def test_reference_runge_counts(tmp_path):
    config = write_config(str(tmp_path), "runge", RUNGE_BASE)
    t = tr.Tracer()
    inst = tr.install(t)
    try:
        status, text = call_cli(rungelab.cli.main, [
            "--out", str(tmp_path / "out"), "--cache", str(tmp_path / "cache"),
            "run", config])
    finally:
        inst.uninstall()
    assert status == 0, text
    m = tr.layer_metrics(t)
    assert m["runge_op.restriction_columns"] == 264
    assert m["solver.solve_bvp_calls"] == 274      # 264 columns + 10 j-checks
    assert m["solver.solve_interior_calls"] == 286  # + 12 guard iterations
    assert m["solver.rhs_parts"] == 560
    assert m["solver.factorize_calls"] == 1
    assert m["runge_op.cache_misses"] == 1 and m["runge_op.cache_hits"] == 0
    assert m["store.bytes_written"] > 0 and m["store.bytes_read"] == 0
    assert m["solver.max_rel_residual"] < 1e-9
    assert t.spans[0].name == "cli.main" and t.spans[0].parent is None


def test_benchmark_json_names_match_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    per_layer = {m["name"] for m in bench["per_layer"]}
    reported = set(tr.layer_metrics(tr.Tracer())) | {"failed_ratio"}
    assert per_layer == reported
    assert {m["name"] for m in bench["end_to_end"]} == {"run_s", "setup_s", "peak_rss_mb"}
