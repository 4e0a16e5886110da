"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Target, Tracer, TracingError, layer_totals  # noqa: E402
from workloads import Check, Outcome, failed_checks  # noqa: E402


# -- span arithmetic ------------------------------------------------------------


def test_self_time_subtracts_nested_children():
    spans = [
        Span("root", None, 0.0, 10.0),
        Span("a", 0, 1.0, 4.0),
        Span("leaf", 1, 2.0, 3.0),
        Span("b", 0, 4.0, 6.0),
    ]
    tot = layer_totals(spans)
    assert tot["root"].self_s == pytest.approx(5.0)
    assert tot["a"].self_s == pytest.approx(2.0)
    assert tot["leaf"].self_s == pytest.approx(1.0)
    assert tot["b"].self_s == pytest.approx(2.0)
    assert tot["root"].inclusive_s == pytest.approx(10.0)
    assert sum(t.self_s for t in tot.values()) == pytest.approx(10.0)


def test_nested_spans_of_one_name_count_once_inclusive():
    spans = [Span("x", None, 0.0, 4.0), Span("x", 0, 1.0, 2.0), Span("x", None, 5.0, 6.0)]
    tot = layer_totals(spans)["x"]
    assert tot.calls == 3
    assert tot.inclusive_s == pytest.approx(5.0)
    assert tot.self_s == pytest.approx(5.0)


def test_tracer_records_parents_and_ops():
    tr = Tracer()
    tr.op = 7
    outer = tr.open("outer")
    inner = tr.open("inner")
    tr.close(inner)
    tr.close(outer)
    assert tr.spans[inner].parent == outer and tr.spans[outer].parent is None
    assert {s.op for s in tr.spans} == {7}
    assert all(s.end >= s.start for s in tr.spans)


# -- percentile rule ------------------------------------------------------------


def test_percentile_is_the_first_sample_past_q_and_counts_samples_beyond():
    assert harness.percentile([3.0, 1.0, 2.0], 50) == (2.0, 1)
    assert harness.percentile([1.0, 2.0], 50) == (2.0, 0)
    assert harness.percentile([5.0], 99) == (5.0, 0)
    assert harness.percentile(range(1010), 99) == (999, 10)
    assert harness.percentile(range(1000), 99)[1] < harness.MIN_BEYOND


def test_pointwise_pass_has_ten_ops_beyond_p99():
    ops = workloads.pointwise(1).ops
    assert len(ops) >= 1000
    assert harness.percentile(range(len(ops)), 99)[1] >= harness.MIN_BEYOND


def test_run_passes_keeps_going_to_the_minimum_passes():
    ops = [workloads.Op("x", lambda: Outcome((1.0,), ()))]
    assert len(harness.run_passes(ops, 0.0)) == 1
    assert len(harness.run_passes(ops, 0.0, min_passes=3)) == 3


# -- the op gate ----------------------------------------------------------------


def test_nan_and_inf_fail_the_gate():
    assert not Check("e", math.nan, 1.0).passed()
    assert not Check("e", math.inf, 1.0).passed()
    assert not Check("e", 1.0, 1.0).passed()
    assert Check("e", 0.5, 1.0).passed()
    assert failed_checks(Outcome((1.0, math.nan), ())) == ["non_finite"]
    assert failed_checks(Outcome((1.0,), (Check("e", math.nan, 1e-8),))) == ["e"]
    assert failed_checks(Outcome((1.0,), (Check("e", 0.0, 1e-8),))) == []


def test_a_raising_op_is_a_failed_op():
    def boom():
        raise ValueError("bad input")

    result = harness.run_pass([workloads.Op("x", boom)])
    assert result.failures == [("x", ("raised ValueError",))]
    assert not harness.tally([workloads.Op("x", boom)], [result])["x"].known


# -- seeded inputs ----------------------------------------------------------------


def test_seed_fixes_the_inputs():
    assert workloads.pointwise(5).digest == workloads.pointwise(5).digest
    assert workloads.pointwise(5).digest != workloads.pointwise(6).digest


# -- wrappers -------------------------------------------------------------------


def _binding(target):
    owner, name = tracing._owner_and_name(target)
    return vars(owner)[name]


def test_every_target_is_wrapped_and_restored():
    before = [_binding(t) for t in tracing.TARGETS]
    with tracing.installed(Tracer()):
        during = [_binding(t) for t in tracing.TARGETS]
    after = [_binding(t) for t in tracing.TARGETS]
    assert all(d is not b for d, b in zip(during, before))
    assert all(a is b for a, b in zip(after, before))


def test_a_missing_target_fails_loudly_and_leaves_nothing_wrapped():
    targets = tracing.TARGETS[:2] + (Target("curvlab.integrate", "no_such_function", "x"),)
    before = [_binding(t) for t in tracing.TARGETS[:2]]
    with pytest.raises(TracingError, match="no_such_function"):
        with tracing.installed(Tracer(), targets):
            pass
    assert [_binding(t) for t in tracing.TARGETS[:2]] == before


# -- smoke pass of each workload's op list ------------------------------------------

CHEAP = {
    # the product_s2s2_r6 and tube sphere2_r4 ops take seconds; smoke the rest
    "gauss_bonnet": lambda ops: [op for op in ops if "sphere2_r4" in op.cls],
    "tube_total": lambda ops: [op for op in ops if "sphere2_r4" not in op.cls],
    "pointwise": lambda ops: [op for cls in sorted({o.cls for o in ops})
                              for op in [o for o in ops if o.cls == cls][:3]],
}


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_smoke_pass_traced_matches_untraced(name):
    ops = CHEAP[name](workloads.BUILDERS[name](2).ops)
    plain = harness.run_pass(ops)
    tracer = Tracer()
    with tracing.installed(tracer):
        traced = harness.run_pass(ops, tracer)
    assert traced.fingerprints == plain.fingerprints
    assert tracer.spans
    classes = harness.tally(ops, [plain])
    assert all(t.known for t in classes.values())
    failed = {cls for cls, t in classes.items() if t.failed}
    assert failed == ({"egregium.graph_n4"} if name == "pointwise" else set())


def test_layer_metrics_cover_the_table():
    tracer = Tracer()
    ops = CHEAP["pointwise"](workloads.pointwise(3).ops)
    with tracing.installed(tracer):
        harness.run_pass(ops, tracer)
    metrics = tracing.layer_metrics(Tracer(), tracer, 1, len(ops))
    assert metrics["immersion.frame_data_at_calls"][0] > 0
    assert metrics["jets.points"][0] > 0
    assert metrics["integrate.normal_sphere_rule_calls"][0] > 0
    assert all(math.isfinite(v) for v, _ in metrics.values())
    assert tracing.POINTWISE_ONLY <= set(metrics)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    reported = {k: u for k, (_, u) in metrics.items() if k not in tracing.POINTWISE_ONLY}
    reported["trace.overhead_s"] = "s"  # added by run.py from the two phases
    assert reported == declared


# -- the command ----------------------------------------------------------------


def test_without_the_sources_the_command_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = subprocess.run(spec["command"] + ["--workload", "pointwise", "--seed", "1",
                                            "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
