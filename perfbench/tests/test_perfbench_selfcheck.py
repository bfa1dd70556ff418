"""Self-tests of the benchmark's own logic (no workload is run).

Run with ``python3 -m pytest -q perfbench/tests`` from the checkout root.
"""

import json
import re
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import measure  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import traffic  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert measure.tail_percentile(list(range(199)), 95) is None
    assert measure.tail_percentile(list(range(200)), 95) is not None
    assert measure.tail_percentile(list(range(19)), 50) is None
    assert measure.tail_percentile(list(range(20)), 50) == 9.5


def test_percentile_interpolates():
    assert measure.percentile([1, 2, 3, 4], 50) == 2.5
    assert measure.percentile([5], 95) == 5.0


def test_schedule_reproduces_exactly_per_seed():
    first = traffic.schedule(7, 12)
    assert first == traffic.schedule(7, 12)
    assert first != traffic.schedule(8, 12)
    assert all(0 <= a.due_s < 12 for a in first)
    assert [a.due_s for a in first] == sorted(a.due_s for a in first)


def test_schedule_gives_enough_campaigns_for_a_p95():
    for seed in range(5):
        arrivals = traffic.schedule(seed, 15)
        assert measure.tail_percentile([0.0] * len(arrivals), 95) \
            is not None
        fresh = sum(1 for a in arrivals if a.tenant.startswith("new-"))
        assert 0 < fresh < len(arrivals) / 4


def test_warm_up_checks_every_pool_spec():
    warmed = {traffic.Spec(case, variant, body["depth"], body["frames"])
              for body in traffic.warm_up_bodies()
              for case in body["cases"] for variant in body["variants"]
              if (case, variant) in traffic.POOL_CASES}
    assert warmed == set(traffic.spec_pool())


def _props(status="proven"):
    return [{"name": "tb.as__a", "kind": "assert", "status": status,
             "depth": 3},
            {"name": "tb.co__b", "kind": "cover", "status": "covered",
             "depth": 1}]


def test_oracle_fails_on_one_flipped_verdict():
    good = _props()
    check = oracle.Oracle("x", pins={"A.fixed": oracle.digest(good)})
    assert check.check("A.fixed", good)
    assert not check.check("A.fixed", _props(status="cex"))
    assert check.mismatches and "A.fixed" in check.mismatches[0]


def test_oracle_ignores_proof_depth_but_not_trace_depth():
    base = _props()
    moved_proof = [dict(p) for p in base]
    moved_proof[0]["depth"] = 9
    assert oracle.digest(base) == oracle.digest(moved_proof)
    moved_trace = [dict(p) for p in base]
    moved_trace[1]["depth"] = 2
    assert oracle.digest(base) != oracle.digest(moved_trace)


def test_oracle_applies_table3_expectation():
    class Case:
        expect_fixed_proof = True
        expect_buggy_cex = "eventual_response"

    assert oracle.table3_problem(Case, "fixed", _props()) is None
    assert oracle.table3_problem(Case, "fixed", _props("cex"))
    assert oracle.table3_problem(Case, "buggy", _props("cex"))  # wrong prop
    hit = _props("cex")
    hit[0]["name"] = "tb.as__x_eventual_response"
    assert oracle.table3_problem(Case, "buggy", hit) is None


def test_pinned_oracle_covers_every_label():
    pins = oracle.load()
    assert set(pins["corpus"]) == set(run.corpus_labels())
    assert set(pins["service"]) == {s.label for s in traffic.spec_pool()}


def test_metric_and_workload_names_are_valid():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [name for name, _ in run.per_layer_names() + run.END_TO_END]
    for name in names:
        assert NAME.match(name), name
    assert len(set(w["name"] for w in spec["workloads"])) \
        == len(spec["workloads"])
    assert [n for n, _ in run.END_TO_END] \
        == [m["name"] for m in spec["end_to_end"]]
    assert [n for n, _ in run.per_layer_names()] \
        == [m["name"] for m in spec["per_layer"]]
    assert tuple(names[:len(run.WORKLOADS)]) == run.WORKLOADS


def _spans():
    # root 0..10 s; core 0..1, formal 1..9 with sat 2..6 inside it.
    return [("bench.w", 0.0, 10.0, -1, None, 1),
            ("core.generate", 0.0, 1.0, 0, None, 1),
            ("formal.check", 1.0, 9.0, 0, None, 1),
            ("sat.solve", 2.0, 6.0, 2, None, 1)]


def test_layer_sum_check_passes_when_layers_explain_the_wall():
    table = tracing.layer_table(_spans(), 10.0, 0.15)
    assert table["ok"]
    assert table["layers"] == {"core": 1.0, "formal": 4.0, "sat": 4.0}
    assert table["unattributed_s"] == pytest.approx(1.0)


def test_layer_sum_check_fails_when_a_layer_is_dropped():
    dropped = [s for s in _spans() if s[0] != "core.generate"]
    assert not tracing.layer_table(dropped, 10.0, 0.15)["ok"]


def test_total_time_counts_outermost_spans_only():
    spans = _spans() + [("sat.solve", 3.0, 4.0, 3, None, 1)]
    assert tracing.total_time(spans, "sat.solve") == 4.0


def test_chrome_trace_is_complete_events():
    trace = tracing.chrome_trace([{"pid": 1, "spans": _spans()}], 0.0)
    events = trace["traceEvents"]
    assert len(events) == 4 and all(e["ph"] == "X" for e in events)
    assert events[0]["dur"] == 10.0 * 1e6


def _history_row(code, calls):
    return {"trace": True, "seconds": 15, "metrics": {"sat.calls": calls},
            "meta": {"code": code}}


def test_determinism_compares_only_runs_of_the_same_code(tmp_path):
    metrics = {"sat.calls": 5.0}
    run._append_history(tmp_path, "w", _history_row("old", 4.0))
    [line] = run.determinism_report(tmp_path, "w", "new", metrics)
    assert "unknown (1 run)" in line
    run._append_history(tmp_path, "w", _history_row("new", 5.0))
    [line] = run.determinism_report(tmp_path, "w", "new", metrics)
    assert "exact over 2 runs" in line


def test_trace_overhead_is_unknown_without_an_untraced_run(tmp_path):
    notes = {}
    row = _history_row("old", 4.0)
    row.update(trace=False, metrics={"wall_s": 10.0})
    run._append_history(tmp_path, "w", row)
    assert run._trace_overhead(tmp_path, "w", 15, "new", {"wall_s": 11.0},
                               notes) == 0.0
    assert notes["obs.trace_overhead_frac"].startswith("unknown")
    assert run._trace_overhead(tmp_path, "w", 15, "old", {"wall_s": 11.0},
                               notes) == pytest.approx(0.1)
